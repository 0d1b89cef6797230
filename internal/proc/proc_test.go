package proc

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewMemoryValidation(t *testing.T) {
	tests := []struct {
		name          string
		real, logical int64
		wantErr       bool
	}{
		{"ok equal", PageSize, PageSize, false},
		{"ok scaled", PageSize, 1 << 30, false},
		{"zero real", 0, 100, true},
		{"negative real", -1, 100, true},
		{"logical below real", 2 * PageSize, PageSize, true},
		// Rounding MaxInt64 up to whole pages wrapped, and make panicked
		// with "len out of range" instead of the error being returned.
		{"page rounding wraps", math.MaxInt64, math.MaxInt64, true},
		{"more pages than an image can count", maxPages*PageSize + 1, math.MaxInt64, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewMemory(tt.real, tt.logical)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// AdoptMemory holds sizes to NewMemory's rules (same error text for the
// same sizes), refuses a backing that is not whole pages, and otherwise
// wraps the caller's array itself, every page clean.
func TestAdoptMemory(t *testing.T) {
	for _, sizes := range [][2]int64{{0, 100}, {2 * PageSize, PageSize}} {
		_, want := NewMemory(sizes[0], sizes[1])
		_, got := AdoptMemory(make([]byte, sizes[0]), sizes[1])
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("sizes %v: AdoptMemory err %v, NewMemory err %v", sizes, got, want)
		}
	}
	if _, err := AdoptMemory(make([]byte, PageSize+1), 1<<20); err == nil {
		t.Error("a backing of a page and a byte was adopted")
	}

	data := make([]byte, 3*PageSize)
	data[PageSize+7] = 0xAB
	m, err := AdoptMemory(data, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPages() != 3 || m.RealBytes() != 3*PageSize || m.LogicalBytes() != 1<<20 || m.DirtyCount() != 0 {
		t.Errorf("adopted %d pages / %d bytes / %d logical, %d dirty", m.NumPages(), m.RealBytes(), m.LogicalBytes(), m.DirtyCount())
	}
	if m.Page(1)[7] != 0xAB {
		t.Error("adopted memory does not show the bytes it was given")
	}
	if err := m.WriteU64(2*PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if data[2*PageSize+7] != 1 || !reflect.DeepEqual(m.DirtyPages(), []int{2}) {
		t.Errorf("write through adopted memory: backing byte %d, dirty pages %v", data[2*PageSize+7], m.DirtyPages())
	}
}

func TestMemoryRoundsUpToPages(t *testing.T) {
	m, err := NewMemory(PageSize+1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", m.NumPages())
	}
	if m.RealBytes() != 2*PageSize {
		t.Errorf("RealBytes = %d", m.RealBytes())
	}
	if m.LogicalBytes() != 1<<20 {
		t.Errorf("LogicalBytes = %d", m.LogicalBytes())
	}
}

func TestMemoryReadWriteSpanningPages(t *testing.T) {
	m, _ := NewMemory(3*PageSize, 3*PageSize)
	m.ClearSoftDirty()
	data := make([]byte, PageSize+100)
	for i := range data {
		data[i] = byte(i % 251)
	}
	off := int64(PageSize - 50)
	if err := m.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read back differs")
	}
	// Pages 0, 1, 2 were all touched by the spanning write.
	if got := m.DirtyCount(); got != 3 {
		t.Errorf("DirtyCount = %d, want 3 (dirty: %v)", got, m.DirtyPages())
	}
}

func TestMemoryBounds(t *testing.T) {
	m, _ := NewMemory(PageSize, PageSize)
	if err := m.ReadAt(make([]byte, 10), int64(PageSize)-5); err == nil {
		t.Error("read past end accepted")
	}
	if err := m.WriteAt(make([]byte, 1), -1); err == nil {
		t.Error("negative offset accepted")
	}
	// off+len wraps negative for offsets near MaxInt64; the range check
	// must reject them rather than index a page that does not exist.
	for _, off := range []int64{math.MaxInt64, math.MaxInt64 - 3, math.MaxInt64 - 7, math.MaxInt64 - PageSize} {
		if err := m.ReadAt(make([]byte, 8), off); err == nil {
			t.Errorf("read at offset %d accepted", off)
		}
		if err := m.WriteAt(make([]byte, 8), off); err == nil {
			t.Errorf("write at offset %d accepted", off)
		}
		if _, err := m.ReadU64(off); err == nil {
			t.Errorf("ReadU64 at offset %d accepted", off)
		}
		if err := m.WriteU64(off, 1); err == nil {
			t.Errorf("WriteU64 at offset %d accepted", off)
		}
	}
	if err := m.ReadAt(make([]byte, PageSize+1), 0); err == nil {
		t.Error("read longer than memory accepted")
	}
	if err := m.SetPage(1, make([]byte, PageSize)); err == nil {
		t.Error("SetPage out of range accepted")
	}
	if err := m.SetPage(0, make([]byte, 10)); err == nil {
		t.Error("short page accepted")
	}
}

func TestSoftDirtyLifecycle(t *testing.T) {
	m, _ := NewMemory(4*PageSize, 4*PageSize)
	// Fresh memory starts fully dirty so the first dump is full.
	if m.DirtyCount() != 4 {
		t.Fatalf("fresh memory dirty count = %d, want 4", m.DirtyCount())
	}
	m.ClearSoftDirty()
	if m.DirtyCount() != 0 {
		t.Fatal("ClearSoftDirty left dirty pages")
	}
	m.WriteU64(2*PageSize+8, 42)
	if pages := m.DirtyPages(); len(pages) != 1 || pages[0] != 2 {
		t.Errorf("DirtyPages = %v, want [2]", pages)
	}
	// SetPage (restore path) must NOT mark dirty.
	m.SetPage(0, make([]byte, PageSize))
	if m.DirtyCount() != 1 {
		t.Error("SetPage marked page dirty")
	}
	m.MarkAllDirty()
	if m.DirtyCount() != 4 {
		t.Error("MarkAllDirty incomplete")
	}
}

func TestLogicalDirtyBytes(t *testing.T) {
	m, _ := NewMemory(10*PageSize, 100*PageSize)
	m.ClearSoftDirty()
	m.WriteU64(0, 1)
	// 1 of 10 real pages dirty => 10% of logical footprint.
	if got := m.LogicalDirtyBytes(); got != 10*PageSize {
		t.Errorf("LogicalDirtyBytes = %d, want %d", got, 10*PageSize)
	}
}

// Property: WriteAt/ReadAt round-trip arbitrary in-range payloads.
func TestMemoryRoundTripProperty(t *testing.T) {
	m, _ := NewMemory(8*PageSize, 8*PageSize)
	f := func(data []byte, offRaw uint32) bool {
		if len(data) == 0 || len(data) > 4*PageSize {
			return true
		}
		off := int64(offRaw) % (m.RealBytes() - int64(len(data)))
		if off < 0 {
			off = 0
		}
		if err := m.WriteAt(data, off); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := m.ReadAt(got, off); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestU64F64Helpers(t *testing.T) {
	m, _ := NewMemory(PageSize, PageSize)
	if err := m.WriteU64(16, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadU64(16); v != 0xDEADBEEF {
		t.Errorf("ReadU64 = %x", v)
	}
	if err := m.WriteF64(24, 3.25); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadF64(24); v != 3.25 {
		t.Errorf("ReadF64 = %v", v)
	}
}

// The word accessors as they stood before the in-page fast path: a
// byte-granular copy through ReadAt/WriteAt.
func referenceReadU64(m *Memory, off int64) (uint64, error) {
	var buf [8]byte
	if err := m.ReadAt(buf[:], off); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(buf[:]), nil
}

func referenceWriteU64(m *Memory, off int64, v uint64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return m.WriteAt(buf[:], off)
}

// GIVEN two three-page memories with the same contents,
// WHEN a word is read or written at every offset — inside a page, the last
// word of a page, a word straddling two pages, the last word of memory,
// negative, past the end, near MaxInt64 —
// THEN ReadU64/WriteU64 return the value or the error ReadAt/WriteAt do,
// leave the same bytes behind, and dirty exactly the pages the word touches.
func TestWordAccessMatchesByteAccess(t *testing.T) {
	const pages = 3
	word, byteWise := mustPatterned(t, pages), mustPatterned(t, pages)
	offsets := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 3, math.MaxInt64 - 7, math.MaxInt64 - 8}
	for off := int64(-16); off < pages*PageSize+16; off++ {
		offsets = append(offsets, off)
	}
	sameErr := func(a, b error) bool {
		return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
	}
	for _, off := range offsets {
		got, gotErr := word.ReadU64(off)
		want, wantErr := referenceReadU64(byteWise, off)
		if got != want || !sameErr(gotErr, wantErr) {
			t.Fatalf("ReadU64(%d) = %#x, %v; byte-wise %#x, %v", off, got, gotErr, want, wantErr)
		}

		word.ClearSoftDirty()
		byteWise.ClearSoftDirty()
		v := uint64(off)*0x9E3779B97F4A7C15 + 1
		gotErr, wantErr = word.WriteU64(off, v), referenceWriteU64(byteWise, off, v)
		if !sameErr(gotErr, wantErr) {
			t.Fatalf("WriteU64(%d) = %v; byte-wise %v", off, gotErr, wantErr)
		}
		var touched []int
		if wantErr == nil {
			touched = append(touched, int(off/PageSize))
			if last := int((off + 7) / PageSize); last != touched[0] {
				touched = append(touched, last)
			}
		}
		if got := word.DirtyPages(); !reflect.DeepEqual(got, touched) || !reflect.DeepEqual(byteWise.DirtyPages(), touched) {
			t.Fatalf("WriteU64(%d) dirtied pages %v, byte-wise %v, want %v", off, got, byteWise.DirtyPages(), touched)
		}
		for pg := 0; pg < pages; pg++ {
			if !bytes.Equal(word.Page(pg), byteWise.Page(pg)) {
				t.Fatalf("WriteU64(%d): page %d differs from the byte-wise write", off, pg)
			}
		}
		if wantErr == nil {
			if back, err := word.ReadU64(off); err != nil || back != v {
				t.Fatalf("ReadU64(%d) after write = %#x, %v; want %#x", off, back, err, v)
			}
		}
	}
}

func mustPatterned(t *testing.T, pages int) *Memory {
	t.Helper()
	m, err := NewMemory(int64(pages)*PageSize, int64(pages)*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, m.RealBytes())
	for i := range buf {
		buf[i] = byte(i*131 + i>>8)
	}
	if err := m.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProcessLifecycle(t *testing.T) {
	p, err := New("p1", FillProgram{}, 4*PageSize, 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	ConfigureFill(p, 3, 1)
	if p.State() != Running {
		t.Fatalf("state = %v", p.State())
	}
	done, err := p.Step()
	if err != nil || done {
		t.Fatalf("step 1: done=%v err=%v", done, err)
	}
	if err := p.Suspend(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Step(); err == nil {
		t.Error("stepping a suspended process succeeded")
	}
	if err := p.ResumeInPlace(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		done, err = p.Step()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !done || p.State() != Exited {
		t.Errorf("after final step: done=%v state=%v", done, p.State())
	}
	if p.Steps() != 3 || p.Registers().PC != 3 {
		t.Errorf("steps=%d pc=%d", p.Steps(), p.Registers().PC)
	}
}

func TestProcessStateErrors(t *testing.T) {
	p, _ := New("p", FillProgram{}, 2*PageSize, 2*PageSize)
	if err := p.ResumeInPlace(); err == nil {
		t.Error("resume of running process succeeded")
	}
	p.Kill()
	if p.State() != Killed {
		t.Errorf("state = %v", p.State())
	}
	if err := p.Suspend(); err == nil {
		t.Error("suspend of killed process succeeded")
	}
	// Kill after exit is a no-op.
	q, _ := New("q", FillProgram{}, 2*PageSize, 2*PageSize)
	ConfigureFill(q, 1, 1)
	q.Step()
	q.Kill()
	if q.State() != Exited {
		t.Errorf("kill after exit changed state to %v", q.State())
	}
}

func TestNewProcessValidation(t *testing.T) {
	if _, err := New("p", nil, PageSize, PageSize); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := New("p", FillProgram{}, 0, 0); err == nil {
		t.Error("zero memory accepted")
	}
	// FillProgram requires >= 2 pages.
	if _, err := New("p", FillProgram{}, PageSize, PageSize); err == nil {
		t.Error("1-page memfill accepted")
	}
}

func TestFillProgramDeterminism(t *testing.T) {
	run := func() uint64 {
		p, err := New("p", FillProgram{}, 8*PageSize, 8*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		ConfigureFill(p, 10, 3)
		for {
			done, err := p.Step()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
		sum, err := FillChecksum(p)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	if a, b := run(), run(); a != b || a == 0 {
		t.Errorf("checksums: %x vs %x", a, b)
	}
}

func TestFillProgramDirtySpread(t *testing.T) {
	p, _ := New("p", FillProgram{}, 11*PageSize, 11*PageSize)
	ConfigureFill(p, 100, 1)
	p.Memory().ClearSoftDirty()
	p.Step()
	// One data page + the header page.
	if got := p.Memory().DirtyCount(); got != 2 {
		t.Errorf("dirty after one step = %d, want 2", got)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register(FillProgramName, func() Program { return FillProgram{} })
	prog, err := r.New(FillProgramName)
	if err != nil || prog.Name() != FillProgramName {
		t.Fatalf("New: %v %v", prog, err)
	}
	if _, err := r.New("missing"); err == nil {
		t.Error("missing program resolved")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Register(FillProgramName, func() Program { return FillProgram{} })
}

func TestRebuild(t *testing.T) {
	mem, _ := NewMemory(2*PageSize, 2*PageSize)
	regs := Registers{PC: 5}
	regs.R[0] = 10
	p := Rebuild("restored", FillProgram{}, mem, regs, 5)
	if p.State() != Running || p.Steps() != 5 || p.Registers().PC != 5 || p.Registers().R[0] != 10 {
		t.Errorf("rebuild state: %v steps=%d", p.State(), p.Steps())
	}
}
