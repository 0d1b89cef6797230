package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"preemptsched/internal/proc"
	"preemptsched/internal/storage"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	reg := proc.NewRegistry()
	reg.Register(proc.FillProgramName, func() proc.Program { return proc.FillProgram{} })
	return NewEngine(reg)
}

func newFillProc(t *testing.T, pages int, steps, perStep uint64) *proc.Process {
	t.Helper()
	p, err := proc.New(fmt.Sprintf("task-%d", pages), proc.FillProgram{}, int64(pages)*proc.PageSize, int64(pages)*proc.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	proc.ConfigureFill(p, steps, perStep)
	return p
}

func stepN(t *testing.T, p *proc.Process, n int) bool {
	t.Helper()
	for i := 0; i < n; i++ {
		done, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return true
		}
	}
	return false
}

func runToCompletion(t *testing.T, p *proc.Process) uint64 {
	t.Helper()
	for {
		done, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			sum, err := proc.FillChecksum(p)
			if err != nil {
				t.Fatal(err)
			}
			return sum
		}
	}
}

// The headline transparency property: suspend mid-run, dump, restore, run
// to completion — the result is identical to an uninterrupted run.
func TestDumpRestoreTransparency(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()

	ref := newFillProc(t, 16, 40, 3)
	want := runToCompletion(t, ref)

	p := newFillProc(t, 16, 40, 3)
	stepN(t, p, 17)
	if err := p.Suspend(); err != nil {
		t.Fatal(err)
	}
	info, err := e.Dump(p, store, "img/full", DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if info.DumpedPages != 16 || info.Incremental {
		t.Errorf("full dump info: %+v", info)
	}
	restored, rinfo, err := e.Restore(store, "img/full")
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Steps != 17 || restored.Steps() != 17 {
		t.Errorf("restored steps = %d/%d, want 17", rinfo.Steps, restored.Steps())
	}
	if got := runToCompletion(t, restored); got != want {
		t.Errorf("restored run checksum %x != uninterrupted %x", got, want)
	}
}

func TestIncrementalChainTransparency(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()

	ref := newFillProc(t, 32, 60, 2)
	want := runToCompletion(t, ref)

	p := newFillProc(t, 32, 60, 2)
	names := []string{"c/0"}
	stepN(t, p, 10)
	p.Suspend()
	if _, err := e.Dump(p, store, "c/0", DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	p.ResumeInPlace()

	// Two incremental rounds: run, dump dirty pages only, resume.
	for i := 1; i <= 2; i++ {
		stepN(t, p, 10)
		p.Suspend()
		name := fmt.Sprintf("c/%d", i)
		info, err := e.Dump(p, store, name, DumpOpts{Incremental: true, Parent: names[i-1]})
		if err != nil {
			t.Fatal(err)
		}
		if !info.Incremental {
			t.Fatal("dump not marked incremental")
		}
		if info.DumpedPages >= 32 {
			t.Errorf("incremental dump wrote %d pages, want fewer than full 32", info.DumpedPages)
		}
		names = append(names, name)
		p.ResumeInPlace()
	}

	chain, err := Chain(store, "c/2")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 || chain[0] != "c/0" || chain[2] != "c/2" {
		t.Errorf("chain = %v", chain)
	}

	restored, _, err := e.Restore(store, "c/2")
	if err != nil {
		t.Fatal(err)
	}
	if restored.Steps() != 30 {
		t.Errorf("restored steps = %d, want 30", restored.Steps())
	}
	if got := runToCompletion(t, restored); got != want {
		t.Errorf("incremental restore checksum %x != uninterrupted %x", got, want)
	}
}

func TestIncrementalDumpIsSmaller(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()
	// Table 3 scenario: big memory, small fraction modified between dumps.
	p := newFillProc(t, 100, 1000, 1)
	stepN(t, p, 5)
	p.Suspend()
	full, err := e.Dump(p, store, "i/full", DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	p.ResumeInPlace()
	stepN(t, p, 5) // touches ~5 data pages + header
	p.Suspend()
	incr, err := e.Dump(p, store, "i/incr", DumpOpts{Incremental: true, Parent: "i/full"})
	if err != nil {
		t.Fatal(err)
	}
	if incr.StoredBytes*10 > full.StoredBytes {
		t.Errorf("incremental %d bytes not ~10x smaller than full %d", incr.StoredBytes, full.StoredBytes)
	}
	if incr.LogicalBytes >= full.LogicalBytes {
		t.Errorf("incremental logical %d >= full logical %d", incr.LogicalBytes, full.LogicalBytes)
	}
}

// GIVEN a process dumped in full, then one word written across the boundary
// of pages 5 and 6 and nothing else,
// WHEN the incremental dump of that write is restored through the chain,
// THEN the second image holds exactly the two pages the word lies on, the
// resumed memory is byte for byte the undisturbed one, and both finish with
// the same checksum: a straddling word dirties both of its pages.
func TestStraddlingWordSurvivesIncrementalChain(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()
	p := newFillProc(t, 16, 40, 3)
	stepN(t, p, 7)
	p.Suspend()
	if _, err := e.Dump(p, store, "s/0", DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	const off, word = 6*proc.PageSize - 3, 0x0123456789ABCDEF
	if err := p.Memory().WriteU64(off, word); err != nil {
		t.Fatal(err)
	}
	info, err := e.Dump(p, store, "s/1", DumpOpts{Incremental: true, Parent: "s/0"})
	if err != nil {
		t.Fatal(err)
	}
	if info.DumpedPages != 2 {
		t.Errorf("incremental image holds %d pages, want the 2 the word straddles", info.DumpedPages)
	}
	restored, _, err := e.Restore(store, "s/1")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := restored.Memory().ReadU64(off); err != nil || got != word {
		t.Errorf("restored word = %#x, %v; want %#x", got, err, uint64(word))
	}
	for pg := 0; pg < p.Memory().NumPages(); pg++ {
		if !bytes.Equal(restored.Memory().Page(pg), p.Memory().Page(pg)) {
			t.Errorf("restored page %d differs from the undisturbed process", pg)
		}
	}
	p.ResumeInPlace()
	if got, want := runToCompletion(t, restored), runToCompletion(t, p); got != want {
		t.Errorf("resumed run checksum %x != undisturbed %x", got, want)
	}
}

func TestDumpValidation(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()
	p := newFillProc(t, 4, 10, 1)
	if _, err := e.Dump(p, store, "x", DumpOpts{}); err == nil {
		t.Error("dump of running process accepted")
	}
	p.Suspend()
	if _, err := e.Dump(p, store, "x", DumpOpts{Incremental: true}); err == nil {
		t.Error("incremental dump without parent accepted")
	}
	if _, err := e.Dump(p, store, "x", DumpOpts{Parent: "y"}); err == nil {
		t.Error("full dump with parent accepted")
	}
}

func TestRestoreMissingImage(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()
	if _, _, err := e.Restore(store, "absent"); err == nil {
		t.Error("restore of missing image succeeded")
	}
}

func TestRestoreUnregisteredProgram(t *testing.T) {
	store := storage.NewMemStore()
	full := newTestEngine(t)
	p := newFillProc(t, 4, 10, 1)
	p.Suspend()
	if _, err := full.Dump(p, store, "img", DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	empty := NewEngine(proc.NewRegistry())
	if _, _, err := empty.Restore(store, "img"); err == nil {
		t.Error("restore without registered program succeeded")
	}
}

func corrupt(t *testing.T, store *storage.MemStore, name string, at int) {
	t.Helper()
	r, err := store.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if at < 0 {
		at = len(data) + at
	}
	data[at] ^= 0xFF
	w, _ := store.Create(name)
	w.Write(data)
	w.Close()
}

func TestRestoreDetectsCorruption(t *testing.T) {
	e := newTestEngine(t)
	p := newFillProc(t, 8, 10, 1)
	stepN(t, p, 3)
	p.Suspend()

	tests := []struct {
		name string
		at   int
	}{
		{"flip page byte", 600},
		{"flip header byte", 9},
		{"flip crc", -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			store := storage.NewMemStore()
			if _, err := e.Dump(p, store, "img", DumpOpts{}); err != nil {
				t.Fatal(err)
			}
			corrupt(t, store, "img", tt.at)
			_, _, err := e.Restore(store, "img")
			if err == nil {
				t.Fatal("corrupted image restored")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("error not ErrCorrupt: %v", err)
			}
			p.Memory().MarkAllDirty() // re-arm for next subtest dump
		})
	}
}

func TestRestoreDetectsTruncation(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()
	p := newFillProc(t, 8, 10, 1)
	p.Suspend()
	if _, err := e.Dump(p, store, "img", DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	r, _ := store.Open("img")
	data, _ := io.ReadAll(r)
	w, _ := store.Create("img")
	w.Write(data[:len(data)/2])
	w.Close()
	if _, _, err := e.Restore(store, "img"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated image: %v", err)
	}
}

// TestRestoreReportsImageInfo: the ImageInfo Restore returns describes the
// image it read — identity, progress, records and the stored object's size.
func TestRestoreReportsImageInfo(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()
	p := newFillProc(t, 8, 10, 1)
	stepN(t, p, 4)
	p.Suspend()
	if _, err := e.Dump(p, store, "img", DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	_, info, err := e.Restore(store, "img")
	if err != nil {
		t.Fatal(err)
	}
	if info.ProcID != p.ID() || info.ProgramName != proc.FillProgramName {
		t.Errorf("info identity: %+v", info)
	}
	if info.Steps != 4 || info.DumpedPages != 8 {
		t.Errorf("info contents: %+v", info)
	}
	size, _ := store.Size("img")
	if info.StoredBytes != size {
		t.Errorf("StoredBytes = %d, store says %d", info.StoredBytes, size)
	}
}

func TestRemoveChain(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()
	p := newFillProc(t, 8, 100, 1)
	stepN(t, p, 2)
	p.Suspend()
	e.Dump(p, store, "r/0", DumpOpts{})
	p.ResumeInPlace()
	stepN(t, p, 2)
	p.Suspend()
	e.Dump(p, store, "r/1", DumpOpts{Incremental: true, Parent: "r/0"})
	if err := RemoveChain(store, "r/1"); err != nil {
		t.Fatal(err)
	}
	names, _ := store.List("")
	if len(names) != 0 {
		t.Errorf("images left after RemoveChain: %v", names)
	}
}

func TestRestoredProcessSupportsIncrementalNext(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()
	p := newFillProc(t, 16, 100, 1)
	stepN(t, p, 4)
	p.Suspend()
	e.Dump(p, store, "n/0", DumpOpts{})
	restored, _, err := e.Restore(store, "n/0")
	if err != nil {
		t.Fatal(err)
	}
	// Restore clears soft-dirty, so the next dump after a short run must be
	// small even though the process was just rebuilt from scratch.
	stepN(t, restored, 2)
	restored.Suspend()
	info, err := e.Dump(restored, store, "n/1", DumpOpts{Incremental: true, Parent: "n/0"})
	if err != nil {
		t.Fatal(err)
	}
	if info.DumpedPages > 4 {
		t.Errorf("post-restore incremental dumped %d pages, want <= 4", info.DumpedPages)
	}
	if _, _, err := e.Restore(store, "n/1"); err != nil {
		t.Errorf("restore of post-restore incremental failed: %v", err)
	}
}

func TestChainCycleDetected(t *testing.T) {
	// Hand-craft two images pointing at each other by dumping with forged
	// parents.
	e := newTestEngine(t)
	store := storage.NewMemStore()
	p := newFillProc(t, 4, 100, 1)
	p.Suspend()
	e.Dump(p, store, "a", DumpOpts{})
	p.Memory().MarkAllDirty()
	// Forge: write image "b" with parent "c" and "c" with parent "b".
	e.Dump(p, store, "b", DumpOpts{Incremental: true, Parent: "c"})
	p.Memory().MarkAllDirty()
	e.Dump(p, store, "c", DumpOpts{Incremental: true, Parent: "b"})
	if _, err := Chain(store, "b"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestLogicalScaling(t *testing.T) {
	// A process declaring 5 GB logical footprint over small real backing:
	// the dump must report 5 GB logical while storing only real bytes.
	reg := proc.NewRegistry()
	reg.Register(proc.FillProgramName, func() proc.Program { return proc.FillProgram{} })
	e := NewEngine(reg)
	store := storage.NewMemStore()
	const logical = int64(5) << 30
	p, err := proc.New("big", proc.FillProgram{}, 64*proc.PageSize, logical)
	if err != nil {
		t.Fatal(err)
	}
	proc.ConfigureFill(p, 100, 1)
	p.Suspend()
	info, err := e.Dump(p, store, "big/0", DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if info.LogicalBytes != logical || info.TotalLogicalBytes != logical {
		t.Errorf("logical bytes = %d, want %d", info.LogicalBytes, logical)
	}
	if info.StoredBytes > 70*proc.PageSize {
		t.Errorf("stored %d bytes, expected ~64 pages", info.StoredBytes)
	}
	restored, rinfo, err := e.Restore(store, "big/0")
	if err != nil {
		t.Fatal(err)
	}
	if restored.Memory().LogicalBytes() != logical {
		t.Error("restored process lost logical footprint")
	}
	if rinfo.TotalLogicalBytes != logical {
		t.Error("restore info lost logical footprint")
	}
}
