package proc

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// Contracts of the address-space list (memory.go) and of Process.Release,
// each beside the test that holds it; DESIGN §16.6 has the owner table. CI
// runs the Release/Recycl/Space tests five more times under -race.

// drainSpaces empties the list, so the next GetSpace makes a fresh array.
func drainSpaces() {
	spaces.Lock()
	defer spaces.Unlock()
	spaces.free = nil
}

// dirtySpace lists an array of pages pages full of 0xA5, as a previous
// owner might have left it, and returns it.
func dirtySpace(pages int) []byte {
	b := GetSpace(pages)
	for i := range b {
		b[i] = 0xA5
	}
	PutSpace(b)
	return b
}

// sameArray reports whether a and b start at the same byte.
func sameArray(a, b []byte) bool { return &a[0] == &b[0] }

func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), want) {
			t.Errorf("%s: recovered %v, want a panic naming %q", what, r, want)
		}
	}()
	f()
}

// GIVEN a fill process built on a fresh array, and an array of the same size
// its last owner left full of 0xA5 on the list,
// WHEN a second fill process of the same shape is created,
// THEN it is built on that array, every page is soft-dirty, its bytes are the
// fresh process's — page 0 zero past the 16 header bytes Init wrote — and the
// two compute the same checksum to the end.
func TestRecycledSpaceReadsAsFresh(t *testing.T) {
	const pages = 9
	drainSpaces()
	newFill := func() *Process {
		p, err := New("p", FillProgram{}, pages*PageSize, pages*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		ConfigureFill(p, 25, 2)
		return p
	}
	fresh := newFill()
	dirty := dirtySpace(pages)
	recycled := newFill()
	if !sameArray(recycled.Memory().Page(0), dirty) {
		t.Fatal("the second process is not built on the listed array")
	}
	if got := recycled.Memory().DirtyCount(); got != pages {
		t.Errorf("%d of %d pages soft-dirty", got, pages)
	}
	if hdr := recycled.Memory().Page(0)[16:]; !bytes.Equal(hdr, make([]byte, len(hdr))) {
		t.Error("page 0 is not zero past what Init wrote")
	}
	for i := 0; i < pages; i++ {
		if !bytes.Equal(recycled.Memory().Page(i), fresh.Memory().Page(i)) {
			t.Fatalf("page %d differs from the fresh process's", i)
		}
	}
	sums := [2]uint64{}
	for i, p := range []*Process{fresh, recycled} {
		for done := false; !done; {
			var err error
			if done, err = p.Step(); err != nil {
				t.Fatal(err)
			}
		}
		sums[i], _ = FillChecksum(p)
	}
	if sums[0] != sums[1] {
		t.Errorf("checksum %x on the recycled array, %x on the fresh one", sums[1], sums[0])
	}
}

// GIVEN processes in every lifecycle state,
// WHEN they are released,
// THEN a Created or Running one panics and keeps its pages; a Suspended,
// Exited or Killed one gives its array to the list, after which its Memory
// is empty, Step and ResumeInPlace fail, and a second Release is a no-op.
func TestReleaseContract(t *testing.T) {
	drainSpaces()
	_, err := NewWithSetup("created", FillProgram{}, 2*PageSize, 2*PageSize, func(p *Process) {
		mustPanic(t, "Release of a created process", "release of created", p.Release)
	})
	if err != nil {
		t.Fatal(err)
	}
	running, _ := New("running", FillProgram{}, 2*PageSize, 2*PageSize)
	mustPanic(t, "Release of a running process", "release of running", running.Release)
	if running.Memory().NumPages() != 2 {
		t.Error("a refused Release took the pages")
	}

	suspended, _ := New("suspended", FillProgram{}, 2*PageSize, 2*PageSize)
	if err := suspended.Suspend(); err != nil {
		t.Fatal(err)
	}
	exited, _ := New("exited", FillProgram{}, 2*PageSize, 2*PageSize)
	if _, err := exited.Step(); err != nil || exited.State() != Exited {
		t.Fatalf("step: %v, state %v", err, exited.State())
	}
	killed, _ := New("killed", FillProgram{}, 2*PageSize, 2*PageSize)
	killed.Kill()
	for _, p := range []*Process{suspended, exited, killed} {
		page0 := p.Memory().Page(0)
		p.Release()
		p.Release()
		if m := p.Memory(); m.NumPages() != 0 || m.RealBytes() != 0 || m.ReadAt(make([]byte, 1), 0) == nil {
			t.Errorf("%s: released memory still has %d pages", p.ID(), m.NumPages())
		}
		if _, err := p.Step(); err == nil {
			t.Errorf("%s: Step after Release succeeded", p.ID())
		}
		if err := p.ResumeInPlace(); err == nil {
			t.Errorf("%s: ResumeInPlace after Release succeeded", p.ID())
		}
		if b := GetSpace(2); !sameArray(b, page0) {
			t.Errorf("%s: the released array is not the one the list hands out next", p.ID())
		}
	}
}

// GIVEN the address-space list,
// WHEN more arrays than it holds are given back, and one larger than it
// keeps,
// THEN it holds maxSpaces arrays, the newest, and the large one is dropped.
func TestSpaceListBounds(t *testing.T) {
	drainSpaces()
	var given [][]byte
	for i := 0; i < maxSpaces+10; i++ {
		b := make([]byte, PageSize)
		given = append(given, b)
		PutSpace(b)
	}
	PutSpace(make([]byte, maxSpaceBytes+PageSize))
	spaces.Lock()
	listed := append([][]byte(nil), spaces.free...)
	spaces.Unlock()
	if len(listed) != maxSpaces {
		t.Fatalf("%d arrays listed, bound is %d", len(listed), maxSpaces)
	}
	for i, b := range listed {
		if !sameArray(b, given[10+i]) {
			t.Fatalf("listed array %d is not the %d-th given back", i, 10+i)
		}
	}
	drainSpaces()
}

// GIVEN eight goroutines sharing the list, each making, filling and
// releasing processes of two sizes in a loop,
// WHEN they run at once,
// THEN every memory drawn reads all-zero, and what its owner wrote is still
// there when the process is released: no array has two owners at once.
func TestSpaceListConcurrentOwners(t *testing.T) {
	drainSpaces()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				size := int64(2+i%2) * PageSize
				m, err := NewMemory(size, size)
				if err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, size)
				if err := m.ReadAt(got, 0); err != nil || !bytes.Equal(got, make([]byte, size)) {
					t.Errorf("goroutine %d: memory %d is not zero", g, i)
					return
				}
				mark := bytes.Repeat([]byte{byte(g + 1)}, int(size))
				if err := m.WriteAt(mark, 0); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
				if err := m.ReadAt(got, 0); err != nil || !bytes.Equal(got, mark) {
					t.Errorf("goroutine %d: memory %d was written by another owner", g, i)
					return
				}
				p := Rebuild("p", FillProgram{}, m, Registers{}, 0)
				p.Kill()
				p.Release()
			}
		}(g)
	}
	wg.Wait()
	drainSpaces()
}

// One struct and one dirty map per memory, and the array only on a miss.
func TestNewMemoryOnRecycledSpaceAllocates(t *testing.T) {
	const pages = maxSpaceBytes / PageSize
	allocs := testing.AllocsPerRun(10, func() {
		m, err := NewMemory(pages*PageSize, pages*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		PutSpace(m.data)
	})
	if allocs > 2 {
		t.Errorf("NewMemory of %d listed pages makes %.0f allocations, want at most 2", pages, allocs)
	}
}
