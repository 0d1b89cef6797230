package mapreduce

import (
	"math"
	"strings"
	"testing"

	"preemptsched/internal/checkpoint"
	"preemptsched/internal/proc"
	"preemptsched/internal/storage"
)

func runToEnd(t *testing.T, p *proc.Process) (steps int) {
	t.Helper()
	for {
		done, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			return steps
		}
	}
}

func TestWordCountRunsAndCounts(t *testing.T) {
	p, err := NewProcess("wc", 8000, 512, 42)
	if err != nil {
		t.Fatal(err)
	}
	steps := runToEnd(t, p)
	if want := TotalSteps(8000, 512); uint64(steps) != want {
		t.Errorf("steps = %d, TotalSteps predicts %d", steps, want)
	}
	words, err := p.Memory().ReadU64(hdrWords)
	if err != nil {
		t.Fatal(err)
	}
	// Mean word length ~5.6 incl. separator: expect on the order of
	// 8000/6.5 words.
	if words < 800 || words > 2500 {
		t.Errorf("words = %d, implausible for 8000 bytes", words)
	}
	digest, err := Digest(p)
	if err != nil || digest == 0 {
		t.Errorf("digest = %x, %v", digest, err)
	}
	phase, _ := Phase(p)
	if phase != phaseDone {
		t.Errorf("phase = %d", phase)
	}
	if p.State() != proc.Exited {
		t.Errorf("state = %v", p.State())
	}
}

func TestWordCountDeterministic(t *testing.T) {
	run := func() uint64 {
		p, err := NewProcess("wc", 4096, 300, 7)
		if err != nil {
			t.Fatal(err)
		}
		runToEnd(t, p)
		d, _ := Digest(p)
		return d
	}
	if a, b := run(), run(); a != b {
		t.Errorf("digests differ: %x vs %x", a, b)
	}
	// Different seed, different corpus, different digest.
	p, _ := NewProcess("wc", 4096, 300, 8)
	runToEnd(t, p)
	d, _ := Digest(p)
	if d == run() {
		t.Error("different seeds produced identical digests")
	}
}

func TestWordCountCheckpointTransparency(t *testing.T) {
	const input, chunk, seed = 6000, 400, 3
	ref, err := NewProcess("wc", input, chunk, seed)
	if err != nil {
		t.Fatal(err)
	}
	runToEnd(t, ref)
	want, _ := Digest(ref)

	reg := proc.NewRegistry()
	RegisterWith(reg)
	eng := checkpoint.NewEngine(reg)
	store := storage.NewMemStore()

	p, err := NewProcess("wc", input, chunk, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint mid-map, restore, checkpoint mid-reduce incrementally,
	// restore again, finish.
	for i := 0; i < 5; i++ {
		p.Step()
	}
	p.Suspend()
	if _, err := eng.Dump(p, store, "wc/0", checkpoint.DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	p, _, err = eng.Restore(store, "wc/0")
	if err != nil {
		t.Fatal(err)
	}
	for {
		ph, _ := Phase(p)
		if ph == phaseReduce {
			break
		}
		if _, err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	p.Suspend()
	if _, err := eng.Dump(p, store, "wc/1", checkpoint.DumpOpts{Incremental: true, Parent: "wc/0"}); err != nil {
		t.Fatal(err)
	}
	p, _, err = eng.Restore(store, "wc/1")
	if err != nil {
		t.Fatal(err)
	}
	runToEnd(t, p)
	got, _ := Digest(p)
	if got != want {
		t.Errorf("digest after two checkpoint cycles %x != uninterrupted %x", got, want)
	}
}

func TestWordCountMapIsWriteHeavyReduceReadHeavy(t *testing.T) {
	p, err := NewProcess("wc", 8000, 500, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Map steps dirty table pages.
	p.Memory().ClearSoftDirty()
	p.Step()
	mapDirty := p.Memory().DirtyCount()
	if mapDirty == 0 {
		t.Fatal("map step dirtied nothing")
	}
	// Finish map, then measure a reduce step: only the header changes.
	for {
		ph, _ := Phase(p)
		if ph == phaseReduce {
			break
		}
		p.Step()
	}
	p.Memory().ClearSoftDirty()
	p.Step()
	reduceDirty := p.Memory().DirtyCount()
	if reduceDirty != 1 {
		t.Errorf("reduce step dirtied %d pages, want 1 (header)", reduceDirty)
	}
}

func TestWordCountValidation(t *testing.T) {
	if _, err := NewProcess("wc", 0, 10, 1); err == nil {
		t.Error("zero input accepted")
	}
	if _, err := NewProcess("wc", 100, 0, 1); err == nil {
		t.Error("zero chunk accepted")
	}
}

func TestTotalStepsAndBuckets(t *testing.T) {
	if b := Buckets(8000); b != 1024 {
		t.Errorf("Buckets(8000) = %d, want 1024", b)
	}
	if s := TotalSteps(8000, 512); s != 16+2 {
		t.Errorf("TotalSteps = %d, want 18", s)
	}
	if b := Buckets(1 << 30); b != 1<<16 {
		t.Errorf("bucket cap broken: %d", b)
	}
}

func TestWordCountLogicalScaling(t *testing.T) {
	p, err := NewProcessScaled("wc", 4000, 400, 1, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if p.Memory().LogicalBytes() != 1<<30 {
		t.Errorf("logical = %d", p.Memory().LogicalBytes())
	}
	runToEnd(t, p)
}

// GIVEN registers whose inputOff+inputLen (or the bucket table on top of
// it) wraps int64, as a corrupt checkpoint image can supply,
// WHEN a process is initialised from them, or rebuilt around them and
// stepped,
// THEN layout answers "mapreduce: needs …" instead of sizing a buffer from
// the hostile length — and a job that fills the memory to its last bucket
// is still accepted.
func TestLayoutRejectsOverflowingShapes(t *testing.T) {
	const real = 3 * proc.PageSize
	hostile := [][2]uint64{ // input bytes (also the chunk), buckets
		{math.MaxInt64 - 100, 16},         // inputOff+inputLen wraps
		{math.MaxInt64, 1},                // likewise, by more
		{100, 1 << 60},                    // buckets·16 wraps to 0
		{proc.PageSize, 1 << 62},          // buckets·16 wraps to 0 twice over
		{2*proc.PageSize - 64*16 + 1, 64}, // one byte too many, no wrap
	}
	for _, h := range hostile {
		configure := func(p *proc.Process) { Configure(p, h[0], h[0], 1, h[1]) }
		_, err := proc.NewWithSetup("wc", Program{}, real, real, configure)
		if err == nil || !strings.Contains(err.Error(), "mapreduce: needs") {
			t.Errorf("Init with input=%d buckets=%d: %v", h[0], h[1], err)
		}

		mem, err := proc.NewMemory(real, real)
		if err != nil {
			t.Fatal(err)
		}
		p := proc.Rebuild("wc", Program{}, mem, proc.Registers{}, 0)
		configure(p)
		if _, err := p.Step(); err == nil || !strings.Contains(err.Error(), "mapreduce: needs") {
			t.Errorf("Step with input=%d buckets=%d: %v", h[0], h[1], err)
		}
	}
	fits := func(p *proc.Process) { Configure(p, 2*proc.PageSize-64*16, 1024, 1, 64) }
	p, err := proc.NewWithSetup("wc", Program{}, real, real, fits)
	if err != nil {
		t.Fatalf("a job that exactly fills the memory: %v", err)
	}
	runToEnd(t, p)
}
