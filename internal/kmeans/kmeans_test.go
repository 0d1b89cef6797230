package kmeans

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"preemptsched/internal/checkpoint"
	"preemptsched/internal/proc"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// GIVEN two obvious blobs around (0,0) and (100,100),
// WHEN Iterate runs from the first two points until no centroid moves,
// THEN each centroid lands near one blob centre and each blob is one
// cluster.
func TestRunSeparatedBlobs(t *testing.T) {
	var pts [][]float64
	for i := 0; i < 50; i++ {
		f := float64(i%10) * 0.1
		pts = append(pts, []float64{f, -f}, []float64{100 + f, 100 - f})
	}
	centroids, assign := firstPoints(pts, 2), make([]int, len(pts))
	for iter := 0; iter < 50 && Iterate(pts, centroids, assign) > 0; iter++ {
	}
	near := func(c []float64, x, y float64) bool {
		return math.Abs(c[0]-x) < 2 && math.Abs(c[1]-y) < 2
	}
	a, b := centroids[0], centroids[1]
	if !(near(a, 0, 0) && near(b, 100, 100)) && !(near(a, 100, 100) && near(b, 0, 0)) {
		t.Errorf("centroids missed blobs: %v", centroids)
	}
	for i := 2; i < len(pts); i += 2 {
		if assign[i] != assign[0] || assign[i+1] != assign[1] {
			t.Fatal("blob split across clusters")
		}
	}
	if in := inertia(pts, centroids, assign); in <= 0 || in > 100 {
		t.Errorf("inertia = %v", in)
	}
}

// inertia is the total within-cluster sum of squared distances.
func inertia(points, centroids [][]float64, assign []int) float64 {
	var s float64
	for i, p := range points {
		s += SquaredDistance(p, centroids[assign[i]])
	}
	return s
}

// lloydCentroids runs iters Iterate calls on pts from its first k points:
// the library's answer a program started on the same dataset must hold.
func lloydCentroids(pts [][]float64, k, iters int) [][]float64 {
	centroids, assign := firstPoints(pts, k), make([]int, len(pts))
	for range iters {
		Iterate(pts, centroids, assign)
	}
	return centroids
}

func TestIterateDecreasesInertia(t *testing.T) {
	rng := sim.NewRNG(11)
	pts := GeneratePoints(rng, 300, 4, 3)
	centroids := [][]float64{
		append([]float64(nil), pts[0]...),
		append([]float64(nil), pts[1]...),
		append([]float64(nil), pts[2]...),
	}
	assign := make([]int, len(pts))
	Iterate(pts, centroids, assign)
	prev := inertia(pts, centroids, assign)
	for i := 0; i < 10; i++ {
		Iterate(pts, centroids, assign)
		cur := inertia(pts, centroids, assign)
		if cur > prev+1e-9 {
			t.Fatalf("inertia increased at iter %d: %v -> %v", i, prev, cur)
		}
		prev = cur
	}
}

func TestEmptyClusterKeepsCentroid(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 0}, {0, 1}}
	centroids := [][]float64{{0.3, 0.3}, {1000, 1000}}
	assign := make([]int, 3)
	Iterate(pts, centroids, assign)
	if centroids[1][0] != 1000 || centroids[1][1] != 1000 {
		t.Errorf("empty cluster's centroid moved: %v", centroids[1])
	}
}

func TestGeneratePointsDeterministic(t *testing.T) {
	same := func(a, b [][]float64) bool {
		for i := range a {
			for d := range a[i] {
				if a[i][d] != b[i][d] {
					return false
				}
			}
		}
		return true
	}
	// Either kind of source gives one dataset per seed; the two kinds are
	// different sequences, so they give different datasets.
	a, b := GeneratePoints(sim.NewRNG(5), 100, 3, 4), GeneratePoints(sim.NewRNG(5), 100, 3, 4)
	sa, sb := GeneratePoints(sim.NewStream(5), 100, 3, 4), GeneratePoints(sim.NewStream(5), 100, 3, 4)
	if !same(a, b) || !same(sa, sb) {
		t.Fatal("same seed, different dataset")
	}
	if same(a, sa) {
		t.Error("NewRNG and NewStream drew the same dataset")
	}
	if len(a) != 100 || len(a[0]) != 3 || len(sa) != 100 || len(sa[0]) != 3 {
		t.Errorf("shape %dx%d, %dx%d", len(a), len(a[0]), len(sa), len(sa[0]))
	}
	// Rows are views of one array; growing one must not write into the next.
	next := a[1][0]
	if _ = append(a[0], -1); a[1][0] != next {
		t.Error("append on a row overwrote the next row")
	}
}

func TestProgramRunsToCompletion(t *testing.T) {
	p, err := NewProcess("km", 120, 2, 3, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		done, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
	}
	if steps != 8 {
		t.Errorf("steps = %d, want 8", steps)
	}
	iters, _ := Iterations(p)
	if iters != 8 {
		t.Errorf("iterations in memory = %d", iters)
	}
	cents, err := Centroids(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cents) != 3 || len(cents[0]) != 2 {
		t.Errorf("centroid shape %dx%d", len(cents), len(cents[0]))
	}
}

// GIVEN a k-means process and the library run on the same generated
// dataset from the same initial centroids — 90 points of 3 dims at k = 3,
// and 1000 points of 4 dims at k = 4 and k = 6, which the program reads in
// three whole row chunks and a partial one,
// WHEN both advance one Lloyd iteration at a time,
// THEN after every iteration the centroids and the centroid movement in
// process memory are bit for bit (math.Float64bits) what Iterate computed:
// reading points through the word accessors into one backing array, a
// chunk at a time, changes no operand and no order of arithmetic.
func TestProgramMatchesLibrary(t *testing.T) {
	for _, sh := range libraryShapes {
		t.Run(fmt.Sprintf("%d/%d/%d", sh.n, sh.dims, sh.k), func(t *testing.T) {
			requireProgramMatchesLibrary(t, sh.n, sh.dims, sh.k, 5, sh.seed)
		})
	}
}

// libraryShapes are the shapes the program is held to the library at.
// 1000 points at 4 dims cross three row-chunk boundaries (256+256+256+232).
var libraryShapes = []struct {
	n, dims, k int
	seed       int64
}{{90, 3, 3, 7}, {1000, 4, 4, 8}, {1000, 4, 6, 9}}

// GIVEN the shapes of TestProgramMatchesLibrary run at once, twice each on
// parallel subtests, so the pooled scratch — the row chunk addRows scores,
// its sums and counts — passes between goroutines mid-run,
// WHEN each process and its library copy advance 40 iterations,
// THEN each still matches the library bit for bit after every iteration.
func TestParallelRowsMatchLibrary(t *testing.T) {
	for i := range 2 * len(libraryShapes) {
		sh := libraryShapes[i%len(libraryShapes)]
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			t.Parallel()
			requireProgramMatchesLibrary(t, sh.n, sh.dims, sh.k, 40, sh.seed+int64(i))
		})
	}
}

// firstPoints copies the first k points: the initial centroids the library
// form and the program start from.
func firstPoints(pts [][]float64, k int) [][]float64 {
	out := make([][]float64, k)
	for c := range out {
		out[c] = append([]float64(nil), pts[c]...)
	}
	return out
}

func requireProgramMatchesLibrary(t *testing.T, n, dims, k int, iters uint64, seed int64) {
	t.Helper()
	p, err := NewProcess("km", n, dims, k, iters, seed)
	if err != nil {
		t.Fatal(err)
	}
	pts := GeneratePoints(sim.NewStream(seed), n, dims, k)
	want, assign := firstPoints(pts, k), make([]int, n)
	for iter := uint64(1); ; iter++ {
		done, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		wantMoved := Iterate(pts, want, assign)
		got, err := Centroids(p)
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			for d := range want[c] {
				if math.Float64bits(got[c][d]) != math.Float64bits(want[c][d]) {
					t.Fatalf("iteration %d: centroid[%d][%d] = %v, library says %v", iter, c, d, got[c][d], want[c][d])
				}
			}
		}
		if moved, err := LastMovement(p); err != nil || math.Float64bits(moved) != math.Float64bits(wantMoved) {
			t.Fatalf("iteration %d: movement %v (%v), library says %v", iter, moved, err, wantMoved)
		}
		if done {
			if iter != iters {
				t.Fatalf("done after %d iterations, want %d", iter, iters)
			}
			break
		}
	}
}

// GIVEN a large and a small k-means process stepped alternately on one
// goroutine, so each step finds the pooled scratch as the other shape left
// it — longer than it needs after the large one, full of the large one's
// centroids, sums and points,
// WHEN both run to completion,
// THEN each holds, bit for bit, the centroids Iterate computes from the
// same dataset: nothing in the scratch is read before it is written.
func TestStaleScratchIsNeverObserved(t *testing.T) {
	const iters = 6
	shapes := []struct {
		n, dims, k int
		seed       int64
	}{{500, 6, 7, 31}, {8, 2, 2, 32}, {240, 4, 4, 33}, {9, 1, 3, 34}, {40, 300, 2, 35}, {5, 1500, 2, 36}}
	procs := make([]*proc.Process, len(shapes))
	for i, sh := range shapes {
		p, err := NewProcess("km", sh.n, sh.dims, sh.k, iters, sh.seed)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	for iter := 0; iter < iters; iter++ {
		for _, p := range procs {
			if _, err := p.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, sh := range shapes {
		want := lloydCentroids(GeneratePoints(sim.NewStream(sh.seed), sh.n, sh.dims, sh.k), sh.k, iters)
		got, err := Centroids(procs[i])
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			for d := range want[c] {
				if math.Float64bits(got[c][d]) != math.Float64bits(want[c][d]) {
					t.Fatalf("shape %+v: centroid[%d][%d] = %v, Iterate says %v", sh, c, d, got[c][d], want[c][d])
				}
			}
		}
	}
}

// GIVEN four goroutines each creating k-means processes of mixed shapes and
// seeds at once, so the pooled scratch — and the stream Init draws each
// dataset from — passes between them through the sync.Pool,
// WHEN every process has run three steps,
// THEN each holds, bit for bit, the centroids Iterate computes from
// GeneratePoints on a NewStream of its own seed: no Init saw another's
// stream state.
func TestConcurrentInitDrawsEachDatasetFromItsOwnSeed(t *testing.T) {
	const iters, workers, perWorker = 3, 4, 12
	shapes := [][3]int{{240, 4, 4}, {8, 2, 2}, {500, 6, 7}, {9, 1, 3}}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWorker {
				sh, seed := shapes[(w+i)%len(shapes)], int64(1000*w+i)
				p, err := NewProcess("km", sh[0], sh[1], sh[2], iters, seed)
				if err != nil {
					errs[w] = err
					return
				}
				for range iters {
					if _, err := p.Step(); err != nil {
						errs[w] = err
						return
					}
				}
				want := lloydCentroids(GeneratePoints(sim.NewStream(seed), sh[0], sh[1], sh[2]), sh[2], iters)
				got, err := Centroids(p)
				if err != nil {
					errs[w] = err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs[w] = fmt.Errorf("shape %v seed %d: centroids %v, Iterate says %v", sh, seed, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// GIVEN a k-means process at yarn-batch's task shape (240 points, 4 dims,
// k = 4) and a fixed seed,
// WHEN it runs its 10 steps,
// THEN its centroids are, bit for bit, the literals below: the program's
// output is pinned across commits, not only against the library in the
// same binary. Regenerate them only for a change meant to alter it.
func TestProgramCentroidsPinned(t *testing.T) {
	want := [4][4]uint64{
		{0xc047a80e31691551, 0x40447bb4cd9216e2, 0x4006793c7d7f8033, 0x402e96d8978d6c29},
		{0xc044531a906582ce, 0xc011d7e9f7a64ea6, 0x4041461693dff529, 0xc044a2dc18c9c5bb},
		{0xc02d8a37b23dcadb, 0x40338933c47d6f2d, 0x403a24cc8c5658e6, 0x40119857f7407ff5},
		{0x402ff1027f8792dd, 0x401ed1724a2545e4, 0xc033a75b520b4f75, 0xbfe5f93bf6886afb},
	}
	p, err := NewProcess("km", 240, 4, 4, 10, 21)
	if err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		if done, err = p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Centroids(p)
	if err != nil {
		t.Fatal(err)
	}
	for c := range want {
		for d := range want[c] {
			if bits := math.Float64bits(got[c][d]); bits != want[c][d] {
				t.Errorf("centroid[%d][%d] = %#016x (%v), pinned %#016x", c, d, bits, got[c][d], want[c][d])
			}
		}
	}
}

func TestProgramCheckpointTransparency(t *testing.T) {
	const n, dims, k, iters, seed = 100, 2, 4, 10, 3
	ref, err := NewProcess("km", n, dims, k, iters, seed)
	if err != nil {
		t.Fatal(err)
	}
	for {
		done, _ := ref.Step()
		if done {
			break
		}
	}
	want, _ := Centroids(ref)

	p, err := NewProcess("km", n, dims, k, iters, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p.Step()
	}
	reg := proc.NewRegistry()
	RegisterWith(reg)
	eng := checkpoint.NewEngine(reg)
	store := storage.NewMemStore()
	p.Suspend()
	if _, err := eng.Dump(p, store, "km/0", checkpoint.DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	restored, _, err := eng.Restore(store, "km/0")
	if err != nil {
		t.Fatal(err)
	}
	for {
		done, err := restored.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	got, _ := Centroids(restored)
	for c := range want {
		for d := range want[c] {
			if got[c][d] != want[c][d] {
				t.Fatalf("restored centroid[%d][%d] = %v, uninterrupted %v", c, d, got[c][d], want[c][d])
			}
		}
	}
}

func TestProgramIncrementalDumpIsReadDominant(t *testing.T) {
	// After the first dump, only the header and centroid pages are dirtied
	// per iteration; the points region dominates memory and stays clean.
	p, err := NewProcess("km", 5000, 4, 4, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	p.Memory().ClearSoftDirty()
	p.Step()
	dirty := p.Memory().DirtyCount()
	total := p.Memory().NumPages()
	if dirty*10 > total {
		t.Errorf("dirty %d of %d pages; k-means should be read-dominant", dirty, total)
	}
}

func TestProgramBadConfiguration(t *testing.T) {
	if _, err := NewProcess("km", 0, 2, 2, 5, 1); err == nil {
		t.Error("zero points accepted")
	}
	if _, err := NewProcess("km", 10, 2, 20, 5, 1); err == nil {
		t.Error("k > n accepted")
	}
}

// GIVEN registers whose n·dims or k·dims product wraps int64 (or whose sum
// does), as a corrupt checkpoint image or a careless caller can supply,
// WHEN a process is initialised from them, or rebuilt around them and
// stepped,
// THEN layout answers "kmeans: needs …" instead of sizing a buffer from the
// wrapped product — and a configuration that fills the memory to its last
// word is still accepted.
func TestLayoutRejectsOverflowingShapes(t *testing.T) {
	const real = 3 * proc.PageSize // 1024 float64s after the header page
	hostile := [][3]uint64{
		{1 << 62, 4, 1},                   // n·dims wraps to 0
		{3, 1 << 62, 1},                   // n·dims wraps negative
		{1 << 61, 8, 1 << 61},             // both products wrap to 0
		{1 << 60, 2, 1},                   // n·dims·8 wraps to 0
		{math.MaxInt64, 1, math.MaxInt64}, // n+k wraps
		{1021, 1, 4},                      // one word too many, no wrap
	}
	for _, h := range hostile {
		configure := func(p *proc.Process) { Configure(p, h[0], h[1], h[2], 5, 1) }
		_, err := proc.NewWithSetup("km", Program{}, real, real, configure)
		if err == nil || !strings.Contains(err.Error(), "kmeans: needs") {
			t.Errorf("Init with n=%d dims=%d k=%d: %v", h[0], h[1], h[2], err)
		}

		mem, err := proc.NewMemory(real, real)
		if err != nil {
			t.Fatal(err)
		}
		p := proc.Rebuild("km", Program{}, mem, proc.Registers{}, 0)
		configure(p)
		if _, err := p.Step(); err == nil || !strings.Contains(err.Error(), "kmeans: needs") {
			t.Errorf("Step with n=%d dims=%d k=%d: %v", h[0], h[1], h[2], err)
		}
	}
	p, err := proc.NewWithSetup("km", Program{}, real, real, func(p *proc.Process) { Configure(p, 1020, 1, 4, 1, 1) })
	if err != nil {
		t.Fatalf("a shape that exactly fills the memory: %v", err)
	}
	if done, err := p.Step(); err != nil || !done {
		t.Fatalf("step over a full memory: done=%v err=%v", done, err)
	}
}

func TestMemoryBytes(t *testing.T) {
	b := MemoryBytes(1000, 4, 8)
	want := int64(proc.PageSize) + (1000*4+8*4)*8 + proc.PageSize
	if b != want {
		t.Errorf("MemoryBytes = %d, want %d", b, want)
	}
}
