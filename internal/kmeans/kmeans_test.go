package kmeans

import (
	"math"
	"testing"

	"preemptsched/internal/checkpoint"
	"preemptsched/internal/proc"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

func TestRunValidation(t *testing.T) {
	pts := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	tests := []struct {
		name string
		pts  [][]float64
		cfg  Config
	}{
		{"zero k", pts, Config{K: 0, MaxIters: 5}},
		{"k over n", pts, Config{K: 4, MaxIters: 5}},
		{"zero iters", pts, Config{K: 2, MaxIters: 0}},
		{"ragged dims", [][]float64{{1, 2}, {3}}, Config{K: 1, MaxIters: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.pts, tt.cfg); err == nil {
				t.Error("invalid input accepted")
			}
		})
	}
}

func TestRunSeparatedBlobs(t *testing.T) {
	// Two obvious blobs around (0,0) and (100,100).
	var pts [][]float64
	for i := 0; i < 50; i++ {
		f := float64(i%10) * 0.1
		pts = append(pts, []float64{f, -f}, []float64{100 + f, 100 - f})
	}
	res, err := Run(pts, Config{K: 2, MaxIters: 50, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	// Each centroid should land near one blob center.
	near := func(c []float64, x, y float64) bool {
		return math.Abs(c[0]-x) < 2 && math.Abs(c[1]-y) < 2
	}
	a, b := res.Centroids[0], res.Centroids[1]
	if !(near(a, 0, 0) && near(b, 100, 100)) && !(near(a, 100, 100) && near(b, 0, 0)) {
		t.Errorf("centroids missed blobs: %v", res.Centroids)
	}
	// All points in the same blob share an assignment.
	for i := 2; i < len(pts); i += 2 {
		if res.Assignment[i] != res.Assignment[0] || res.Assignment[i+1] != res.Assignment[1] {
			t.Fatal("blob split across clusters")
		}
	}
	if res.Inertia <= 0 || res.Inertia > 100 {
		t.Errorf("inertia = %v", res.Inertia)
	}
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
	prev := Inertia(pts, centroids, assign)
	for i := 0; i < 10; i++ {
		Iterate(pts, centroids, assign)
		cur := Inertia(pts, centroids, assign)
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
	a := GeneratePoints(sim.NewRNG(5), 100, 3, 4)
	b := GeneratePoints(sim.NewRNG(5), 100, 3, 4)
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				t.Fatal("same seed, different dataset")
			}
		}
	}
	if len(a) != 100 || len(a[0]) != 3 {
		t.Errorf("shape %dx%d", len(a), len(a[0]))
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
// dataset from the same initial centroids,
// WHEN both advance one Lloyd iteration at a time,
// THEN after every iteration the centroids and the centroid movement in
// process memory are bit for bit (math.Float64bits) what Iterate computed:
// reading points through the word accessors into one backing array changes
// no operand and no order of arithmetic.
func TestProgramMatchesLibrary(t *testing.T) {
	const n, dims, k, iters, seed = 90, 3, 3, 5, 7
	p, err := NewProcess("km", n, dims, k, iters, seed)
	if err != nil {
		t.Fatal(err)
	}
	pts := GeneratePoints(sim.NewRNG(seed), n, dims, k)
	want := make([][]float64, k)
	for c := range want {
		want[c] = append([]float64(nil), pts[c]...)
	}
	assign := make([]int, n)
	for iter := 1; ; iter++ {
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

// GIVEN two k-means processes that differ only in the number of points,
// WHEN each runs one step,
// THEN both allocate the same number of objects: a step's buffers are a
// fixed handful of arrays, not one slice per point.
func TestStepAllocationsIndependentOfPoints(t *testing.T) {
	perStep := func(points int) float64 {
		p, err := NewProcess("km", points, 4, 5, 1000, 11)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := p.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := perStep(50), perStep(5000)
	if small != large {
		t.Errorf("a step over 50 points allocates %.0f objects, over 5000 points %.0f", small, large)
	}
	if large > 20 {
		t.Errorf("a step allocates %.0f objects", large)
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

func TestMemoryBytes(t *testing.T) {
	b := MemoryBytes(1000, 4, 8)
	want := int64(proc.PageSize) + (1000*4+8*4)*8 + proc.PageSize
	if b != want {
		t.Errorf("MemoryBytes = %d, want %d", b, want)
	}
}
