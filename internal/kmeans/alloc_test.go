//go:build !race

package kmeans

import (
	"reflect"
	"testing"

	"preemptsched/internal/proc"
	"preemptsched/internal/sim"
)

// The allocation pins live behind !race: the scratch is a sync.Pool, and
// under the race detector a pool drops a share of what is put into it by
// design, so a warm step would allocate at random.

func stepAllocs(t *testing.T, procs ...*proc.Process) float64 {
	t.Helper()
	step := func() {
		for _, p := range procs {
			if _, err := p.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	step() // warm: the pooled scratch grows to the largest shape once
	return testing.AllocsPerRun(50, step)
}

// GIVEN a k-means process whose first step has run, and a library run
// whose first Iterate has,
// WHEN it runs its first step again from a fresh Init — at the default
// task shape and at service-stream's — steps on alternating a large shape
// with a small one, and steps once its centroids have stopped moving, and
// the library iterates again at the default shape,
// THEN neither allocates: points are decoded or copied a chunk at a time
// into pooled scratch, the kernel's sums and counts live there too, and a
// converged step reads its centroids into the same scratch.
func TestWarmStepAllocatesNothing(t *testing.T) {
	for _, shape := range [][3]int{{240, 4, 4}, {8, 2, 2}} {
		p := mustProcess(t, shape[0], shape[1], shape[2])
		first := func() {
			if err := (Program{}).Init(p); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Step(); err != nil {
				t.Fatal(err)
			}
		}
		first() // warm
		if allocs := testing.AllocsPerRun(50, first); allocs != 0 {
			t.Errorf("a warm Init and first step at %v allocate %.0f objects", shape, allocs)
		}
	}
	if allocs := stepAllocs(t, convergedProcess(t)); allocs != 0 {
		t.Errorf("a converged step at 240/4/4 allocates %.0f objects", allocs)
	}
	if allocs := stepAllocs(t, mustProcess(t, 5000, 8, 16), mustProcess(t, 8, 2, 2)); allocs != 0 {
		t.Errorf("alternating a large and a small shape allocates %.0f objects per pair of steps", allocs)
	}
	pts := GeneratePoints(sim.NewStream(11), 240, 4, 4)
	centroids, assign := firstPoints(pts, 4), make([]int, len(pts))
	iterate := func() { Iterate(pts, centroids, assign) }
	iterate() // warm
	if allocs := testing.AllocsPerRun(50, iterate); allocs != 0 {
		t.Errorf("a warm Iterate at 240/4/4 allocates %.0f objects", allocs)
	}
}

// GIVEN two k-means processes that differ only in the number of points,
// WHEN each runs one step,
// THEN both allocate the same number of objects — none.
func TestStepAllocationsIndependentOfPoints(t *testing.T) {
	small, large := stepAllocs(t, mustProcess(t, 50, 4, 5)), stepAllocs(t, mustProcess(t, 5000, 4, 5))
	if small != large || large != 0 {
		t.Errorf("a step over 50 points allocates %.0f objects, over 5000 points %.0f", small, large)
	}
}

// GIVEN a warm scratch pool,
// WHEN processes of 50 and of 5000 points are created,
// THEN both cost the same handful of objects (process, address space, its
// backing array and dirty map): the dataset is drawn a chunk at a time
// straight into process memory, not into one slice per point, from the
// stream the pooled scratch keeps.
func TestNewProcessAllocationsIndependentOfPoints(t *testing.T) {
	create := func(points int) float64 {
		mustProcess(t, points, 4, 5)
		return testing.AllocsPerRun(20, func() { mustProcess(t, points, 4, 5) })
	}
	small, large := create(50), create(5000)
	if small != large || large > 6 {
		t.Errorf("creating a process of 50 points allocates %.0f objects, of 5000 points %.0f", small, large)
	}
}

// GIVEN k-means processes of the default and of service-stream's shape,
// WHEN each is initialised again once the scratch pool is warm,
// THEN Init allocates nothing — the dataset stream is the pooled scratch's,
// Restarted at the process's seed, not a new RNG and math/rand wrapper per
// task — and the re-drawn dataset steps to the same centroids as before.
func TestWarmInitAllocatesNothing(t *testing.T) {
	for _, shape := range [][3]int{{240, 4, 4}, {8, 2, 2}} {
		p := mustProcess(t, shape[0], shape[1], shape[2])
		if _, err := p.Step(); err != nil {
			t.Fatal(err)
		}
		want, err := Centroids(p)
		if err != nil {
			t.Fatal(err)
		}
		init := func() {
			if err := (Program{}).Init(p); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(50, init); allocs != 0 {
			t.Errorf("a warm Init at %v allocates %.0f objects", shape, allocs)
		}
		if _, err := p.Step(); err != nil {
			t.Fatal(err)
		}
		got, err := Centroids(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("at %v a re-initialised process steps to %v, the first Init's to %v", shape, got, want)
		}
	}
}
