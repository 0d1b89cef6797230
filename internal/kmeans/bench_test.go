package kmeans

import (
	"fmt"
	"testing"

	"preemptsched/internal/proc"
	"preemptsched/internal/sim"
)

// BenchmarkProgramStep measures one warm step of a k-means process. first
// is the first Lloyd iteration, from Init's centroids and counter, which
// each b.N restores (k·dims values and one word, beside the n·dims the
// step reads): at yarn-batch's task shape (240 points, 4 dims, k = 4),
// where the kernel scores four centroids per pass, and at
// service-stream's (8/2/2), where it scores one centroid at a time.
// converged is a yarn-batch-shaped step once the centroids have stopped
// moving, the step that keeps its fixed point.
func BenchmarkProgramStep(b *testing.B) {
	for _, sh := range [][3]int{{240, 4, 4}, {8, 2, 2}} {
		b.Run(fmt.Sprintf("first/%d/%d/%d", sh[0], sh[1], sh[2]), func(b *testing.B) {
			p := mustProcess(b, sh[0], sh[1], sh[2])
			m := p.Memory()
			_, _, _, centroidsOff, err := layout(p)
			if err != nil {
				b.Fatal(err)
			}
			initial := make([]float64, sh[1]*sh[2])
			if err := m.ReadF64s(initial, centroidsOff); err != nil {
				b.Fatal(err)
			}
			benchSteps(b, p, func() {
				if err := m.WriteF64s(initial, centroidsOff); err != nil {
					b.Fatal(err)
				}
				if err := m.WriteU64(hdrOffIter, 0); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
	b.Run("converged/240/4/4", func(b *testing.B) {
		benchSteps(b, convergedProcess(b), func() {})
	})
}

// mustProcess builds a k-means process of 2⁴⁰ iterations at seed 11.
func mustProcess(tb testing.TB, points, dims, k int) *proc.Process {
	tb.Helper()
	p, err := NewProcess("km", points, dims, k, 1<<40, 11)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// convergedProcess is a yarn-batch-shaped process stepped until its last
// movement is 0: its tasks stop moving at iteration 2 or 3.
func convergedProcess(tb testing.TB) *proc.Process {
	tb.Helper()
	p := mustProcess(tb, 240, 4, 4)
	for range 3 {
		if _, err := p.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	if moved, err := LastMovement(p); err != nil || moved != 0 {
		tb.Fatalf("after three steps the last movement is %v (%v), want 0", moved, err)
	}
	return p
}

// benchSteps times b.N calls of reset then p.Step, after one untimed step
// that warms the pooled scratch.
func benchSteps(b *testing.B, p *proc.Process, reset func()) {
	if _, err := p.Step(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		reset()
		if _, err := p.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterate measures one warm library Lloyd iteration at yarn-batch's
// task shape: the points are copied through the pooled scratch chunk into
// the same kernel Program.Step runs.
func BenchmarkIterate(b *testing.B) {
	b.Run("240/4/4", func(b *testing.B) {
		pts := GeneratePoints(sim.NewStream(11), 240, 4, 4)
		centroids, assign := firstPoints(pts, 4), make([]int, len(pts))
		Iterate(pts, centroids, assign) // warm the pooled scratch
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			Iterate(pts, centroids, assign)
		}
	})
}
