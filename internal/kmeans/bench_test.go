package kmeans

import (
	"fmt"
	"testing"

	"preemptsched/internal/sim"
)

// BenchmarkProgramStep measures one warm Lloyd iteration of a k-means
// process: yarn-batch's task shape (240 points, 4 dims, k = 4), where the
// kernel scores four centroids per pass, and service-stream's (8/2/2),
// where it runs the one-centroid remainder loop alone.
func BenchmarkProgramStep(b *testing.B) {
	for _, sh := range [][3]int{{240, 4, 4}, {8, 2, 2}} {
		b.Run(fmt.Sprintf("%d/%d/%d", sh[0], sh[1], sh[2]), func(b *testing.B) {
			p, err := NewProcess("km", sh[0], sh[1], sh[2], 1<<40, 11)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Step(); err != nil { // warm the pooled scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := p.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
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
