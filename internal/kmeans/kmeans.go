// Package kmeans implements Lloyd's k-means algorithm, the workload the
// paper runs inside YARN containers for its sensitivity and cluster
// experiments (Sections 3.3.3 and 5.3, citing mlpack's k-means).
//
// The library form is one Lloyd iteration over float64 slices, Iterate,
// and the dataset generator, GeneratePoints. Program adapts the same
// computation to a checkpointable virtual process: every piece of mutable
// state (points, centroids, iteration counter) lives in process memory, so
// the checkpoint engine can suspend a half-finished clustering run and
// resume it — possibly on another node — without the program's
// cooperation. Tests hold Program to the library form bit for bit.
package kmeans

import (
	"math"
	"slices"
	"sync"

	"preemptsched/internal/sim"
)

// Iterate performs one Lloyd iteration in place: assign each point to its
// nearest centroid, then recompute centroids as cluster means. It returns
// the largest squared distance any centroid moved.
func Iterate(points, centroids [][]float64, assign []int) float64 {
	dims := len(centroids[0])
	it := lloydPool.Get().(*lloyd)
	defer lloydPool.Put(it)
	it.begin(len(centroids), dims)
	for c, row := range centroids {
		copy(it.centroids[c*dims:(c+1)*dims], row)
	}
	for first, chunk := 0, rowChunk(dims); first < len(points); first += chunk {
		batch := points[first:min(first+chunk, len(points))]
		rows := it.rows[:len(batch)*dims]
		for r, p := range batch {
			copy(rows[r*dims:(r+1)*dims], p)
		}
		it.addRows(rows, assign[first:])
	}
	moved := it.recentre()
	for c, row := range centroids {
		copy(row, it.centroids[c*dims:(c+1)*dims])
	}
	return moved
}

// lloyd is one Lloyd iteration over row-major centroids: the kernel the
// library and the virtual-process program share, and its scratch. Values
// are pooled, so a warm iteration allocates nothing. Nothing in one may be
// read before it is written in the same iteration — begin zeroes the sums
// and counts, the caller fills centroids and rows whole — so whatever an
// earlier iteration (of any process, of any shape) left behind is never
// observed, and a process's state stays in its memory and registers alone.
// The same holds for rng, the stream Program.Init draws a dataset from: Init
// Restarts it at the process's seed before its first draw.
type lloyd struct {
	dims      int
	centroids []float64 // k × dims
	sums      []float64 // k × dims: per cluster, the sum of the points added
	counts    []int     // k: points added per cluster
	rows      []float64 // rowChunk(dims) × dims: points on their way to or from process memory, or copied from Iterate's
	rng       sim.RNG
}

var lloydPool = sync.Pool{New: func() any { return new(lloyd) }}

// rowChunk is how many dims-wide points Step and Iterate move through
// lloyd.rows, and addRows scores, at a time: 8 KiB of them, and never less
// than one.
func rowChunk(dims int) int { return max(1, 1024/dims) }

// begin sizes the scratch for k clusters of dims-wide points, reusing what
// capacity it has, and zeroes the accumulators.
func (l *lloyd) begin(k, dims int) {
	l.dims = dims
	kd, chunk := k*dims, rowChunk(dims)*dims
	l.centroids = slices.Grow(l.centroids[:0], kd)[:kd]
	l.sums = slices.Grow(l.sums[:0], kd)[:kd]
	l.counts = slices.Grow(l.counts[:0], k)[:k]
	l.rows = slices.Grow(l.rows[:0], chunk)[:chunk]
	clear(l.sums)
	clear(l.counts)
}

// addRows assigns each dims-wide point of rows, in order, to its nearest
// centroid (the lowest-numbered one on a tie), adds it into that cluster's
// sum and count and, when assign is not nil, records the cluster in
// assign[i] for the i-th point.
//
// Every distance is bit for bit the one SquaredDistance returns: it is
// summed over the point's dimensions in ascending order, and the k
// distances are compared in ascending centroid order with a strict <. At
// dims = 4 the point is held in four locals and a block of four centroids
// is read as 16 consecutive values, with no loop over dimensions
// (addRows4); at any other dims each centroid is scored by SquaredDistance
// in turn.
func (l *lloyd) addRows(rows []float64, assign []int) {
	n := l.dims
	if n == 4 {
		l.addRows4(rows, assign)
		return
	}
	for r := 0; len(rows) > 0; r, rows = r+1, rows[n:] {
		p := rows[:n]
		best, bestD := 0, math.MaxFloat64
		for c := range l.counts {
			if d := SquaredDistance(p, l.centroids[c*n:(c+1)*n]); d < bestD {
				best, bestD = c, d
			}
		}
		l.counts[best]++
		sums := l.sums[best*n : (best+1)*n]
		for d, v := range p {
			sums[d] += v
		}
		if assign != nil {
			assign[r] = best
		}
	}
}

// addRows4 is addRows at dims = 4. A distance is written as one
// left-to-right expression, ((d0² + d1²) + d2²) + d3², which is what
// SquaredDistance's loop computes: its first add, 0 + d0², is d0² exactly.
// A block's four distances are summed one after another, not from sixteen
// differences taken first, so the point, the four sums and one lane's
// differences fit in the SSE registers Go allocates and nothing spills.
func (l *lloyd) addRows4(rows []float64, assign []int) {
	k := len(l.counts)
	counts, sums := l.counts, l.sums[:k*4]
	head, blocks := l.centroids[:k%4*4], l.centroids[k%4*4:k*4]
	for i := 0; len(rows) >= 4; i, rows = i+1, rows[4:] {
		p0, p1, p2, p3 := rows[0], rows[1], rows[2], rows[3]
		best, bestD := 0, math.MaxFloat64
		for c, q := 0, head; len(q) >= 4; c, q = c+1, q[4:] {
			d0, d1, d2, d3 := p0-q[0], p1-q[1], p2-q[2], p3-q[3]
			if d := d0*d0 + d1*d1 + d2*d2 + d3*d3; d < bestD {
				best, bestD = c, d
			}
		}
		for c, q := k%4, blocks; len(q) >= 16; c, q = c+4, q[16:] {
			d0, d1, d2, d3 := p0-q[0], p1-q[1], p2-q[2], p3-q[3]
			s0 := d0*d0 + d1*d1 + d2*d2 + d3*d3
			d0, d1, d2, d3 = p0-q[4], p1-q[5], p2-q[6], p3-q[7]
			s1 := d0*d0 + d1*d1 + d2*d2 + d3*d3
			d0, d1, d2, d3 = p0-q[8], p1-q[9], p2-q[10], p3-q[11]
			s2 := d0*d0 + d1*d1 + d2*d2 + d3*d3
			d0, d1, d2, d3 = p0-q[12], p1-q[13], p2-q[14], p3-q[15]
			s3 := d0*d0 + d1*d1 + d2*d2 + d3*d3
			if s0 < bestD {
				best, bestD = c, s0
			}
			if s1 < bestD {
				best, bestD = c+1, s1
			}
			if s2 < bestD {
				best, bestD = c+2, s2
			}
			if s3 < bestD {
				best, bestD = c+3, s3
			}
		}
		counts[best]++
		sum := sums[best*4 : best*4+4 : best*4+4]
		sum[0] += p0
		sum[1] += p1
		sum[2] += p2
		sum[3] += p3
		if assign != nil {
			assign[i] = best
		}
	}
}

// recentre moves every centroid to the mean of the points added to its
// cluster and returns the largest squared distance one moved.
func (l *lloyd) recentre() float64 {
	var maxMove float64
	for c, count := range l.counts {
		if count == 0 {
			continue // keep an empty cluster's centroid in place
		}
		centroid := l.centroids[c*l.dims : (c+1)*l.dims]
		sums := l.sums[c*l.dims : (c+1)*l.dims]
		var move float64
		for d := range centroid {
			next := sums[d] / float64(count)
			diff := next - centroid[d]
			move += diff * diff
			centroid[d] = next
		}
		if move > maxMove {
			maxMove = move
		}
	}
	return maxMove
}

// SquaredDistance returns the squared Euclidean distance between a and b.
func SquaredDistance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// GeneratePoints draws n points of the given dimensionality from k
// well-separated Gaussian blobs, producing a dataset where clustering has a
// meaningful answer. It is deterministic for a given RNG.
func GeneratePoints(rng *sim.RNG, n, dims, k int) [][]float64 {
	centres := make([]float64, k*dims)
	drawCentres(rng, centres)
	flat := make([]float64, n*dims)
	drawPoints(rng, centres, dims, 0, flat)
	return rowsOf(flat, dims)
}

// drawCentres draws the blob centres, the first draws of a dataset.
func drawCentres(rng *sim.RNG, centres []float64) {
	for i := range centres {
		centres[i] = rng.Bounded(-50, 50)
	}
}

// drawPoints draws the dataset's points first, first+1, … into the
// dims-wide rows, point i around centre i mod k.
func drawPoints(rng *sim.RNG, centres []float64, dims, first int, rows []float64) {
	k := len(centres) / dims
	for i := first; len(rows) > 0; i, rows = i+1, rows[dims:] {
		c := centres[(i%k)*dims:]
		for d := range rows[:dims] {
			rows[d] = c[d] + rng.NormFloat64()*2
		}
	}
}

// rowsOf slices a row-major array into its dims-wide rows.
func rowsOf(flat []float64, dims int) [][]float64 {
	out := make([][]float64, len(flat)/dims)
	for r := range out {
		out[r] = flat[r*dims : (r+1)*dims : (r+1)*dims]
	}
	return out
}
