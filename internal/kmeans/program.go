package kmeans

import (
	"fmt"
	"math"

	"preemptsched/internal/proc"
)

// ProgramName is the registry name of the k-means virtual-process program.
const ProgramName = "kmeans"

// Program runs k-means inside a virtual process. One Step is one Lloyd
// iteration. All mutable state is kept in process memory:
//
//	offset 0:                     header (iteration counter, last movement;
//	                              the movement, at offset 8, is also what
//	                              a converged Step reads)
//	offset pointsOff:             n × dims float64 points (written at Init,
//	                              read-only afterwards — the read-dominant
//	                              region that makes incremental dumps small)
//	offset centroidsOff:          k × dims float64 centroids (rewritten
//	                              each iteration)
//
// Register usage (set via Configure before the first Step):
//
//	R0: number of points    R1: dims    R2: k
//	R3: max iterations      R4: dataset seed
type Program struct{}

var _ proc.Program = Program{}

// Name implements proc.Program.
func (Program) Name() string { return ProgramName }

const (
	hdrOffIter = 0
	hdrOffMove = 8
	pointsOff  = proc.PageSize // points start page-aligned after the header
)

// Configure sets the run parameters in the process registers.
func Configure(p *proc.Process, points, dims, k, maxIters uint64, seed int64) {
	r := p.Registers()
	r.R[0] = points
	r.R[1] = dims
	r.R[2] = k
	r.R[3] = maxIters
	r.R[4] = uint64(seed)
}

// MemoryBytes returns the real backing bytes a process needs for the given
// problem size.
func MemoryBytes(points, dims, k int) int64 {
	data := int64(points*dims+k*dims) * 8
	return pointsOff + data + proc.PageSize // header + data + slack page
}

func layout(p *proc.Process) (n, dims, k int, centroidsOff int64, err error) {
	r := p.Registers()
	n, dims, k = int(r.R[0]), int(r.R[1]), int(r.R[2])
	if n <= 0 || dims <= 0 || k <= 0 || k > n {
		return 0, 0, 0, 0, fmt.Errorf("kmeans: bad configuration n=%d dims=%d k=%d", n, dims, k)
	}
	// Registers reach Step from checkpoint images, so (n+k)·dims is compared
	// against the memory by division: the product of hostile values wraps.
	words := (p.Memory().RealBytes() - pointsOff) / 8
	if int64(n) > words || int64(dims) > words/int64(n+k) {
		return 0, 0, 0, 0, fmt.Errorf("kmeans: needs %d+%d rows of %d float64s after the header page, process has %d bytes", n, k, dims, p.Memory().RealBytes())
	}
	return n, dims, k, pointsOff + int64(n*dims)*8, nil
}

// Init implements proc.Program: generate the dataset, in GeneratePoints'
// draw order from NewStream's sequence at the seed register, and the
// initial centroids directly into process memory. The stream is the pooled
// scratch's, Restarted at that seed, so a warm Init allocates nothing.
func (Program) Init(p *proc.Process) error {
	n, dims, k, centroidsOff, err := layout(p)
	if err != nil {
		return err
	}
	m := p.Memory()
	it := lloydPool.Get().(*lloyd)
	defer lloydPool.Put(it)
	it.begin(k, dims)
	rng := &it.rng
	rng.Restart(int64(p.Registers().R[4]))
	drawCentres(rng, it.centroids)
	for first, chunk := 0, rowChunk(dims); first < n; first += chunk {
		rows := it.rows[:min(chunk, n-first)*dims]
		drawPoints(rng, it.centroids, dims, first, rows)
		if err := m.WriteF64s(rows, pointsOff+int64(first*dims)*8); err != nil {
			return err
		}
	}
	// The initial centroids are the first k points.
	if err := m.ReadF64s(it.centroids, pointsOff); err != nil {
		return err
	}
	if err := m.WriteF64s(it.centroids, centroidsOff); err != nil {
		return err
	}
	if err := m.WriteU64(hdrOffIter, 0); err != nil {
		return err
	}
	return m.WriteF64(hdrOffMove, 0)
}

// Step implements proc.Program: one full Lloyd iteration read from and
// written back to process memory. When the last Step left every centroid
// where it found it (converged), the iteration would compute them again
// bit for bit, so Step skips the points and makes the same three writes.
func (Program) Step(p *proc.Process) (bool, error) {
	n, dims, k, centroidsOff, err := layout(p)
	if err != nil {
		return false, err
	}
	m := p.Memory()
	iter, err := m.ReadU64(hdrOffIter)
	if err != nil {
		return false, err
	}
	maxIters := p.Registers().R[3]
	if maxIters == 0 {
		maxIters = 1
	}

	it := lloydPool.Get().(*lloyd)
	defer lloydPool.Put(it)
	it.begin(k, dims)
	if err := m.ReadF64s(it.centroids, centroidsOff); err != nil {
		return false, err
	}
	var moved float64
	if !converged(m, iter, it.centroids) {
		for first, chunk := 0, rowChunk(dims); first < n; first += chunk {
			rows := it.rows[:min(chunk, n-first)*dims]
			if err := m.ReadF64s(rows, pointsOff+int64(first*dims)*8); err != nil {
				return false, err
			}
			it.addRows(rows, nil)
		}
		moved = it.recentre()
	}

	if err := m.WriteF64s(it.centroids, centroidsOff); err != nil {
		return false, err
	}
	if err := m.WriteF64(hdrOffMove, moved); err != nil {
		return false, err
	}
	iter++
	if err := m.WriteU64(hdrOffIter, iter); err != nil {
		return false, err
	}
	return iter >= maxIters, nil
}

// converged reports whether the centroids Step just read are a fixed point
// the last Step proved: a Step, not Init, wrote the movement (iter ≥ 1); it
// is +0 bit for bit; and every centroid coordinate is finite with magnitude
// at least 2⁻⁴⁰⁰. A double that large differs from any other by at least
// 2⁻⁴⁵³, whose square is a nonzero normal, so a Step that moved such a
// centroid cannot have summed its movement to 0, and one that left every
// centroid in place computes the same assignments, means and movement
// again. The argument covers memory that Init and Steps wrote (DESIGN
// §16.6); a hand-written header is outside it.
func converged(m *proc.Memory, iter uint64, centroids []float64) bool {
	if iter == 0 {
		return false
	}
	if moved, err := m.ReadU64(hdrOffMove); err != nil || moved != 0 {
		return false
	}
	for _, c := range centroids {
		if a := math.Abs(c); !(a >= 0x1p-400 && a <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// Centroids reads the current centroids out of process memory.
func Centroids(p *proc.Process) ([][]float64, error) {
	_, dims, k, centroidsOff, err := layout(p)
	if err != nil {
		return nil, err
	}
	flat := make([]float64, k*dims)
	if err := p.Memory().ReadF64s(flat, centroidsOff); err != nil {
		return nil, err
	}
	return rowsOf(flat, dims), nil
}

// Iterations reads the completed-iteration counter from process memory.
func Iterations(p *proc.Process) (uint64, error) {
	return p.Memory().ReadU64(hdrOffIter)
}

// LastMovement reads the centroid movement of the last iteration.
func LastMovement(p *proc.Process) (float64, error) {
	return p.Memory().ReadF64(hdrOffMove)
}

// RegisterWith registers the program with a process registry.
func RegisterWith(reg *proc.Registry) {
	reg.Register(ProgramName, func() proc.Program { return Program{} })
}

// NewProcess builds a configured k-means virtual process sized to the
// problem, with logical footprint equal to the real backing. Callers that
// model larger task footprints should use NewProcessScaled.
func NewProcess(id string, points, dims, k int, maxIters uint64, seed int64) (*proc.Process, error) {
	mem := MemoryBytes(points, dims, k)
	return NewProcessScaled(id, points, dims, k, maxIters, seed, mem)
}

// NewProcessScaled builds a configured k-means process that declares
// logicalBytes of footprint for checkpoint time accounting while backing
// only the pages the problem needs.
func NewProcessScaled(id string, points, dims, k int, maxIters uint64, seed int64, logicalBytes int64) (*proc.Process, error) {
	mem := MemoryBytes(points, dims, k)
	if logicalBytes < mem {
		logicalBytes = mem
	}
	return proc.NewWithSetup(id, Program{}, mem, logicalBytes, func(p *proc.Process) {
		Configure(p, uint64(points), uint64(dims), uint64(k), maxIters, seed)
	})
}
