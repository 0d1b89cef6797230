package kmeans

import (
	"fmt"

	"preemptsched/internal/proc"
	"preemptsched/internal/sim"
)

// ProgramName is the registry name of the k-means virtual-process program.
const ProgramName = "kmeans"

// Program runs k-means inside a virtual process. One Step is one Lloyd
// iteration. All mutable state is kept in process memory:
//
//	offset 0:                     header (iteration counter, last movement)
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
	centroidsOff = pointsOff + int64(n*dims)*8
	need := centroidsOff + int64(k*dims)*8
	if need > p.Memory().RealBytes() {
		return 0, 0, 0, 0, fmt.Errorf("kmeans: needs %d bytes, process has %d", need, p.Memory().RealBytes())
	}
	return n, dims, k, centroidsOff, nil
}

// Init implements proc.Program: generate the dataset and the initial
// centroids directly into process memory.
func (Program) Init(p *proc.Process) error {
	n, dims, k, centroidsOff, err := layout(p)
	if err != nil {
		return err
	}
	m := p.Memory()
	rng := sim.NewRNG(int64(p.Registers().R[4]))
	pts := GeneratePoints(rng, n, dims, k)
	for i, pt := range pts {
		for d, v := range pt {
			if err := m.WriteF64(pointsOff+int64(i*dims+d)*8, v); err != nil {
				return err
			}
		}
	}
	for c := 0; c < k; c++ {
		for d := 0; d < dims; d++ {
			if err := m.WriteF64(centroidsOff+int64(c*dims+d)*8, pts[c][d]); err != nil {
				return err
			}
		}
	}
	if err := m.WriteU64(hdrOffIter, 0); err != nil {
		return err
	}
	return m.WriteF64(hdrOffMove, 0)
}

// Step implements proc.Program: one full Lloyd iteration read from and
// written back to process memory.
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

	// One flat backing array per region, sliced into rows: the allocation
	// count of a step does not depend on the number of points.
	points, err := readRows(m, pointsOff, n, dims)
	if err != nil {
		return false, err
	}
	centroids, err := readRows(m, centroidsOff, k, dims)
	if err != nil {
		return false, err
	}

	assign := make([]int, n)
	moved := Iterate(points, centroids, assign)

	for c := range centroids {
		for d := range centroids[c] {
			if err := m.WriteF64(centroidsOff+int64(c*dims+d)*8, centroids[c][d]); err != nil {
				return false, err
			}
		}
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

// Centroids reads the current centroids out of process memory.
func Centroids(p *proc.Process) ([][]float64, error) {
	_, dims, k, centroidsOff, err := layout(p)
	if err != nil {
		return nil, err
	}
	return readRows(p.Memory(), centroidsOff, k, dims)
}

// readRows reads rows × dims float64 values stored row-major at off into
// one backing array and returns it sliced into rows.
func readRows(m *proc.Memory, off int64, rows, dims int) ([][]float64, error) {
	flat := make([]float64, rows*dims)
	for i := range flat {
		v, err := m.ReadF64(off + int64(i)*8)
		if err != nil {
			return nil, err
		}
		flat[i] = v
	}
	out := make([][]float64, rows)
	for r := range out {
		out[r] = flat[r*dims : (r+1)*dims : (r+1)*dims]
	}
	return out, nil
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
