// Package proc implements virtual processes: the application-transparent
// unit the checkpoint engine suspends and resumes.
//
// A virtual process stands in for the Linux process CRIU operates on. It
// has a register file, paged memory (one backing array, page views) with
// per-page soft-dirty bits (the mechanism CRIU's incremental dumps rely on,
// Section 4.1 of the paper), and a Program that advances the computation
// in cooperative steps. All mutable program state must live in process
// memory or registers; that is what makes checkpointing transparent — the
// engine dumps pages without knowing what the program is.
//
// Because real cluster tasks in the paper have multi-gigabyte footprints, a
// Memory can declare a logical footprint larger than its real backing
// pages. Serialization and dirty tracking operate on the real pages; time
// accounting uses the logical size (see DESIGN.md, substitution table).
package proc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// PageSize is the virtual page granularity in bytes, matching the x86-64
// page size CRIU's soft-dirty tracking works at.
const PageSize = 4096

// wordSize is the width of the ReadU64/WriteU64 accessors.
const wordSize = 8

// Memory is one backing array viewed as soft-dirty-tracked pages.
type Memory struct {
	data         []byte
	dirty        []bool
	logicalBytes int64
}

// maxPages is what an image header's 32-bit page count can describe.
const maxPages = min(math.MaxUint32, math.MaxInt/PageSize)

// NewMemory builds a memory of realBytes backing bytes (rounded up to whole
// pages, drawn from the address-space list) that declares logicalBytes of
// footprint for time accounting. logicalBytes must be at least realBytes.
func NewMemory(realBytes, logicalBytes int64) (*Memory, error) {
	if err := checkSizes(realBytes, logicalBytes); err != nil {
		return nil, err
	}
	n := (realBytes-1)/PageSize + 1 // cannot wrap: checkSizes bounds realBytes
	// Page rounding may push the real size past the declared logical
	// footprint; the footprint can never be below the backing.
	m, err := AdoptMemory(GetSpace(int(n)), max(logicalBytes, n*PageSize))
	if err != nil {
		return nil, err
	}
	m.MarkAllDirty() // freshly mapped pages must be in the first dump
	return m, nil
}

// AdoptMemory wraps data, whole pages the caller gives away, as a memory
// of logicalBytes footprint with every soft-dirty bit clear: the address
// space a restore has already filled. Sizes follow NewMemory's rules.
func AdoptMemory(data []byte, logicalBytes int64) (*Memory, error) {
	if err := checkSizes(int64(len(data)), logicalBytes); err != nil {
		return nil, err
	}
	if len(data)%PageSize != 0 {
		return nil, fmt.Errorf("proc: real size %d is not whole pages of %d", len(data), PageSize)
	}
	return &Memory{data: data, dirty: make([]bool, len(data)/PageSize), logicalBytes: logicalBytes}, nil
}

func checkSizes(realBytes, logicalBytes int64) error {
	if realBytes <= 0 {
		return fmt.Errorf("proc: non-positive real size %d", realBytes)
	}
	if realBytes > maxPages*PageSize {
		return fmt.Errorf("proc: real size %d exceeds %d pages", realBytes, int64(maxPages))
	}
	if logicalBytes < realBytes {
		return fmt.Errorf("proc: logical size %d below real size %d", logicalBytes, realBytes)
	}
	return nil
}

// spaces is the address-space list NewMemory and a checkpoint restore draw
// from and a released process gives back to, at most maxSpaces arrays of at
// most maxSpaceBytes; a full list drops its oldest. An array has one owner at
// a time, and it is not a sync.Pool: DESIGN §16.6 says why.
var spaces struct {
	sync.Mutex
	free [][]byte
}

const maxSpaces, maxSpaceBytes = 64, 1 << 20

// GetSpace returns pages whole pages of zeroes, owned by the caller: the
// newest listed array of exactly that size, cleared, or a new one.
func GetSpace(pages int) []byte {
	spaces.Lock()
	for i := len(spaces.free) - 1; i >= 0; i-- {
		if b := spaces.free[i]; len(b) == pages*PageSize {
			spaces.free = slices.Delete(spaces.free, i, i+1)
			spaces.Unlock()
			clear(b) // b is ours alone now; zero it outside the lock
			return b
		}
	}
	spaces.Unlock()
	return make([]byte, pages*PageSize)
}

// PutSpace lists data; the caller must hold the only reference.
func PutSpace(data []byte) {
	if len(data) == 0 || len(data) > maxSpaceBytes {
		return
	}
	spaces.Lock()
	defer spaces.Unlock()
	if len(spaces.free) == maxSpaces {
		spaces.free = slices.Delete(spaces.free, 0, 1)
	}
	spaces.free = append(spaces.free, data)
}

// NumPages returns the number of real backing pages.
func (m *Memory) NumPages() int { return len(m.dirty) }

// RealBytes returns the backing size in bytes.
func (m *Memory) RealBytes() int64 { return int64(len(m.data)) }

// LogicalBytes returns the declared footprint used for time accounting.
func (m *Memory) LogicalBytes() int64 { return m.logicalBytes }

// Page returns a read-only view of page i, capped so an append cannot reach
// page i+1. Callers must not mutate it; mutations must go through WriteAt
// so dirty tracking stays correct.
func (m *Memory) Page(i int) []byte { return m.data[i*PageSize : (i+1)*PageSize : (i+1)*PageSize] }

// SetPage replaces the contents of page i without marking it dirty. It is
// used by restore, which reconstructs a clean address space.
func (m *Memory) SetPage(i int, data []byte) error {
	if i < 0 || i >= len(m.dirty) {
		return fmt.Errorf("proc: page %d out of range [0,%d)", i, len(m.dirty))
	}
	if len(data) != PageSize {
		return fmt.Errorf("proc: page data length %d != %d", len(data), PageSize)
	}
	copy(m.Page(i), data)
	return nil
}

// inRange reports whether the n bytes at off lie inside the backing. The
// subtraction cannot wrap the way off+n does for offsets near MaxInt64.
func (m *Memory) inRange(off int64, n int) bool {
	return off >= 0 && off <= m.RealBytes()-int64(n)
}

// outside is the error every accessor returns for a range inRange rejects.
func (m *Memory) outside(op string, off int64, n int) error {
	return fmt.Errorf("proc: %s of %d bytes at offset %d outside memory of %d bytes", op, n, off, m.RealBytes())
}

// touch sets the soft-dirty bit of every page the n in-range bytes at off
// lie on — the analogue of the kernel page-fault path CRIU hooks for
// incremental checkpoints.
func (m *Memory) touch(off int64, n int) {
	for end := off + int64(n); off < end; off = (off/PageSize + 1) * PageSize {
		m.dirty[off/PageSize] = true
	}
}

// ReadAt copies len(p) bytes starting at offset off into p.
func (m *Memory) ReadAt(p []byte, off int64) error {
	if !m.inRange(off, len(p)) {
		return m.outside("read", off, len(p))
	}
	copy(p, m.data[off:])
	return nil
}

// WriteAt copies p into memory at offset off, dirtying every page it touches.
func (m *Memory) WriteAt(p []byte, off int64) error {
	if !m.inRange(off, len(p)) {
		return m.outside("write", off, len(p))
	}
	copy(m.data[off:], p)
	m.touch(off, len(p))
	return nil
}

// ReadU64 reads a big-endian uint64 at off.
func (m *Memory) ReadU64(off int64) (uint64, error) {
	if !m.inRange(off, wordSize) {
		return 0, m.outside("read", off, wordSize)
	}
	return binary.BigEndian.Uint64(m.data[off:]), nil
}

// WriteU64 writes a big-endian uint64 at off, dirtying both pages of a
// word that straddles a boundary.
func (m *Memory) WriteU64(off int64, v uint64) error {
	if !m.inRange(off, wordSize) {
		return m.outside("write", off, wordSize)
	}
	binary.BigEndian.PutUint64(m.data[off:], v)
	m.touch(off, wordSize)
	return nil
}

// ReadF64s reads len(dst) consecutive float64s starting at off into dst,
// under one range check. Words are decoded four per step from a 32-byte
// window, one bounds check for the four, then one at a time.
func (m *Memory) ReadF64s(dst []float64, off int64) error {
	if !m.inRange(off, len(dst)*wordSize) {
		return m.outside("read", off, len(dst)*wordSize)
	}
	src := m.data[off:][:len(dst)*wordSize]
	for ; len(dst) >= 4; dst, src = dst[4:], src[4*wordSize:] {
		w := src[:4*wordSize]
		dst[0] = math.Float64frombits(binary.BigEndian.Uint64(w[0:]))
		dst[1] = math.Float64frombits(binary.BigEndian.Uint64(w[8:]))
		dst[2] = math.Float64frombits(binary.BigEndian.Uint64(w[16:]))
		dst[3] = math.Float64frombits(binary.BigEndian.Uint64(w[24:]))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(src[i*wordSize:]))
	}
	return nil
}

// WriteF64s writes src as consecutive float64s starting at off, under one
// range check, dirtying every touched page. It encodes as ReadF64s decodes:
// four words per bounds check, then one at a time.
func (m *Memory) WriteF64s(src []float64, off int64) error {
	if !m.inRange(off, len(src)*wordSize) {
		return m.outside("write", off, len(src)*wordSize)
	}
	m.touch(off, len(src)*wordSize)
	dst := m.data[off:][:len(src)*wordSize]
	for ; len(src) >= 4; src, dst = src[4:], dst[4*wordSize:] {
		w := dst[:4*wordSize]
		binary.BigEndian.PutUint64(w[0:], math.Float64bits(src[0]))
		binary.BigEndian.PutUint64(w[8:], math.Float64bits(src[1]))
		binary.BigEndian.PutUint64(w[16:], math.Float64bits(src[2]))
		binary.BigEndian.PutUint64(w[24:], math.Float64bits(src[3]))
	}
	for i, v := range src {
		binary.BigEndian.PutUint64(dst[i*wordSize:], math.Float64bits(v))
	}
	return nil
}

// ReadF64 reads a float64 at off.
func (m *Memory) ReadF64(off int64) (float64, error) {
	v, err := m.ReadU64(off)
	return math.Float64frombits(v), err
}

// WriteF64 writes a float64 at off.
func (m *Memory) WriteF64(off int64, v float64) error {
	return m.WriteU64(off, math.Float64bits(v))
}

// DirtyPages returns the indices of pages whose soft-dirty bit is set.
func (m *Memory) DirtyPages() []int {
	var out []int
	for i, d := range m.dirty {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// DirtyCount returns the number of soft-dirty pages.
func (m *Memory) DirtyCount() int {
	n := 0
	for _, d := range m.dirty {
		if d {
			n++
		}
	}
	return n
}

// ClearSoftDirty resets every soft-dirty bit, as CRIU does after a dump so
// the next dump captures only subsequent writes.
func (m *Memory) ClearSoftDirty() { clear(m.dirty) }

// MarkAllDirty sets every soft-dirty bit, forcing the next dump to be full.
func (m *Memory) MarkAllDirty() {
	for i := range m.dirty {
		m.dirty[i] = true
	}
}

// LogicalDirtyBytes returns the logical byte count a dump of the currently
// dirty pages represents: the dirty fraction of the real pages scaled to
// the logical footprint.
func (m *Memory) LogicalDirtyBytes() int64 {
	frac := float64(m.DirtyCount()) / float64(len(m.dirty))
	return int64(frac * float64(m.logicalBytes))
}
