// Package proc implements virtual processes: the application-transparent
// unit the checkpoint engine suspends and resumes.
//
// A virtual process stands in for the Linux process CRIU operates on. It
// has a register file, paged memory with per-page soft-dirty bits (the
// mechanism CRIU's incremental dumps rely on, Section 4.1 of the paper),
// and a Program that advances the computation in cooperative steps. All
// mutable program state must live in process memory or registers; that is
// what makes checkpointing transparent — the engine dumps pages without
// knowing what the program is.
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
)

// PageSize is the virtual page granularity in bytes, matching the x86-64
// page size CRIU's soft-dirty tracking works at.
const PageSize = 4096

// wordSize is the width of the ReadU64/WriteU64 accessors.
const wordSize = 8

// Memory is a paged address space with soft-dirty tracking.
type Memory struct {
	pages        [][]byte
	dirty        []bool
	logicalBytes int64
}

// NewMemory allocates a memory of realBytes backing bytes (rounded up to
// whole pages) that declares logicalBytes of footprint for time accounting.
// logicalBytes must be at least realBytes.
func NewMemory(realBytes, logicalBytes int64) (*Memory, error) {
	if realBytes <= 0 {
		return nil, fmt.Errorf("proc: non-positive real size %d", realBytes)
	}
	if logicalBytes < realBytes {
		return nil, fmt.Errorf("proc: logical size %d below real size %d", logicalBytes, realBytes)
	}
	n := int((realBytes + PageSize - 1) / PageSize)
	if rounded := int64(n) * PageSize; logicalBytes < rounded {
		// Page rounding may push the real size past the declared logical
		// footprint; the footprint can never be below the backing.
		logicalBytes = rounded
	}
	m := &Memory{
		pages:        make([][]byte, n),
		dirty:        make([]bool, n),
		logicalBytes: logicalBytes,
	}
	for i := range m.pages {
		m.pages[i] = make([]byte, PageSize)
		m.dirty[i] = true // freshly mapped pages must be in the first dump
	}
	return m, nil
}

// NumPages returns the number of real backing pages.
func (m *Memory) NumPages() int { return len(m.pages) }

// RealBytes returns the backing size in bytes.
func (m *Memory) RealBytes() int64 { return int64(len(m.pages)) * PageSize }

// LogicalBytes returns the declared footprint used for time accounting.
func (m *Memory) LogicalBytes() int64 { return m.logicalBytes }

// Page returns a read-only view of page i. Callers must not mutate it;
// mutations must go through WriteAt so dirty tracking stays correct.
func (m *Memory) Page(i int) []byte { return m.pages[i] }

// SetPage replaces the contents of page i without marking it dirty. It is
// used by restore, which reconstructs a clean address space.
func (m *Memory) SetPage(i int, data []byte) error {
	if i < 0 || i >= len(m.pages) {
		return fmt.Errorf("proc: page %d out of range [0,%d)", i, len(m.pages))
	}
	if len(data) != PageSize {
		return fmt.Errorf("proc: page data length %d != %d", len(data), PageSize)
	}
	copy(m.pages[i], data)
	return nil
}

// inRange reports whether the n bytes at off lie inside the backing. The
// subtraction cannot wrap the way off+n does for offsets near MaxInt64.
func (m *Memory) inRange(off int64, n int) bool {
	return off >= 0 && off <= m.RealBytes()-int64(n)
}

// wordInPage returns the page holding the whole word at off, and the
// word's offset within it; ok is false for a word that straddles two pages
// or starts outside memory, which the byte-granular path handles (or
// rejects). RealBytes is a whole number of pages, so a word that starts in
// range and does not straddle also ends in range.
func (m *Memory) wordInPage(off int64) (page, in int, ok bool) {
	u := uint64(off) // a negative offset becomes one far past the end
	page, in = int(u/PageSize), int(u%PageSize)
	return page, in, u < uint64(m.RealBytes()) && in <= PageSize-wordSize
}

// ReadAt copies len(p) bytes starting at offset off into p.
func (m *Memory) ReadAt(p []byte, off int64) error {
	if !m.inRange(off, len(p)) {
		return fmt.Errorf("proc: read of %d bytes at offset %d outside memory of %d bytes", len(p), off, m.RealBytes())
	}
	for len(p) > 0 {
		page := int(off / PageSize)
		in := int(off % PageSize)
		n := copy(p, m.pages[page][in:])
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// WriteAt copies p into memory at offset off, setting the soft-dirty bit of
// every touched page — the analogue of the kernel page-fault path CRIU
// hooks for incremental checkpoints.
func (m *Memory) WriteAt(p []byte, off int64) error {
	if !m.inRange(off, len(p)) {
		return fmt.Errorf("proc: write of %d bytes at offset %d outside memory of %d bytes", len(p), off, m.RealBytes())
	}
	for len(p) > 0 {
		page := int(off / PageSize)
		in := int(off % PageSize)
		n := copy(m.pages[page][in:], p)
		m.dirty[page] = true
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// ReadU64 reads a big-endian uint64 at off.
func (m *Memory) ReadU64(off int64) (uint64, error) {
	if page, in, ok := m.wordInPage(off); ok {
		return binary.BigEndian.Uint64(m.pages[page][in:]), nil
	}
	var buf [wordSize]byte
	if err := m.ReadAt(buf[:], off); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(buf[:]), nil
}

// WriteU64 writes a big-endian uint64 at off.
func (m *Memory) WriteU64(off int64, v uint64) error {
	if page, in, ok := m.wordInPage(off); ok {
		binary.BigEndian.PutUint64(m.pages[page][in:], v)
		m.dirty[page] = true
		return nil
	}
	var buf [wordSize]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return m.WriteAt(buf[:], off)
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
func (m *Memory) ClearSoftDirty() {
	for i := range m.dirty {
		m.dirty[i] = false
	}
}

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
	if len(m.pages) == 0 {
		return 0
	}
	frac := float64(m.DirtyCount()) / float64(len(m.pages))
	return int64(frac * float64(m.logicalBytes))
}
