package proc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The paged Memory this package shipped before the address space became one
// backing array, kept as a test-only reference: a table of separately
// allocated pages, byte accessors that walk it a page at a time, and word
// accessors with an in-page fast path that fall back to the byte path for a
// straddling word. FuzzMemoryOps and TestMemoryMatchesPagedReference hold
// Memory to its bytes, dirty bits and error texts. The bulk float accessors
// it never had are expressed through its byte path. Do not "fix" or share
// code with it: it is useful only as long as it stays what shipped.

type refMemory struct {
	pages [][]byte
	dirty []bool
}

func newRefMemory(pages int) *refMemory {
	m := &refMemory{pages: make([][]byte, pages), dirty: make([]bool, pages)}
	for i := range m.pages {
		m.pages[i] = make([]byte, PageSize)
		m.dirty[i] = true
	}
	return m
}

func (m *refMemory) NumPages() int     { return len(m.pages) }
func (m *refMemory) RealBytes() int64  { return int64(len(m.pages)) * PageSize }
func (m *refMemory) Page(i int) []byte { return m.pages[i] }

func (m *refMemory) SetPage(i int, data []byte) error {
	if i < 0 || i >= len(m.pages) {
		return fmt.Errorf("proc: page %d out of range [0,%d)", i, len(m.pages))
	}
	if len(data) != PageSize {
		return fmt.Errorf("proc: page data length %d != %d", len(data), PageSize)
	}
	copy(m.pages[i], data)
	return nil
}

func (m *refMemory) inRange(off int64, n int) bool {
	return off >= 0 && off <= m.RealBytes()-int64(n)
}

func (m *refMemory) wordInPage(off int64) (page, in int, ok bool) {
	u := uint64(off)
	page, in = int(u/PageSize), int(u%PageSize)
	return page, in, u < uint64(m.RealBytes()) && in <= PageSize-wordSize
}

func (m *refMemory) ReadAt(p []byte, off int64) error {
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

func (m *refMemory) WriteAt(p []byte, off int64) error {
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

func (m *refMemory) ReadU64(off int64) (uint64, error) {
	if page, in, ok := m.wordInPage(off); ok {
		return binary.BigEndian.Uint64(m.pages[page][in:]), nil
	}
	var buf [wordSize]byte
	if err := m.ReadAt(buf[:], off); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(buf[:]), nil
}

func (m *refMemory) WriteU64(off int64, v uint64) error {
	if page, in, ok := m.wordInPage(off); ok {
		binary.BigEndian.PutUint64(m.pages[page][in:], v)
		m.dirty[page] = true
		return nil
	}
	var buf [wordSize]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return m.WriteAt(buf[:], off)
}

func (m *refMemory) ReadF64s(dst []float64, off int64) error {
	buf := make([]byte, len(dst)*wordSize)
	if err := m.ReadAt(buf, off); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[i*wordSize:]))
	}
	return nil
}

func (m *refMemory) WriteF64s(src []float64, off int64) error {
	buf := make([]byte, len(src)*wordSize)
	for i, v := range src {
		binary.BigEndian.PutUint64(buf[i*wordSize:], math.Float64bits(v))
	}
	return m.WriteAt(buf, off)
}

func (m *refMemory) DirtyPages() []int {
	var out []int
	for i, d := range m.dirty {
		if d {
			out = append(out, i)
		}
	}
	return out
}

func (m *refMemory) ClearSoftDirty() {
	for i := range m.dirty {
		m.dirty[i] = false
	}
}

func (m *refMemory) MarkAllDirty() {
	for i := range m.dirty {
		m.dirty[i] = true
	}
}
