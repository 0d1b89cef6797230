package proc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// addressSpace is what Memory and the paged reference have in common.
type addressSpace interface {
	NumPages() int
	RealBytes() int64
	Page(i int) []byte
	SetPage(i int, data []byte) error
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	ReadU64(off int64) (uint64, error)
	WriteU64(off int64, v uint64) error
	ReadF64s(dst []float64, off int64) error
	WriteF64s(src []float64, off int64) error
	DirtyPages() []int
	ClearSoftDirty()
	MarkAllDirty()
}

var (
	_ addressSpace = (*Memory)(nil)
	_ addressSpace = (*refMemory)(nil)
)

// opStream decodes memory operations from fuzz input; an exhausted stream
// reads as zeroes.
type opStream struct{ b []byte }

func (s *opStream) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return v
}

func (s *opStream) u16() int64 { return int64(s.byte())<<8 | int64(s.byte()) }

// offset decodes one of the offsets the accessors must agree on: anywhere
// up to just past the end, the last word of a page (page 0's "last word of
// the page before" is -8, the end's is the last word of memory), a word
// straddling a boundary, a page start, negative, and within 64 KiB of
// either end of int64.
func (s *opStream) offset(real int64) int64 {
	kind, v := s.byte(), s.u16()
	boundary := v % (real/PageSize + 1) * PageSize
	switch kind % 8 {
	case 0:
		return v % (real + 16)
	case 1:
		return boundary - wordSize
	case 2:
		return boundary - 1 - v%(wordSize-1)
	case 3:
		return boundary
	case 4:
		return real - wordSize
	case 5:
		return -1 - v
	case 6:
		return math.MaxInt64 - v
	default:
		return math.MinInt64 + v
	}
}

// pattern fills n bytes from a one-byte seed, so payloads cost the stream
// one byte whatever their length.
func pattern(seed byte, n int64) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*131+i>>8)
	}
	return p
}

// applyOp decodes one operation from s, applies it to m and returns what
// the caller could observe of it: the operation with its error, and the
// bytes it read.
func applyOp(m addressSpace, s *opStream) (outcome string, read []byte) {
	real := m.RealBytes()
	switch op := s.byte() % 9; op {
	case 0:
		p, off := make([]byte, s.u16()%(3*PageSize+1)), s.offset(real)
		return fmt.Sprintf("ReadAt(%d, %d) = %v", len(p), off, m.ReadAt(p, off)), p
	case 1:
		n, off, seed := s.u16()%(3*PageSize+1), s.offset(real), s.byte()
		return fmt.Sprintf("WriteAt(%d, %d) = %v", n, off, m.WriteAt(pattern(seed, n), off)), nil
	case 2:
		off := s.offset(real)
		v, err := m.ReadU64(off)
		return fmt.Sprintf("ReadU64(%d) = %#x, %v", off, v, err), nil
	case 3:
		off, v := s.offset(real), uint64(s.u16())*0x9E3779B97F4A7C15
		return fmt.Sprintf("WriteU64(%d, %#x) = %v", off, v, m.WriteU64(off, v)), nil
	case 4:
		dst, off := make([]float64, s.u16()%(3*PageSize/wordSize+1)), s.offset(real)
		err := m.ReadF64s(dst, off)
		for _, v := range dst {
			read = binary.BigEndian.AppendUint64(read, math.Float64bits(v))
		}
		return fmt.Sprintf("ReadF64s(%d, %d) = %v", len(dst), off, err), read
	case 5:
		src, off, seed := make([]float64, s.u16()%(3*PageSize/wordSize+1)), s.offset(real), s.byte()
		for i := range src {
			src[i] = math.Float64frombits((uint64(seed) + uint64(i)) * 0x9E3779B97F4A7C15)
		}
		return fmt.Sprintf("WriteF64s(%d, %d) = %v", len(src), off, m.WriteF64s(src, off)), nil
	case 6:
		page, n, seed := int(s.byte()%8)-1, int64(PageSize), s.byte()
		if seed%4 == 0 {
			n = s.u16() % (2 * PageSize)
		}
		return fmt.Sprintf("SetPage(%d, %d) = %v", page, n, m.SetPage(page, pattern(seed, n))), nil
	case 7:
		m.ClearSoftDirty()
		return "ClearSoftDirty()", nil
	default:
		m.MarkAllDirty()
		return "MarkAllDirty()", nil
	}
}

// requireSameOps drives a Memory and the paged reference with one decoded
// operation stream and fails on the first operation after which they
// differ in outcome (value, error or not, error text), dirty pages or bytes.
// A recycled Memory is built on an array a previous owner left dirty.
func requireSameOps(t *testing.T, stream []byte, recycled bool) {
	const pages = 5
	var dirty []byte
	if recycled {
		dirty = dirtySpace(pages)
	} else {
		drainSpaces()
	}
	m, err := NewMemory(pages*PageSize, pages*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if recycled && !sameArray(m.Page(0), dirty) {
		t.Fatal("the memory is not built on the recycled array")
	}
	ref := newRefMemory(pages)
	if m.NumPages() != ref.NumPages() || m.RealBytes() != ref.RealBytes() {
		t.Fatalf("fresh memory: %d pages / %d bytes, reference %d / %d", m.NumPages(), m.RealBytes(), ref.NumPages(), ref.RealBytes())
	}
	got, want := &opStream{stream}, &opStream{stream}
	for step := 0; len(got.b) > 0; step++ {
		g, gRead := applyOp(m, got)
		w, wRead := applyOp(ref, want)
		if g != w {
			t.Fatalf("op %d: %s, reference %s", step, g, w)
		}
		if !bytes.Equal(gRead, wRead) {
			t.Fatalf("op %d %s: read %x, reference %x", step, g, gRead, wRead)
		}
		if gd, wd := m.DirtyPages(), ref.DirtyPages(); !reflect.DeepEqual(gd, wd) {
			t.Fatalf("op %d %s: dirty pages %v, reference %v", step, g, gd, wd)
		}
		for pg := 0; pg < pages; pg++ {
			if !bytes.Equal(m.Page(pg), ref.Page(pg)) {
				t.Fatalf("op %d %s: page %d differs from the reference", step, g, pg)
			}
		}
	}
}

// memorySeeds are operation streams that reach every operation and every
// offset kind: a hand-written walk over the boundary cases, and seeded
// random streams long enough to mix them.
func memorySeeds() [][]byte {
	seeds := [][]byte{
		{},
		// ClearSoftDirty, then a page-long WriteAt two bytes short of page 1.
		{7, 1, 0x10, 0x00, 0, 0x0F, 0xFE, 7},
		// ClearSoftDirty, WriteU64 straddling pages 0 and 1 (offset 4094).
		{7, 3, 2, 0, 1, 0x12, 0x34},
		// ClearSoftDirty, WriteU64 and ReadU64 at the last word of memory.
		{7, 3, 4, 0, 0, 0, 1, 2, 4, 0, 0},
		// ClearSoftDirty, WriteF64s and ReadF64s of 256 values from offset
		// 8189: unaligned, across the boundary of pages 1 and 2.
		{7, 5, 0x01, 0x00, 2, 0, 2, 9, 4, 0x01, 0x00, 2, 0, 2},
		// ClearSoftDirty, SetPage of pages -1 and 5 (out of range), of page 2
		// (kept clean), and of page 2 with 512 bytes.
		{7, 6, 0, 1, 6, 6, 1, 6, 3, 5, 6, 3, 4, 0x02, 0x00},
		// ReadU64 at MaxInt64-7, WriteU64 at MinInt64, ReadAt at -4, WriteAt
		// at MaxInt64, ReadF64s at MaxInt64-15, MarkAllDirty.
		{2, 6, 0, 7, 3, 7, 0, 0, 0, 1, 0, 0, 8, 5, 0, 3, 1, 0, 8, 6, 0, 0, 1, 4, 0, 2, 6, 0, 15, 8},
		// ClearSoftDirty, zero-length WriteAt inside page 0 and at the very
		// end (both dirty nothing), then a three-page WriteAt and ReadAt.
		{7, 1, 0, 0, 0, 0, 10, 1, 1, 0, 0, 3, 0, 5, 1, 1, 0x30, 0x00, 3, 0, 1, 2, 0, 0x30, 0x00, 3, 0, 1},
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 8; i++ {
		s := make([]byte, 1024)
		rng.Read(s)
		seeds = append(seeds, s)
	}
	// For n = 0…9 values, ClearSoftDirty then WriteF64s and ReadF64s of n
	// values starting 0…n words before the boundary of pages 1 and 2, and
	// 5 bytes before each of those starts: the four-word body and the
	// one-word tail of the bulk accessors each meet the page edge.
	for n := 0; n <= 9; n++ {
		var s []byte
		for m := 0; m <= n; m++ {
			for _, r := range []int{0, 5} {
				off := 2*PageSize - m*wordSize - r
				s = append(s, 7, 5, 0, byte(n), 0, byte(off>>8), byte(off), byte(n+m), 4, 0, byte(n), 0, byte(off>>8), byte(off))
			}
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// GIVEN a Memory and the paged implementation it replaced, same size — the
// Memory once on a fresh array and once on a recycled one its last owner
// left full of 0xA5 —
// WHEN one operation stream — ReadAt/WriteAt of 0–3 pages, ReadU64/WriteU64,
// ReadF64s/WriteF64s, SetPage with good and bad lengths, ClearSoftDirty,
// MarkAllDirty, at page-last, straddling, memory-last, negative and
// near-MaxInt64 offsets — is applied to both,
// THEN after every operation they returned the same values and the same
// error text, hold the same bytes and report the same dirty pages.
func FuzzMemoryOps(f *testing.F) {
	for _, s := range memorySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		requireSameOps(t, stream, false)
		requireSameOps(t, stream, true)
	})
}

// The seed streams cover what the contract names; fuzzing only widens it.
func TestMemorySeedsReachEveryOperation(t *testing.T) {
	ops := map[string]int{}
	failed := 0
	for _, seed := range memorySeeds() {
		m, _ := NewMemory(5*PageSize, 5*PageSize)
		for s := (&opStream{seed}); len(s.b) > 0; {
			out, _ := applyOp(m, s)
			ops[out[:strings.IndexByte(out, '(')]]++
			if strings.Contains(out, "proc: ") {
				failed++
			}
		}
	}
	for _, op := range []string{"ReadAt", "WriteAt", "ReadU64", "WriteU64", "ReadF64s", "WriteF64s", "SetPage", "ClearSoftDirty", "MarkAllDirty"} {
		if ops[op] < 100 {
			t.Errorf("seed streams apply %s %d times", op, ops[op])
		}
	}
	if failed < 100 {
		t.Errorf("seed streams hit %d rejected operations", failed)
	}
}

// Page views are capped: growing one reallocates instead of writing into
// the next page of the shared backing array.
func TestPageViewCannotReachNextPage(t *testing.T) {
	m := mustPatterned(t, 3)
	next := append([]byte(nil), m.Page(1)...)
	view := m.Page(0)
	if len(view) != PageSize || cap(view) != PageSize {
		t.Fatalf("Page(0): len %d cap %d, want %d and %d", len(view), cap(view), PageSize, PageSize)
	}
	view = append(view, 0xAA, 0xBB)
	if view[PageSize] != 0xAA || !bytes.Equal(m.Page(1), next) {
		t.Error("append on a page view wrote into the next page")
	}
}

// One struct, one backing array, one dirty map — not one allocation a page.
func TestNewMemoryAllocationsIndependentOfSize(t *testing.T) {
	for _, pages := range []int64{1, 3, 2048} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := NewMemory(pages*PageSize, pages*PageSize); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("NewMemory of %d pages makes %.0f allocations, want at most 3", pages, allocs)
		}
	}
}
