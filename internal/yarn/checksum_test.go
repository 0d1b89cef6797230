package yarn

import (
	"math/rand"
	"testing"

	"preemptsched/internal/proc"
)

// GIVEN a finished process of three patterned pages,
// WHEN any single bit of any byte of any page is flipped, or the same bit
// position is flipped in two different words (the pair a word-wise
// xor-multiply lets cancel),
// THEN checksumProcess changes; and hashing allocates nothing.
func TestChecksumProcessSeesEveryBit(t *testing.T) {
	const pages = 3
	p, err := proc.New("sum", proc.FillProgram{}, pages*proc.PageSize, pages*proc.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	mem := p.Memory()
	base := checksumProcess(p)
	flip := func(off int64, bit uint) {
		var b [1]byte
		if err := mem.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 1 << bit
		if err := mem.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}

	for off := int64(0); off < mem.RealBytes(); off++ {
		for bit := uint(0); bit < 8; bit++ {
			flip(off, bit)
			if checksumProcess(p) == base {
				t.Fatalf("flipping bit %d of byte %d leaves the checksum unchanged", bit, off)
			}
			flip(off, bit)
		}
	}
	if checksumProcess(p) != base {
		t.Fatal("flipping every bit back did not restore the checksum")
	}

	rng := rand.New(rand.NewSource(18))
	words := int(mem.RealBytes() / 8)
	for trial := 0; trial < 20000; trial++ {
		w1, w2 := rng.Intn(words), rng.Intn(words)
		switch trial % 4 {
		case 0: // neighbours
			w2 = (w1 + 1) % words
		case 1: // same slot of two pages
			w2 = (w1 + proc.PageSize/8) % words
		}
		if w1 == w2 {
			continue
		}
		bit := uint(trial % 64)
		flip(int64(w1)*8+int64(bit/8), bit%8)
		flip(int64(w2)*8+int64(bit/8), bit%8)
		if checksumProcess(p) == base {
			t.Fatalf("flipping bit %d of words %d and %d cancels", bit, w1, w2)
		}
		flip(int64(w1)*8+int64(bit/8), bit%8)
		flip(int64(w2)*8+int64(bit/8), bit%8)
	}

	if allocs := testing.AllocsPerRun(100, func() { checksumProcess(p) }); allocs != 0 {
		t.Errorf("checksumProcess allocates %.0f objects per call", allocs)
	}
}
