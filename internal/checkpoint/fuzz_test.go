package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"preemptsched/internal/proc"
	"preemptsched/internal/storage"
)

// validImageBytes produces one real dumped image for the fuzz seed corpus.
// It takes the Fatal-only interface so both *testing.T and *testing.F work.
func validImageBytes(t interface{ Fatal(...any) }) []byte {
	reg := proc.NewRegistry()
	reg.Register(proc.FillProgramName, func() proc.Program { return proc.FillProgram{} })
	e := NewEngine(reg)
	store := storage.NewMemStore()
	p, err := proc.New("fuzz-seed", proc.FillProgram{}, 4*proc.PageSize, 4*proc.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	proc.ConfigureFill(p, 10, 1)
	for i := 0; i < 3; i++ {
		if _, err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Suspend(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Dump(p, store, "seed", DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open("seed")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fuzzSeeds is the FuzzReadImage seed corpus by name: one valid image and
// the damaged variants of it. TestFuzzSeedsBehave pins how each decodes
// and TestRestoreMatchesReference restores every one of them.
func fuzzSeeds(t interface{ Fatal(...any) }) map[string][]byte {
	seed := validImageBytes(t)
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x01

	// A header declaring absurd page geometry: the sanity bounds must
	// reject it before any allocation happens.
	var absurd bytes.Buffer
	absurd.Write(Magic[:])
	binary.Write(&absurd, binary.BigEndian, Version)
	binary.Write(&absurd, binary.BigEndian, uint16(0)) // flags
	for i := 0; i < 3; i++ {                           // three empty strings
		binary.Write(&absurd, binary.BigEndian, uint16(0))
	}
	binary.Write(&absurd, binary.BigEndian, uint64(0))  // PC
	absurd.Write(make([]byte, 16*8))                    // Regs
	binary.Write(&absurd, binary.BigEndian, uint64(0))  // Steps
	binary.Write(&absurd, binary.BigEndian, int64(-5))  // LogicalBytes < 0
	binary.Write(&absurd, binary.BigEndian, ^uint32(0)) // RealPages huge
	binary.Write(&absurd, binary.BigEndian, ^uint32(0)) // PageSize huge
	binary.Write(&absurd, binary.BigEndian, ^uint32(0)) // DumpedPages huge

	return map[string][]byte{
		"valid":            seed,
		"truncated-crc":    seed[:len(seed)-1],
		"truncated-pages":  seed[:len(seed)/2],
		"truncated-header": seed[:20],
		"empty":            {},
		"magic-only":       []byte("CRGO"),
		"wrong-magic":      []byte("not an image at all, ever"),
		"bit-rot":          flipped,
		"absurd-geometry":  absurd.Bytes(),
	}
}

// FuzzReadImage throws arbitrary bytes at the single-pass image reader. The
// contract under test: scanImage never panics, never over-allocates on
// nonsense length fields, and either returns a decoded image or an error —
// and on success the header invariants hold, every page handed to a slot is
// in range and page-sized, and the digest covers every stored byte. Every
// input is read through both slot kinds — an arena, and the flat space the
// chain walk would place it in were len(data) an honest manifest's size
// (scratch when the walk would refuse) — and both must report the same
// header, digest and error and leave the same bytes in every page.
func FuzzReadImage(f *testing.F) {
	for _, data := range fuzzSeeds(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		store := storage.NewMemStore()
		putObject(t, store, "img", data)
		var kept arena
		h, d, err := scanImage(store, "img", true, intoArena(&kept))
		var placed *space
		h2, d2, err2 := scanImage(store, "img", true, func(h *Header) func(int) []byte {
			if !placeable(h, nil, int64(len(data)), 0) {
				return scratch(h)
			}
			placed = newSpace(h.RealPages)
			return placed.slot
		})
		if fmt.Sprint(err) != fmt.Sprint(err2) || d != d2 || !reflect.DeepEqual(h, h2) {
			t.Fatalf("arena read: %+v %v %v\nplaced read: %+v %v %v", h, d.size, err, h2, d2.size, err2)
		}
		if err != nil {
			if h != nil {
				t.Error("scanImage returned a header alongside an error")
			}
			return
		}
		pages := make(map[int][]byte)
		for _, pg := range kept.pages {
			pages[pg.idx] = pg.data
		}
		if placed != nil {
			if placed.covered != len(pages) {
				t.Errorf("placed read covers %d pages, arena read %d", placed.covered, len(pages))
			}
			for idx, pg := range pages {
				if !placed.seen[idx] || !bytes.Equal(placed.slot(idx), pg) {
					t.Errorf("page %d differs between the placed and the arena read", idx)
				}
			}
		}
		if d.size != int64(len(data)) || d.sum != sha256.Sum256(data) {
			t.Errorf("digest covers %d bytes (%x), stored %d (%x)", d.size, d.sum, len(data), sha256.Sum256(data))
		}
		if h.PageSize == 0 || h.PageSize > maxSanePageSize {
			t.Errorf("accepted nonsense page size %d", h.PageSize)
		}
		if h.RealPages > maxSanePages {
			t.Errorf("accepted nonsense page count %d", h.RealPages)
		}
		if h.LogicalBytes < 0 {
			t.Errorf("accepted negative logical size %d", h.LogicalBytes)
		}
		if uint32(len(pages)) > h.DumpedPages {
			t.Errorf("decoded %d pages, header declared %d", len(pages), h.DumpedPages)
		}
		for idx, pg := range pages {
			if idx < 0 || uint32(idx) >= h.RealPages {
				t.Errorf("page index %d outside address space of %d pages", idx, h.RealPages)
			}
			if uint32(len(pg)) != h.PageSize {
				t.Errorf("page %d has %d bytes, want %d", idx, len(pg), h.PageSize)
			}
		}
	})
}

// TestFuzzSeedsBehave pins the expected classification of each seed so the
// corpus stays meaningful even when fuzzing is not running: the valid seed
// decodes, every damaged variant errors with ErrCorrupt identity.
func TestFuzzSeedsBehave(t *testing.T) {
	for name, data := range fuzzSeeds(t) {
		store := storage.NewMemStore()
		putObject(t, store, "img", data)
		_, _, err := scanImage(store, "img", false, scratch)
		if name == "valid" {
			if err != nil {
				t.Fatalf("valid seed rejected: %v", err)
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
