package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"preemptsched/internal/proc"
	"preemptsched/internal/storage"
)

// dumpChain dumps a depth-link incremental chain of one fill process into
// store and returns the image names base-first. The process keeps running
// between dumps, so every link carries different pages.
func dumpChain(t *testing.T, e *Engine, store storage.Store, depth int) []string {
	t.Helper()
	p := newFillProc(t, 24, 80, 2)
	var names []string
	for i := 0; i < depth; i++ {
		stepN(t, p, 6)
		if err := p.Suspend(); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("chain/%d", i)
		opts := DumpOpts{}
		if i > 0 {
			opts = DumpOpts{Incremental: true, Parent: names[i-1]}
		}
		if _, err := e.Dump(p, store, name, opts); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		if err := p.ResumeInPlace(); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

func readObject(t *testing.T, store storage.Store, name string) []byte {
	t.Helper()
	r, err := store.Open(name)
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

// countingStore counts what the read path asks of a store: Opens and bytes
// read per object, and Size calls.
type countingStore struct {
	storage.Store
	opens map[string]int
	read  map[string]int64
	sizes int
}

type countingReader struct {
	io.ReadCloser
	c    *countingStore
	name string
}

func (r countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.c.read[r.name] += int64(n)
	return n, err
}

func (c *countingStore) Open(name string) (io.ReadCloser, error) {
	c.opens[name]++
	r, err := c.Store.Open(name)
	if err != nil {
		return nil, err
	}
	return countingReader{r, c, name}, nil
}

func (c *countingStore) Size(name string) (int64, error) {
	c.sizes++
	return c.Store.Size(name)
}

// TestChainReadOnce is the read-amplification regression test: Restore,
// Compact, Chain and RemoveChain of a chain open every image exactly once,
// read every image's bytes exactly once, and never ask the store for a
// size. Restore and Compact verify, so they open every manifest exactly
// once too; Chain and RemoveChain only walk the chain and open none.
func TestChainReadOnce(t *testing.T) {
	e := newTestEngine(t)
	ops := map[string]struct {
		run       func(store storage.Store, tip string) error
		manifests bool
	}{
		"Restore": {func(store storage.Store, tip string) error {
			_, _, err := e.Restore(store, tip)
			return err
		}, true},
		"Compact": {func(store storage.Store, tip string) error {
			_, err := Compact(store, tip, "flat")
			return err
		}, true},
		"Chain": {func(store storage.Store, tip string) error {
			_, err := Chain(store, tip)
			return err
		}, false},
		"RemoveChain": {RemoveChain, false},
	}
	for opName, op := range ops {
		for depth := 1; depth <= 4; depth++ {
			t.Run(fmt.Sprintf("%s/depth-%d", opName, depth), func(t *testing.T) {
				inner := storage.NewMemStore()
				names := dumpChain(t, e, inner, depth)
				sizes := make(map[string]int64)
				wantOpens := make(map[string]int)
				for _, img := range names {
					size, err := inner.Size(img)
					if err != nil {
						t.Fatal(err)
					}
					sizes[img] = size
					wantOpens[img] = 1
					if op.manifests {
						wantOpens[ManifestName(img)] = 1
					}
				}
				cs := &countingStore{Store: inner, opens: make(map[string]int), read: make(map[string]int64)}
				if err := op.run(cs, names[depth-1]); err != nil {
					t.Fatal(err)
				}
				if cs.sizes != 0 {
					t.Errorf("%d Size calls, want 0", cs.sizes)
				}
				for _, img := range names {
					if cs.read[img] != sizes[img] {
						t.Errorf("read %d bytes of %q, which stores %d", cs.read[img], img, sizes[img])
					}
				}
				if !reflect.DeepEqual(cs.opens, wantOpens) {
					t.Errorf("opens = %v, want exactly one per image and, when verifying, per manifest: %v", cs.opens, wantOpens)
				}
			})
		}
	}
}

// TestCompactRefusesUnverifiedLink: a parent silently replaced by a
// different self-consistent image (valid CRC, so only the manifest can
// notice — the case TestRestoreRefusesUnverifiableImage guards for Restore)
// must not be laundered into a fresh image with a valid manifest of its
// own. Compact fails with ErrVerifyFailed and publishes nothing.
func TestCompactRefusesUnverifiedLink(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()
	names := dumpChain(t, e, store, 3)

	// A second full dump of the same process shape at a different step:
	// self-consistent, parentless, and not what chain/0's manifest attests.
	p := newFillProc(t, 24, 80, 2)
	stepN(t, p, 11)
	p.Suspend()
	if _, err := e.Dump(p, store, "other", DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	stolen := readObject(t, store, "other")
	mutateObject(t, store, names[0], func([]byte) []byte { return stolen })
	if _, err := Chain(store, names[2]); err != nil {
		t.Fatalf("replaced parent is not self-consistent, test premise broken: %v", err)
	}

	if _, err := Compact(store, names[2], "flat"); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("Compact over a silently replaced parent = %v, want ErrVerifyFailed", err)
	}
	for _, name := range []string{"flat", ManifestName("flat")} {
		if _, err := store.Size(name); !errors.Is(err, storage.ErrNotExist) {
			t.Errorf("failed Compact left %q behind (Size err = %v)", name, err)
		}
	}
}

// errClass buckets a restore outcome the way callers tell outcomes apart:
// the AM's degradation ladder and reportcheck -integrity key on exactly
// these identities.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrVerifyFailed):
		return "verify-failed"
	case errors.Is(err, storage.ErrNotExist):
		return "not-exist"
	default:
		return "other"
	}
}

// requireSameRestore restores name from store with the read-once engine and
// with the three-pass reference and requires the same outcome: the same
// error class on failure; on success identical registers, step count,
// memory checksum and ImageInfo, and the same checksum again after both
// processes have run to completion.
func requireSameRestore(t *testing.T, e *Engine, store storage.Store, name string) string {
	t.Helper()
	got, gotInfo, gotErr := e.Restore(store, name)
	want, wantInfo, wantErr := refRestore(e.registry, store, name)
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("error class %q, reference %q\n  read-once: %v\n  reference: %v", errClass(gotErr), errClass(wantErr), gotErr, wantErr)
	}
	if gotErr != nil {
		if got != nil || gotInfo != nil {
			t.Error("Restore returned state alongside an error")
		}
		return errClass(gotErr)
	}
	if !reflect.DeepEqual(gotInfo, wantInfo) {
		t.Errorf("ImageInfo %+v, reference %+v", gotInfo, wantInfo)
	}
	if *got.Registers() != *want.Registers() || got.Steps() != want.Steps() || got.ID() != want.ID() {
		t.Errorf("restored identity differs: regs %v/%v steps %d/%d", *got.Registers(), *want.Registers(), got.Steps(), want.Steps())
	}
	sum := func(p *proc.Process) uint64 {
		s, err := proc.FillChecksum(p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if g, w := sum(got), sum(want); g != w {
		t.Errorf("FillChecksum %x, reference %x", g, w)
	}
	if g, w := runToCompletion(t, got), runToCompletion(t, want); g != w {
		t.Errorf("continuation checksum %x, reference %x", g, w)
	}
	return "ok"
}

// TestRestoreMatchesReference is the differential test of the read-once
// restore against the three-pass one it replaced: the fuzz seed corpus as
// single images, and every kind of damage at every link of a depth-4
// chain — including the shapes reading the base straight into the address
// space could get wrong and a map of pages cannot: a page recorded twice, a
// full dump that is not full, a full dump that names a parent, geometry
// that changes along the chain, manifests that are absent or lie about the
// size. want pins the expected outcome too, so the two implementations
// cannot agree on a wrong answer unnoticed.
func TestRestoreMatchesReference(t *testing.T) {
	e := newTestEngine(t)

	for name, data := range fuzzSeeds(t) {
		t.Run("seed/"+name, func(t *testing.T) {
			store := storage.NewMemStore()
			putObject(t, store, "img", data)
			want := "corrupt"
			if name == "valid" {
				want = "ok"
			}
			if got := requireSameRestore(t, e, store, "img"); got != want {
				t.Errorf("outcome %q, want %q", got, want)
			}
		})
	}

	const depth = 4
	type mutation struct {
		name  string
		want  func(k int) string // expected outcome of damaging link k
		apply func(t *testing.T, store storage.Store, names []string, k int)
	}
	always := func(class string) func(int) string { return func(int) string { return class } }
	mutations := []mutation{
		{"intact", always("ok"), func(*testing.T, storage.Store, []string, int) {}},
		{"bit-flip-pages", always("corrupt"), func(t *testing.T, s storage.Store, names []string, k int) {
			mutateObject(t, s, names[k], func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b })
		}},
		{"bit-flip-trailer", always("corrupt"), func(t *testing.T, s storage.Store, names []string, k int) {
			mutateObject(t, s, names[k], func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
		}},
		{"truncated-tail", always("corrupt"), func(t *testing.T, s storage.Store, names []string, k int) {
			mutateObject(t, s, names[k], func(b []byte) []byte { return b[:len(b)-9] })
		}},
		{"truncated-half", always("corrupt"), func(t *testing.T, s storage.Store, names []string, k int) {
			mutateObject(t, s, names[k], func(b []byte) []byte { return b[:len(b)/2] })
		}},
		{"bit-flip-no-manifest", always("corrupt"), func(t *testing.T, s storage.Store, names []string, k int) {
			mutateObject(t, s, names[k], func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b })
			if err := s.Remove(ManifestName(names[k])); err != nil {
				t.Fatal(err)
			}
		}},
		{"trailing-garbage", always("verify-failed"), func(t *testing.T, s storage.Store, names []string, k int) {
			mutateObject(t, s, names[k], func(b []byte) []byte { return append(b, "tail"...) })
		}},
		{"trailing-garbage-no-manifest", always("ok"), func(t *testing.T, s storage.Store, names []string, k int) {
			mutateObject(t, s, names[k], func(b []byte) []byte { return append(b, "tail"...) })
			if err := s.Remove(ManifestName(names[k])); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing-manifest", always("ok"), func(t *testing.T, s storage.Store, names []string, k int) {
			if err := s.Remove(ManifestName(names[k])); err != nil {
				t.Fatal(err)
			}
		}},
		{"malformed-manifest", always("verify-failed"), func(t *testing.T, s storage.Store, names []string, k int) {
			mutateObject(t, s, ManifestName(names[k]), func([]byte) []byte { return []byte("crgo-sum v1\nsha256=beef\n") })
		}},
		{"missing-image", always("not-exist"), func(t *testing.T, s storage.Store, names []string, k int) {
			if err := s.Remove(names[k]); err != nil {
				t.Fatal(err)
			}
		}},
	}
	// Well-formed images (clean CRC, honest manifest) of the wrong shape.
	reshape := func(name, class string, edit func(h *Header, recs []pageRec) []pageRec) mutation {
		return mutation{name, always(class), func(t *testing.T, s storage.Store, names []string, k int) {
			rewriteImage(t, s, names[k], edit)
		}}
	}
	mutations = append(mutations,
		// One record short: at link 0 a "full" dump with DumpedPages <
		// RealPages, whose missing page only the links above supply.
		reshape("short-one-record", "ok", func(_ *Header, recs []pageRec) []pageRec { return recs[:len(recs)-1] }),
		// Not incremental, yet naming a parent: applied over it like any link.
		reshape("full-flag-with-parent", "ok", func(h *Header, recs []pageRec) []pageRec {
			h.Incremental = false
			return recs
		}),
		reshape("other-page-count", "corrupt", func(h *Header, recs []pageRec) []pageRec {
			h.RealPages++
			h.LogicalBytes += proc.PageSize
			return recs
		}),
		reshape("other-page-size", "other", func(h *Header, recs []pageRec) []pageRec {
			h.PageSize /= 2
			for i := range recs {
				recs[i].data = recs[i].data[:h.PageSize]
			}
			return recs
		}),
	)
	for name, delta := range map[string]int64{"manifest-overstates-size": 1 << 30, "manifest-understates-size": -1} {
		delta := delta
		mutations = append(mutations, mutation{name, always("verify-failed"), func(t *testing.T, s storage.Store, names []string, k int) {
			sum, size, err := readManifest(s, names[k])
			if err != nil {
				t.Fatal(err)
			}
			if err := writeManifest(s, names[k], sum, size+delta); err != nil {
				t.Fatal(err)
			}
		}})
	}
	mutations = append(mutations, mutation{"incremental-flag", func(k int) string {
		if k == 0 {
			return "corrupt" // an incremental base
		}
		return "ok"
	}, func(t *testing.T, s storage.Store, names []string, k int) {
		rewriteImage(t, s, names[k], func(h *Header, recs []pageRec) []pageRec {
			h.Incremental = true
			return recs
		})
	}})
	// Silent replacement: link k's bytes become another link's — still
	// self-consistent, so only the manifest can tell. Replacing a link with
	// a later one closes a parent cycle, which the walk must report as
	// corrupt before any manifest verdict; replacing it with an earlier one
	// shortens the chain and is a plain verification failure.
	for j := 0; j < depth; j++ {
		j := j
		mutations = append(mutations, mutation{
			name: fmt.Sprintf("replaced-by-link-%d", j),
			want: func(k int) string {
				switch {
				case j == k:
					return "ok"
				case j > k:
					return "corrupt"
				default:
					return "verify-failed"
				}
			},
			apply: func(t *testing.T, s storage.Store, names []string, k int) {
				stolen := readObject(t, s, names[j])
				mutateObject(t, s, names[k], func([]byte) []byte { return stolen })
			},
		})
	}

	for _, m := range mutations {
		for k := 0; k < depth; k++ {
			t.Run(fmt.Sprintf("%s/link-%d", m.name, k), func(t *testing.T) {
				store := storage.NewMemStore()
				names := dumpChain(t, e, store, depth)
				m.apply(t, store, names, k)
				if got, want := requireSameRestore(t, e, store, names[depth-1]), m.want(k); got != want {
					t.Errorf("outcome %q, want %q", got, want)
				}
			})
		}
	}

	// A chain none of whose links has a manifest (a legacy dump throughout):
	// nothing vouches for any size, every link waits in an arena.
	t.Run("no-manifests", func(t *testing.T) {
		store := storage.NewMemStore()
		names := dumpChain(t, e, store, depth)
		for _, name := range names {
			if err := store.Remove(ManifestName(name)); err != nil {
				t.Fatal(err)
			}
		}
		if got := requireSameRestore(t, e, store, names[depth-1]); got != "ok" {
			t.Errorf("outcome %q, want ok", got)
		}
	})

	// One link reshaped where no link above hides what reading it did: a
	// page recorded twice keeps the later record, in the base read in place
	// and in a link kept in an arena alike, and a page the base lacks is
	// supplied by the link above it or the restore is refused. (Link 1
	// rewrites pages 0, 1 and 13-23, link 2 pages 0 and 2-13.)
	reshaped := []struct {
		name        string
		depth, link int
		want        string
		edit        func(h *Header, recs []pageRec) []pageRec
	}{
		{"base-duplicate-record", 2, 0, "ok", func(_ *Header, recs []pageRec) []pageRec {
			recs[23].idx = 5
			return recs
		}},
		{"link-duplicate-record", 3, 1, "ok", func(_ *Header, recs []pageRec) []pageRec {
			recs[len(recs)-1].idx = 14
			return recs
		}},
		{"base-short-covered-above", 2, 0, "ok", func(_ *Header, recs []pageRec) []pageRec { return recs[:23] }},
		{"base-short-uncovered", 2, 0, "corrupt", func(_ *Header, recs []pageRec) []pageRec { return append(recs[:5], recs[6:]...) }},
		{"lone-base-short", 1, 0, "corrupt", func(_ *Header, recs []pageRec) []pageRec { return recs[:23] }},
	}
	for _, c := range reshaped {
		t.Run(c.name, func(t *testing.T) {
			store := storage.NewMemStore()
			names := dumpChain(t, e, store, c.depth)
			rewriteImage(t, store, names[c.link], c.edit)
			if got := requireSameRestore(t, e, store, names[c.depth-1]); got != c.want {
				t.Errorf("outcome %q, want %q", got, c.want)
			}
		})
	}

	// The same replacement where no manifest can object: a tip swapped for
	// a different dump on the same parent restores, to the swapped state, in
	// both implementations alike.
	t.Run("replaced-tip-no-manifest", func(t *testing.T) {
		store := storage.NewMemStore()
		names := dumpChain(t, e, store, depth)
		p, _, err := e.Restore(store, names[depth-2])
		if err != nil {
			t.Fatal(err)
		}
		stepN(t, p, 9)
		p.Suspend()
		if _, err := e.Dump(p, store, "alt", DumpOpts{Incremental: true, Parent: names[depth-2]}); err != nil {
			t.Fatal(err)
		}
		alt := readObject(t, store, "alt")
		mutateObject(t, store, names[depth-1], func([]byte) []byte { return alt })
		if err := store.Remove(ManifestName(names[depth-1])); err != nil {
			t.Fatal(err)
		}
		if got := requireSameRestore(t, e, store, names[depth-1]); got != "ok" {
			t.Errorf("outcome %q, want ok", got)
		}
	})
}

// intoArena is the slots of a scan that keeps every page record in kept, as
// the chain walk does for a link it cannot place.
func intoArena(kept *arena) func(*Header) func(int) []byte {
	return func(h *Header) func(int) []byte {
		*kept = arena{pageSize: int(h.PageSize), left: int(h.DumpedPages)}
		return kept.slot
	}
}

// rewriteImage republishes the image under name, honest manifest included,
// after edit has changed its decoded header and its page records (in stored
// order; DumpedPages follows the records returned).
func rewriteImage(t *testing.T, store storage.Store, name string, edit func(h *Header, recs []pageRec) []pageRec) {
	t.Helper()
	var kept arena
	h, _, err := scanImage(store, name, false, intoArena(&kept))
	if err != nil {
		t.Fatal(err)
	}
	recs := edit(h, kept.pages)
	h.DumpedPages = uint32(len(recs))
	if _, err := writeImage(store, name, h, func(i int) (int, []byte) { return recs[i].idx, recs[i].data }); err != nil {
		t.Fatal(err)
	}
}

// Allocation bound of the placed read.
// GIVEN a chain whose headers announce the largest address space a header
// may (maxSanePages pages, 16 GiB) over a stream a few records long — with
// a manifest that is honest about the short object, and with none,
// WHEN it is restored,
// THEN the restore fails as the three-pass reference does and has allocated
// under 4 MiB: the flat array is sized on the manifest's word, an arena by
// the records that arrive, and no header field alone sizes either. And
// GIVEN an honest image under a manifest that overstates its size, THEN
// nothing is restored and the error is ErrVerifyFailed, as in the reference.
func TestRestoreAllocationIsBoundedByStoredBytes(t *testing.T) {
	e := newTestEngine(t)
	// A well-formed prefix: header, three whole records, then the stream
	// ends where the fourth record should be.
	forged := func(name, parent string) []byte {
		var img bytes.Buffer
		h := &Header{ProcID: "hostile", ProgramName: proc.FillProgramName, Parent: parent, Incremental: parent != "",
			LogicalBytes: maxSanePages * proc.PageSize, RealPages: maxSanePages, PageSize: proc.PageSize, DumpedPages: maxSanePages}
		if err := encodeHeader(&img, h); err != nil {
			t.Fatal(err)
		}
		for idx := uint32(0); idx < 3; idx++ {
			binary.Write(&img, binary.BigEndian, idx)
			img.Write(make([]byte, proc.PageSize))
		}
		return img.Bytes()
	}
	for _, manifest := range []bool{true, false} {
		for _, chained := range []bool{false, true} {
			t.Run(fmt.Sprintf("manifest-%v/chained-%v", manifest, chained), func(t *testing.T) {
				store := storage.NewMemStore()
				tip := "base"
				img := forged("base", "")
				putObject(t, store, "base", img)
				if manifest {
					sum := sha256.Sum256(img)
					if err := writeManifest(store, "base", hex.EncodeToString(sum[:]), int64(len(img))); err != nil {
						t.Fatal(err)
					}
				}
				if chained {
					// A tip of the same announced geometry above it, intact:
					// one record, clean CRC, legacy (no manifest).
					tip = "tip"
					h := &Header{ProcID: "hostile", ProgramName: proc.FillProgramName, Parent: "base", Incremental: true,
						LogicalBytes: maxSanePages * proc.PageSize, RealPages: maxSanePages, PageSize: proc.PageSize, DumpedPages: 1}
					if _, err := writeImage(store, "tip", h, func(int) (int, []byte) { return 7, make([]byte, proc.PageSize) }); err != nil {
						t.Fatal(err)
					}
					if err := store.Remove(ManifestName("tip")); err != nil {
						t.Fatal(err)
					}
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, _, err := e.Restore(store, tip)
				runtime.ReadMemStats(&after)
				if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
					t.Errorf("restore of a %d-byte object allocated %d bytes", len(img), got)
				}
				_, _, refErr := refRestore(e.registry, store, tip)
				if errClass(err) != "corrupt" || errClass(refErr) != "corrupt" {
					t.Errorf("error class %q, reference %q, want corrupt\n  %v\n  %v", errClass(err), errClass(refErr), err, refErr)
				}
			})
		}
	}

	t.Run("overstated-size", func(t *testing.T) {
		store := storage.NewMemStore()
		names := dumpChain(t, e, store, 1)
		sum, size, err := readManifest(store, names[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := writeManifest(store, names[0], sum, size+1<<30); err != nil {
			t.Fatal(err)
		}
		if got := requireSameRestore(t, e, store, names[0]); got != "verify-failed" {
			t.Errorf("outcome %q, want verify-failed", got)
		}
	})
}

// putObject stores data under name whether or not it exists.
func putObject(t *testing.T, store storage.Store, name string, data []byte) {
	t.Helper()
	w, err := store.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
