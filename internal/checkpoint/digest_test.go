package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"preemptsched/internal/faults"
	"preemptsched/internal/storage"
)

// Contracts of the manifest digester (digest.go), each beside the test that
// holds it. CI runs the Hasher tests five more times under -race.

// Same digest.
// GIVEN a stream of n bytes, n at 0, one batch less one, one batch, one
// batch plus one and many batches,
// WHEN it is written through a digester in one write, in page-record-sized
// writes, in writes of a prime length or in random splits with empty writes
// among them,
// THEN the digest equals sha256.Sum256 of the stream, and a helper ran
// exactly when the stream outgrew one batch.
func TestHasherMatchesSum256(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{0, hashBatch - 1, hashBatch, hashBatch + 1, 7*hashBatch + 4099} {
		data := make([]byte, n)
		rng.Read(data)
		want := sha256.Sum256(data)
		splits := map[string]func(left int) int{
			"one write": func(left int) int { return left },
			"records":   func(int) int { return []int{4, 4096}[rng.Intn(2)] },
			"prime":     func(int) int { return 1021 },
			"random":    func(int) int { return rng.Intn(hashBatch + hashBatch/2) },
			"empties":   func(int) int { return rng.Intn(3) * rng.Intn(70000) },
		}
		for name, next := range splits {
			d := digester{sha: sha256.New()}
			helped := false
			for rest := data; ; {
				k := min(next(len(rest)), len(rest))
				d.write(rest[:k])
				rest = rest[k:]
				helped = helped || d.h != nil
				if len(rest) == 0 {
					break
				}
			}
			if got := d.sum(nil); !bytes.Equal(got, want[:]) {
				t.Errorf("%d bytes, %s: digest %x, sha256.Sum256 %x", n, name, got, want)
			}
			if d.n != int64(n) {
				t.Errorf("%d bytes, %s: counted %d", n, name, d.n)
			}
			if helped != (n > hashBatch) {
				t.Errorf("%d bytes, %s: helper ran = %v, want %v", n, name, helped, n > hashBatch)
			}
			d.stop() // a second join is harmless
		}
	}
}

// No helper left behind.
// GIVEN images several batches long,
// WHEN a Dump tears past the first batch, or a Restore or a Compact meets a
// truncated image, a CRC mismatch, a missing manifest or a manifest with
// the wrong size — and when each succeeds,
// THEN each returns its usual verdict and the goroutine count is back to
// its baseline: every return path joined the helper it started.
func TestHasherLeavesNoHelperBehind(t *testing.T) {
	e := newTestEngine(t)
	p := newFillProc(t, 256, 1<<20, 8)
	stepN(t, p, 4)
	if err := p.Suspend(); err != nil {
		t.Fatal(err)
	}
	// settled waits for the goroutine count to fall back to baseline: a
	// joined helper has handed over its digest, but may not have returned.
	settled := func(t *testing.T, baseline int, what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
	fresh := func(t *testing.T) *storage.MemStore {
		store := storage.NewMemStore()
		info, err := e.Dump(p, store, "img", DumpOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if info.StoredBytes < 4*hashBatch {
			t.Fatalf("image of %d bytes does not outgrow the batches", info.StoredBytes)
		}
		return store
	}

	baseline := runtime.NumGoroutine()
	fresh(t)
	settled(t, baseline, "dump")
	torn := faults.WrapStore(storage.NewMemStore(), faults.NewInjector(faults.Plan{Seed: 46, TornWriteRate: 1, TornWriteBytes: 3 * hashBatch}))
	if _, err := e.Dump(p, torn, "img", DumpOpts{}); err == nil {
		t.Fatal("dump through a torn writer succeeded")
	}
	settled(t, baseline, "torn dump")

	cases := []struct {
		name   string
		damage func(t *testing.T, store *storage.MemStore)
		want   error // nil: Restore and Compact succeed
	}{
		{"intact", func(*testing.T, *storage.MemStore) {}, nil},
		{"truncated", func(t *testing.T, store *storage.MemStore) {
			mutateObject(t, store, "img", func(b []byte) []byte { return b[:3*hashBatch] })
		}, ErrCorrupt},
		{"crc mismatch", func(t *testing.T, store *storage.MemStore) {
			mutateObject(t, store, "img", func(b []byte) []byte { b[3*hashBatch] ^= 1; return b })
		}, ErrCorrupt},
		{"missing manifest", func(t *testing.T, store *storage.MemStore) {
			if err := store.Remove(ManifestName("img")); err != nil {
				t.Fatal(err)
			}
		}, nil},
		{"manifest size", func(t *testing.T, store *storage.MemStore) {
			mutateObject(t, store, ManifestName("img"), func(b []byte) []byte {
				_, size, _ := strings.Cut(string(b), "size=")
				return []byte(strings.Replace(string(b), "size="+size, fmt.Sprintf("size=1%s", size), 1))
			})
		}, ErrVerifyFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := fresh(t)
			tc.damage(t, store)
			baseline := runtime.NumGoroutine()
			q, _, err := e.Restore(store, "img")
			if q != nil {
				q.Kill()
			}
			if (tc.want == nil) != (err == nil) || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Errorf("Restore: %v, want %v", err, tc.want)
			}
			settled(t, baseline, "restore")
			if _, err := Compact(store, "img", "compact"); (tc.want == nil) != (err == nil) || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Errorf("Compact: %v, want %v", err, tc.want)
			}
			settled(t, baseline, "compact")
		})
	}
}

// Small images hash inline.
// GIVEN a warm engine and a process whose image is under one batch, the
// size of yarn's,
// WHEN it is dumped and restored,
// THEN the pair allocates no more objects than before the digester: 80.
func TestSmallImageRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := newTestEngine(t)
	store := storage.NewMemStore()
	p := newFillProc(t, 8, 1<<20, 2)
	stepN(t, p, 3)
	if err := p.Suspend(); err != nil {
		t.Fatal(err)
	}
	roundTrip := func() {
		info, err := e.Dump(p, store, "small", DumpOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if info.StoredBytes >= hashBatch {
			t.Fatalf("image of %d bytes is not under one batch", info.StoredBytes)
		}
		q, _, err := e.Restore(store, "small")
		if err != nil {
			t.Fatal(err)
		}
		q.Kill()
		q.Release()
	}
	roundTrip()
	if got := testing.AllocsPerRun(100, roundTrip); got > 80 {
		t.Errorf("a warm Dump and Restore of a small image allocate %v objects, 80 before the digester", got)
	}
}
