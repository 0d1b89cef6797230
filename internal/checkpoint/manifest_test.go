package checkpoint

import (
	"errors"
	"io"
	"testing"

	"preemptsched/internal/storage"
)

// mutateObject rewrites one stored object through fn, bypassing the dump
// path — the test's stand-in for silent storage-layer damage.
func mutateObject(t *testing.T, store storage.Store, name string, fn func([]byte) []byte) {
	t.Helper()
	r, err := store.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	w, err := store.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(fn(data)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDumpWritesManifest: every dump publishes a sidecar manifest and the
// freshly written image restores against it.
func TestDumpWritesManifest(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()
	p := newFillProc(t, 8, 20, 2)
	stepN(t, p, 5)
	p.Suspend()
	if _, err := e.Dump(p, store, "img", DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Size(ManifestName("img")); err != nil {
		t.Fatalf("no manifest published: %v", err)
	}
	if _, _, err := e.Restore(store, "img"); err != nil {
		t.Fatalf("fresh image fails verified restore: %v", err)
	}
}

// TestRestoreRefusesUnverifiableImage: an image silently replaced by a
// different self-consistent one (valid CRC, so only the manifest can
// notice) must fail Restore with ErrVerifyFailed — the signal the AM's
// degradation ladder keys on. Plain bit rot is caught earlier by the
// in-image CRC as ErrCorrupt; that path is covered elsewhere.
func TestRestoreRefusesUnverifiableImage(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()
	p := newFillProc(t, 8, 20, 2)
	stepN(t, p, 3)
	p.Suspend()
	if _, err := e.Dump(p, store, "a", DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := p.ResumeInPlace(); err != nil {
		t.Fatal(err)
	}
	stepN(t, p, 3)
	p.Suspend()
	if _, err := e.Dump(p, store, "b", DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	stolen, _ := io.ReadAll(r)
	r.Close()
	mutateObject(t, store, "a", func([]byte) []byte { return stolen })
	if _, _, err := scanImage(store, "a", false, scratch); err != nil {
		t.Fatalf("replayed object is not self-consistent, test premise broken: %v", err)
	}
	if _, _, err := e.Restore(store, "a"); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("Restore of silently replaced image = %v, want ErrVerifyFailed", err)
	}
}

// TestRestoreWithoutManifestStillWorks: images from before the manifest
// era (or whose sidecar was lost) restore on the strength of the internal
// CRC alone.
func TestRestoreWithoutManifestStillWorks(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()
	p := newFillProc(t, 8, 20, 2)
	stepN(t, p, 5)
	p.Suspend()
	if _, err := e.Dump(p, store, "img", DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := store.Remove(ManifestName("img")); err != nil {
		t.Fatal(err)
	}
	restored, info, err := e.Restore(store, "img")
	if err != nil {
		t.Fatalf("restore without manifest: %v", err)
	}
	if restored == nil || info.Steps != 5 {
		t.Errorf("restored at step %d, want 5", info.Steps)
	}
}

// TestRemoveChainRemovesManifests: deleting a chain leaves no orphan
// sidecars behind.
func TestRemoveChainRemovesManifests(t *testing.T) {
	e := newTestEngine(t)
	store := storage.NewMemStore()
	p := newFillProc(t, 8, 20, 2)
	stepN(t, p, 4)
	p.Suspend()
	if _, err := e.Dump(p, store, "base", DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := p.ResumeInPlace(); err != nil {
		t.Fatal(err)
	}
	stepN(t, p, 4)
	p.Suspend()
	if _, err := e.Dump(p, store, "incr", DumpOpts{Incremental: true, Parent: "base"}); err != nil {
		t.Fatal(err)
	}
	if err := RemoveChain(store, "incr"); err != nil {
		t.Fatal(err)
	}
	left, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("chain removal left objects behind: %v", left)
	}
}
