package dfs

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"testing"

	"preemptsched/internal/storage"
)

// journaledCluster builds an in-process cluster whose NameNode write-ahead
// logs into store.
func journaledCluster(t testing.TB, store storageStore, nodes, repl int) *Cluster {
	t.Helper()
	c := testCluster(t, nodes, repl)
	if _, err := c.NameNode.AttachJournal(store); err != nil {
		t.Fatal(err)
	}
	return c
}

// recoverNameNode replays store into a fresh NameNode and reconciles the
// block map with a full block report from every DataNode, returning the
// recovered node.
func recoverNameNode(t *testing.T, store storageStore, dns []*DataNode) *NameNode {
	t.Helper()
	nn := NewNameNode(3)
	if _, err := nn.AttachJournal(store); err != nil {
		t.Fatal(err)
	}
	for _, dn := range dns {
		stale, err := nn.BlockReport(dn.Info(), dn.BlockIDs())
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range stale {
			_ = dn.DeleteBlock(id)
		}
	}
	return nn
}

// liveJournal runs a workload of creates, writes, an overwrite and a delete
// on a cluster whose NameNode journals into store.
func liveJournal(t testing.TB, store storageStore) *Cluster {
	t.Helper()
	c := journaledCluster(t, store, 3, 3)
	client := c.ClientAt(0)
	for i := 0; i < 4; i++ {
		writeFile(t, client, fmt.Sprintf("/j/%d", i), randomData(500*(i+1)))
	}
	writeFile(t, client, "/j/1", randomData(900)) // overwrite
	if err := client.Remove("/j/2"); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestJournalReplayMatchesLiveNameNode: a workload of creates, writes,
// overwrites, and deletes replayed from the journal plus block reports
// must reproduce the live NameNode's metadata byte-for-byte.
func TestJournalReplayMatchesLiveNameNode(t *testing.T) {
	store := storage.NewMemStore()
	c := liveJournal(t, store)

	recovered := recoverNameNode(t, store, c.DataNodes)
	want, got := c.NameNode.MetadataDigest(), recovered.MetadataDigest()
	if want == "" {
		t.Fatal("live digest empty")
	}
	if got != want {
		t.Fatalf("recovered metadata diverges\nlive:\n%s\nrecovered:\n%s", want, got)
	}
}

// TestJournalTornTailTolerated: a damaged LAST record is a torn final
// write — recovery stops at the preceding mutation. Damage in the middle
// of the log is real loss and must be fatal.
func TestJournalTornTailTolerated(t *testing.T) {
	store := storage.NewMemStore()
	c := journaledCluster(t, store, 1, 1)
	client := c.ClientAt(0)
	writeFile(t, client, "/a", randomData(10))
	writeFile(t, client, "/b", randomData(10))

	edits, err := store.List(editsPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(edits) < 4 {
		t.Fatalf("expected at least 4 edits, have %d", len(edits))
	}

	// Damage the tail record (garbage bytes, so the CRC check fails).
	last := edits[len(edits)-1]
	w, _ := store.Create(last)
	w.Write([]byte("torn"))
	w.Close()

	nn := NewNameNode(1)
	replayed, err := nn.AttachJournal(store)
	if err != nil {
		t.Fatalf("torn tail was fatal: %v", err)
	}
	if replayed != len(edits)-1 {
		t.Errorf("replayed %d records, want %d (all but the torn tail)", replayed, len(edits)-1)
	}

	// Now damage a middle record of a fresh copy of the log: fatal.
	mid := edits[1]
	w, _ = store.Create(mid)
	w.Write([]byte("hole"))
	w.Close()
	if _, err := NewNameNode(1).AttachJournal(store); !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("mid-log damage = %v, want ErrJournalCorrupt", err)
	}
}

// TestJournalSequenceGapFatal: a missing record in the middle of the log
// means silent loss; recovery must refuse rather than skip it.
func TestJournalSequenceGapFatal(t *testing.T) {
	store := storage.NewMemStore()
	c := journaledCluster(t, store, 1, 1)
	client := c.ClientAt(0)
	writeFile(t, client, "/a", randomData(10))
	writeFile(t, client, "/b", randomData(10))

	edits, err := store.List(editsPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Remove(edits[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := NewNameNode(1).AttachJournal(store); !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("sequence gap = %v, want ErrJournalCorrupt", err)
	}
}

// TestFsimageCheckpointPrunesAndRecovers: SaveCheckpoint must prune the
// edits it covers, and recovery from the snapshot plus the surviving tail
// must reproduce the live metadata.
func TestFsimageCheckpointPrunesAndRecovers(t *testing.T) {
	store := storage.NewMemStore()
	c := journaledCluster(t, store, 2, 2)
	client := c.ClientAt(0)
	writeFile(t, client, "/pre", randomData(50))
	if err := c.NameNode.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	edits, err := store.List(editsPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(edits) != 0 {
		t.Errorf("checkpoint left %d covered edits behind: %v", len(edits), edits)
	}
	images, err := store.List(fsimagePrefix)
	if err != nil || len(images) != 1 {
		t.Fatalf("images = %v, %v; want exactly one", images, err)
	}

	// Edits after the snapshot bridge it to the present.
	writeFile(t, client, "/post", randomData(50))
	recovered := recoverNameNode(t, store, c.DataNodes)
	if got, want := recovered.MetadataDigest(), c.NameNode.MetadataDigest(); got != want {
		t.Fatalf("recovered metadata diverges\nlive:\n%s\nrecovered:\n%s", want, got)
	}
}

// TestFsimageFallbackToOlderImage: a corrupt newest fsimage must not
// prevent recovery when an older image plus the intervening edits still
// cover the history.
func TestFsimageFallbackToOlderImage(t *testing.T) {
	store := storage.NewMemStore()
	c := journaledCluster(t, store, 1, 1)
	client := c.ClientAt(0)
	writeFile(t, client, "/a", randomData(10))
	if err := c.NameNode.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	writeFile(t, client, "/b", randomData(10))

	// Plant a newer, damaged image. The post-checkpoint edits are still on
	// disk, so falling back to the older image loses nothing.
	seq := c.NameNode.journal.seq
	w, _ := store.Create(fsimageName(seq))
	w.Write([]byte("not an fsimage"))
	w.Close()

	recovered := recoverNameNode(t, store, c.DataNodes)
	if got, want := recovered.MetadataDigest(), c.NameNode.MetadataDigest(); got != want {
		t.Fatalf("fallback recovery diverges\nlive:\n%s\nrecovered:\n%s", want, got)
	}
}

// TestAutoCheckpointEvery: with SetCheckpointEvery(k), fsimages appear on
// their own and the edit log stays bounded, while recovery still lands on
// identical metadata.
func TestAutoCheckpointEvery(t *testing.T) {
	store := storage.NewMemStore()
	c := journaledCluster(t, store, 2, 2)
	c.NameNode.SetCheckpointEvery(5)
	client := c.ClientAt(0)
	for i := 0; i < 6; i++ {
		writeFile(t, client, fmt.Sprintf("/auto/%d", i), randomData(40))
	}
	images, err := store.List(fsimagePrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(images) == 0 {
		t.Fatal("no automatic fsimage saved")
	}
	edits, err := store.List(editsPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(edits) >= 18 {
		t.Errorf("edit log not pruned: %d records survive with checkpoint-every-5", len(edits))
	}
	recovered := recoverNameNode(t, store, c.DataNodes)
	if got, want := recovered.MetadataDigest(), c.NameNode.MetadataDigest(); got != want {
		t.Fatalf("recovered metadata diverges\nlive:\n%s\nrecovered:\n%s", want, got)
	}
}

// TestAttachJournalGuards: attaching requires a fresh NameNode and rejects
// double attachment.
func TestAttachJournalGuards(t *testing.T) {
	nn := NewNameNode(1)
	if err := nn.Register(DataNodeInfo{ID: "dn-0", Addr: "dn-0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.Create("/dirty"); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.AttachJournal(storage.NewMemStore()); err == nil {
		t.Error("journal attached to a namenode with existing state")
	}

	fresh := NewNameNode(1)
	if _, err := fresh.AttachJournal(storage.NewMemStore()); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.AttachJournal(storage.NewMemStore()); err == nil {
		t.Error("second journal attachment accepted")
	}
}

// gobBytes encodes v as the journal does.
func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// imageBelowItsBlocks is a journal store whose only fsimage passes its CRC
// and decodes, but says the next block is 1 while file /a holds blocks 1
// and 2. saveCheckpointLocked never writes such an image.
func imageBelowItsBlocks(t testing.TB) *storage.MemStore {
	t.Helper()
	store := storage.NewMemStore()
	img := fsimageData{NextBlock: 1, Files: []journalFile{{Path: "/a", Open: true, Blocks: []BlockID{1, 2}}}}
	if err := writeObject(store, fsimageName(3), gobBytes(t, img)); err != nil {
		t.Fatal(err)
	}
	return store
}

// GIVEN imageBelowItsBlocks,
// WHEN a fresh NameNode recovers from it and /a asks for a block,
// THEN recovery skips the image, as it skips one that fails to decode:
// /a is not there, and no block ID is handed out a second time.
func TestFsimageBelowItsOwnBlocksIsCorrupt(t *testing.T) {
	store := imageBelowItsBlocks(t)
	nn := NewNameNode(1)
	if err := nn.Register(DataNodeInfo{ID: "dn-0", Addr: "dn-0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.AttachJournal(store); err != nil {
		t.Fatal(err)
	}
	if loc, err := nn.AddBlock("/a", ""); err == nil {
		t.Fatalf("recovered /a from an image below its own blocks, and its next block is %d\n%s", loc.ID, nn.MetadataDigest())
	}
	requireRecoveredBlocksUnique(t, nn)
}

// GIVEN an edit log that creates /a, adds block 1 to it, adds block 1 to
// it again and completes it — every record CRC-valid and in sequence,
// WHEN a fresh NameNode recovers from it,
// THEN it refuses with ErrJournalCorrupt: AddBlock journals the next ID it
// hands out, so a log whose IDs do not climb lists a live block twice.
func TestEditReissuingABlockIsCorrupt(t *testing.T) {
	store := storage.NewMemStore()
	for i, rec := range []editRecord{
		{Op: editCreate, Path: "/a"},
		{Op: editAddBlock, Path: "/a", Block: 1},
		{Op: editAddBlock, Path: "/a", Block: 1},
		{Op: editComplete, Path: "/a", Size: 10},
	} {
		rec.Seq = uint64(i + 1)
		if err := writeObject(store, editName(rec.Seq), gobBytes(t, rec)); err != nil {
			t.Fatal(err)
		}
	}
	nn := NewNameNode(1)
	if _, err := nn.AttachJournal(store); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("recovery = %v, want ErrJournalCorrupt\n%s", err, nn.MetadataDigest())
	}
}

// requireRecoveredBlocksUnique checks what recovery must leave behind
// whatever the store held: nextBlock above every block ID in the
// namespace, and no block ID in two places.
func requireRecoveredBlocksUnique(t testing.TB, nn *NameNode) {
	t.Helper()
	paths := make([]string, 0, len(nn.files))
	for path := range nn.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	owner := make(map[BlockID]string)
	for _, path := range paths {
		for _, b := range nn.files[path].info.Blocks {
			if b.ID >= nn.nextBlock {
				t.Fatalf("%s holds block %d, and the next block handed out is %d", path, b.ID, nn.nextBlock)
			}
			if prev, dup := owner[b.ID]; dup {
				t.Fatalf("block %d is listed by %s and again by %s", b.ID, prev, path)
			}
			owner[b.ID] = path
		}
	}
}

// journalObjects encodes a journal store's objects as FuzzJournalReplay
// reads them: per object a kind byte (bit 0 fsimage, else edit; bit 1 a
// raw object with no CRC trailer added), its sequence number in one byte,
// a big-endian 16-bit payload length and the payload.
func journalObjects(t testing.TB, store *storage.MemStore) []byte {
	t.Helper()
	var out []byte
	for kind, prefix := range []string{editsPrefix, fsimagePrefix} {
		names, err := store.List(prefix)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			seq, err := seqOf(name, prefix)
			if err != nil || seq > 255 {
				t.Fatalf("object %q: seq %d, %v", name, seq, err)
			}
			payload, err := readObject(store, name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, byte(kind), byte(seq), byte(len(payload)>>8), byte(len(payload)))
			out = append(out, payload...)
		}
	}
	return out
}

// journalStore is journalObjects' inverse; a short tail is dropped.
func journalStore(t testing.TB, data []byte) *storage.MemStore {
	t.Helper()
	store := storage.NewMemStore()
	for len(data) >= 4 {
		kind, seq, n := data[0], uint64(data[1]), int(data[2])<<8|int(data[3])
		payload := data[4:min(4+n, len(data))]
		data = data[len(payload)+4:]
		name := editName(seq)
		if kind&1 != 0 {
			name = fsimageName(seq)
		}
		if kind&2 == 0 {
			if err := writeObject(store, name, payload); err != nil {
				t.Fatal(err)
			}
			continue
		}
		w, err := store.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// GIVEN any objects in a NameNode's journal store — the edits and fsimages
// a live workload writes, mutated, or the inconsistent image above —
// WHEN a fresh NameNode recovers from the store,
// THEN it refuses with ErrJournalCorrupt, or it recovers a namespace whose
// next block is above every block ID it holds and that lists no block ID
// twice; it never panics.
func FuzzJournalReplay(f *testing.F) {
	store := storage.NewMemStore()
	c := liveJournal(f, store)
	f.Add(journalObjects(f, store))
	if err := c.NameNode.SaveCheckpoint(); err != nil {
		f.Fatal(err)
	}
	writeFile(f, c.ClientAt(0), "/j/after", randomData(300))
	f.Add(journalObjects(f, store))
	f.Add(journalObjects(f, imageBelowItsBlocks(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		nn := NewNameNode(1)
		if _, err := nn.AttachJournal(journalStore(t, data)); err != nil {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("recovery failed with %v, want ErrJournalCorrupt", err)
			}
			return
		}
		requireRecoveredBlocksUnique(t, nn)
	})
}
