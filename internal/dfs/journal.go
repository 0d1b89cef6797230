package dfs

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The NameNode journal makes the control plane crash-recoverable, in the
// shape of HDFS's edit-log/fsimage pair: every namespace mutation is
// write-ahead-logged as one durable record before it is applied, and a
// periodic fsimage snapshot bounds replay time. Replica locations are
// deliberately NOT journaled — after a restart, DataNode block reports
// reconcile the block map, exactly as in HDFS — so the journal stays
// small and never goes stale when the cluster heals itself underneath.
//
// Records and snapshots are stored as individual objects in a pluggable
// storage.Store ("edits/<seq>", "fsimage/<seq>"). Both MemStore (tests)
// and FileStore (cmd/dfs -journal-dir) publish objects atomically, so a
// crash mid-record leaves no record at all: the tail of the log is the
// last fully synced mutation, never a torn one.

const (
	editsPrefix   = "edits/"
	fsimagePrefix = "fsimage/"
)

// ErrJournalCorrupt wraps integrity failures while reading the journal
// (bad CRC, undecodable record, sequence gap).
var ErrJournalCorrupt = errors.New("dfs: corrupt journal")

type editOp uint8

const (
	editCreate editOp = iota + 1
	editAddBlock
	editComplete
	editDelete
)

// editRecord is one journaled namespace mutation.
type editRecord struct {
	Seq   uint64
	Op    editOp
	Path  string
	Block BlockID
	Size  int64
}

// journalFile is one file entry inside an fsimage snapshot. Replica
// locations are omitted on purpose (see package comment above).
type journalFile struct {
	Path     string
	Size     int64
	Complete bool
	Open     bool
	Blocks   []BlockID
}

// fsimageData is a full namespace snapshot covering every edit up to and
// including the sequence number encoded in the object name.
type fsimageData struct {
	NextBlock BlockID
	Files     []journalFile
}

// consistent reports whether img could have been written by
// saveCheckpointLocked: NextBlock is positive, and every block ID it lists
// is positive, below NextBlock and listed once. Recovery trusts NextBlock
// as the next ID to hand out, so an image that fails this would reissue a
// live block; it is treated as corrupt, like one that fails its CRC or does
// not decode.
func (img *fsimageData) consistent() bool {
	if img.NextBlock < 1 {
		return false
	}
	seen := make(map[BlockID]bool)
	for _, f := range img.Files {
		for _, id := range f.Blocks {
			if id < 1 || id >= img.NextBlock || seen[id] {
				return false
			}
			seen[id] = true
		}
	}
	return true
}

// Journal appends edit records and fsimage snapshots to a store. All
// methods are driven under the owning NameNode's mutex.
type Journal struct {
	store storageStore
	// seq is the sequence number of the last durable record.
	seq uint64
}

// storageStore is the narrow slice of storage.Store the journal needs,
// declared locally so internal/dfs does not grow its storage import
// surface beyond the client's.
type storageStore interface {
	Create(name string) (io.WriteCloser, error)
	Open(name string) (io.ReadCloser, error)
	Remove(name string) error
	List(prefix string) ([]string, error)
}

func editName(seq uint64) string    { return fmt.Sprintf("%s%020d", editsPrefix, seq) }
func fsimageName(seq uint64) string { return fmt.Sprintf("%s%020d", fsimagePrefix, seq) }

func seqOf(name, prefix string) (uint64, error) {
	return strconv.ParseUint(strings.TrimPrefix(name, prefix), 10, 64)
}

// writeObject publishes payload+CRC32 as one object. The store's Close
// is the durability point.
func writeObject(store storageStore, name string, payload []byte) error {
	w, err := store.Create(name)
	if err != nil {
		return err
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(payload); err != nil {
		w.Close()
		_ = store.Remove(name)
		return err
	}
	if _, err := w.Write(crc[:]); err != nil {
		w.Close()
		_ = store.Remove(name)
		return err
	}
	if err := w.Close(); err != nil {
		_ = store.Remove(name)
		return err
	}
	return nil
}

// readObject loads an object and verifies its CRC32 trailer.
func readObject(store storageStore, name string) ([]byte, error) {
	r, err := store.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: object %q too short", ErrJournalCorrupt, name)
	}
	payload, crc := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: object %q failed crc", ErrJournalCorrupt, name)
	}
	return payload, nil
}

// append write-ahead-logs one record. It does not advance j.seq; the
// caller commits the sequence number only after the append succeeded.
func (j *Journal) append(rec editRecord) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return err
	}
	return writeObject(j.store, editName(rec.Seq), buf.Bytes())
}

// recoverInto replays the newest valid fsimage plus every edit after it
// into a fresh NameNode (caller holds n.mu) and positions the journal at
// the tail. It returns the number of edit records replayed.
func (j *Journal) recoverInto(n *NameNode) (int, error) {
	images, err := j.store.List(fsimagePrefix)
	if err != nil {
		return 0, fmt.Errorf("dfs: list fsimages: %w", err)
	}
	var base uint64
	// Newest first: an fsimage that fails its CRC falls back to an older
	// one; the edits still on disk bridge the difference.
	for i := len(images) - 1; i >= 0; i-- {
		seq, err := seqOf(images[i], fsimagePrefix)
		if err != nil {
			continue
		}
		payload, err := readObject(j.store, images[i])
		if err != nil {
			continue
		}
		var img fsimageData
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img); err != nil || !img.consistent() {
			continue
		}
		n.nextBlock = img.NextBlock
		for _, f := range img.Files {
			entry := &fileEntry{
				info: FileInfo{Path: f.Path, Size: f.Size, Complete: f.Complete},
				open: f.Open,
			}
			for _, id := range f.Blocks {
				entry.info.Blocks = append(entry.info.Blocks, BlockLocation{ID: id})
			}
			n.files[f.Path] = entry
		}
		base = seq
		break
	}

	edits, err := j.store.List(editsPrefix)
	if err != nil {
		return 0, fmt.Errorf("dfs: list edits: %w", err)
	}
	sort.Strings(edits)
	j.seq = base
	replayed := 0
	for i, name := range edits {
		seq, err := seqOf(name, editsPrefix)
		if err != nil || seq <= base {
			continue // pruning leftovers below the fsimage
		}
		if seq != j.seq+1 {
			return replayed, fmt.Errorf("%w: edit %d follows %d (gap)", ErrJournalCorrupt, seq, j.seq)
		}
		payload, err := readObject(j.store, name)
		if err == nil {
			var rec editRecord
			if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); derr != nil {
				err = fmt.Errorf("%w: edit %d undecodable: %v", ErrJournalCorrupt, seq, derr)
			} else if rec.Seq != seq {
				err = fmt.Errorf("%w: edit %d carries seq %d", ErrJournalCorrupt, seq, rec.Seq)
			} else if aerr := n.applyEditLocked(rec); aerr != nil {
				err = aerr
			}
		}
		if err != nil {
			// A damaged tail record is a torn final write: recovery stops
			// at the last good mutation. Damage in the middle of the log
			// means real loss and is fatal.
			if i == len(edits)-1 {
				break
			}
			return replayed, err
		}
		j.seq = seq
		replayed++
	}
	return replayed, nil
}

// applyEditLocked replays one journal record against the namespace.
// Callers must hold n.mu.
func (n *NameNode) applyEditLocked(rec editRecord) error {
	switch rec.Op {
	case editCreate:
		n.files[rec.Path] = &fileEntry{info: FileInfo{Path: rec.Path}, open: true}
	case editAddBlock:
		f, ok := n.files[rec.Path]
		if !ok {
			return fmt.Errorf("%w: addblock %d for unknown file %q", ErrJournalCorrupt, rec.Block, rec.Path)
		}
		// AddBlock journals the next ID it hands out, so IDs in the log
		// only climb; one below nextBlock would be a second copy of a live
		// block, and the largest ID would leave no next one.
		if rec.Block < n.nextBlock || rec.Block == math.MaxInt64 {
			return fmt.Errorf("%w: addblock %d for %q, next block is %d", ErrJournalCorrupt, rec.Block, rec.Path, n.nextBlock)
		}
		f.info.Blocks = append(f.info.Blocks, BlockLocation{ID: rec.Block})
		n.nextBlock = rec.Block + 1
	case editComplete:
		f, ok := n.files[rec.Path]
		if !ok {
			return fmt.Errorf("%w: complete for unknown file %q", ErrJournalCorrupt, rec.Path)
		}
		f.info.Size = rec.Size
		f.info.Complete = true
		f.open = false
	case editDelete:
		delete(n.files, rec.Path)
	default:
		return fmt.Errorf("%w: unknown edit op %d", ErrJournalCorrupt, rec.Op)
	}
	return nil
}

// logEditLocked write-ahead-logs a mutation about to be applied. Callers
// hold n.mu and must abandon the mutation when this fails: a change that
// is not durable must not become visible.
func (n *NameNode) logEditLocked(rec editRecord) error {
	if n.journal == nil {
		return nil
	}
	rec.Seq = n.journal.seq + 1
	if err := n.journal.append(rec); err != nil {
		n.obs.Inc("dfs.namenode.journal.errors")
		return fmt.Errorf("journal append: %w", err)
	}
	n.journal.seq = rec.Seq
	n.obs.Inc("dfs.namenode.journal.records")
	n.editsSinceCkpt++
	if n.ckptEvery > 0 && n.editsSinceCkpt >= n.ckptEvery {
		// The current record is durable but not yet applied, so this
		// snapshot covers seq-1; the record itself replays on recovery.
		n.saveCheckpointLocked(rec.Seq - 1)
	}
	return nil
}

// saveCheckpointLocked snapshots the namespace as an fsimage covering
// edits up to upTo, then prunes superseded edits and older images. A
// failed snapshot is non-fatal: the edit log alone still recovers.
func (n *NameNode) saveCheckpointLocked(upTo uint64) error {
	img := fsimageData{NextBlock: n.nextBlock}
	paths := make([]string, 0, len(n.files))
	for path := range n.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		f := n.files[path]
		jf := journalFile{
			Path:     path,
			Size:     f.info.Size,
			Complete: f.info.Complete,
			Open:     f.open,
		}
		for _, b := range f.info.Blocks {
			jf.Blocks = append(jf.Blocks, b.ID)
		}
		img.Files = append(img.Files, jf)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		n.obs.Inc("dfs.namenode.fsimage.errors")
		return err
	}
	if err := writeObject(n.journal.store, fsimageName(upTo), buf.Bytes()); err != nil {
		n.obs.Inc("dfs.namenode.fsimage.errors")
		return err
	}
	n.editsSinceCkpt = 0
	n.obs.Inc("dfs.namenode.fsimage.saves")

	// Prune: edits the image covers, and any older images.
	if edits, err := n.journal.store.List(editsPrefix); err == nil {
		for _, name := range edits {
			if seq, err := seqOf(name, editsPrefix); err == nil && seq <= upTo {
				_ = n.journal.store.Remove(name)
			}
		}
	}
	if images, err := n.journal.store.List(fsimagePrefix); err == nil {
		for _, name := range images {
			if seq, err := seqOf(name, fsimagePrefix); err == nil && seq < upTo {
				_ = n.journal.store.Remove(name)
			}
		}
	}
	return nil
}

// AttachJournal binds a journal store to a freshly constructed NameNode:
// existing state (fsimage + edits) is replayed first, then every
// subsequent namespace mutation is write-ahead-logged. It returns the
// number of edit records replayed. The NameNode must not have served any
// mutation yet; replica locations reappear as DataNodes re-register and
// send block reports.
func (n *NameNode) AttachJournal(store storageStore) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.journal != nil {
		return 0, errors.New("dfs: journal already attached")
	}
	if len(n.files) > 0 || n.nextBlock != 1 {
		return 0, errors.New("dfs: journal attached to a non-fresh namenode")
	}
	j := &Journal{store: store}
	replayed, err := j.recoverInto(n)
	if err != nil {
		return replayed, err
	}
	n.journal = j
	return replayed, nil
}

// SetCheckpointEvery makes the NameNode save an fsimage automatically
// after every k journaled edits (0 disables automatic snapshots).
func (n *NameNode) SetCheckpointEvery(k int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ckptEvery = k
}

// SaveCheckpoint snapshots the namespace now, covering every durable
// edit, and prunes the superseded journal tail.
func (n *NameNode) SaveCheckpoint() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.journal == nil {
		return errors.New("dfs: no journal attached")
	}
	return n.saveCheckpointLocked(n.journal.seq)
}

// MetadataDigest renders the namespace and block map in a canonical form
// (sorted paths, sorted replica IDs per block) so two NameNodes — e.g. a
// crash-recovered one and a never-crashed control — can be compared
// byte-for-byte regardless of replica-set ordering.
func (n *NameNode) MetadataDigest() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	paths := make([]string, 0, len(n.files))
	for path := range n.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, path := range paths {
		f := n.files[path]
		fmt.Fprintf(&b, "%s size=%d complete=%v open=%v\n", path, f.info.Size, f.info.Complete, f.open)
		for _, blk := range f.info.Blocks {
			ids := make([]string, 0, len(blk.Replicas))
			for _, r := range blk.Replicas {
				ids = append(ids, r.ID)
			}
			sort.Strings(ids)
			fmt.Fprintf(&b, "  block %d @ [%s]\n", blk.ID, strings.Join(ids, ","))
		}
	}
	return b.String()
}
