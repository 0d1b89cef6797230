package dfs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"preemptsched/internal/obs"
)

// storedBlock is one replica at rest: the payload plus the per-chunk
// CRC32C checksums computed when the bytes landed. Reads verify the
// payload against the sums, so at-rest corruption is detected at the
// first touch. A replica is immutable (a slice in DataNode.blocks is replaced,
// never written), so it is checksummed, verified and sent without the lock.
//
// A listed replica (see listedSize) also counts its holders: the blocks map,
// each in-flight read of it and the pipeline forward that sends it on. The
// last holder to let go gives data back to the block list, so a deleted
// replica's storage carries the next block that lands, with no fresh frame
// to allocate and zero. Any other replica is left to the collector.
type storedBlock struct {
	data []byte
	sums []uint32
	held *replicaHolds // nil unless listed
}

// replicaHolds is a listed replica's holder count, with its checksums in the
// same object: a listed replica costs one allocation besides its payload,
// as any other does for its sums alone.
type replicaHolds struct {
	n    atomic.Int32
	sums [DefaultBlockSize / ChecksumChunkSize]uint32
}

// listedReplicaMin is the smallest payload a replica keeps in listed
// storage. A listed buffer can be as large as DefaultBlockSize, so a replica
// below half of it could pin more than twice its bytes. In ckpt-dfs that
// lists the 8 MiB blocks, three quarters of the replica bytes stored; a
// 512 KiB threshold, which lists the 0.84 MB incremental images too, cut
// alloc_kb_per_op 45 % instead of 35 % at the same throughput (median 31.3
// and 30.3 ops/s over four rounds), but could pin 16 x a replica's bytes.
const listedReplicaMin = DefaultBlockSize / 2

// listedSize reports whether a replica of n bytes is kept in listed storage.
func listedSize(n int) bool { return n >= listedReplicaMin && n <= DefaultBlockSize }

// newStoredBlock checksums data, which the replica takes over, and gives the
// new replica to the caller as its one holder.
func newStoredBlock(data []byte) storedBlock {
	if !listedSize(len(data)) {
		return storedBlock{data: data, sums: checksumChunks(data)}
	}
	h := new(replicaHolds)
	h.n.Store(1)
	return storedBlock{data: data, sums: appendChecksums(h.sums[:0], data), held: h}
}

// hold adds a holder; the caller must already be one, or hold d.mu while b
// is in the map.
func (b storedBlock) hold() {
	if b.held != nil {
		b.held.n.Add(1)
	}
}

// release drops one hold; the last gives a listed replica's storage back.
func (b storedBlock) release() {
	if b.held != nil && b.held.n.Add(-1) == 0 {
		putBlock(b.data)
	}
}

// DataNode stores checksummed blocks and participates in write pipelines.
// It is safe for concurrent use.
type DataNode struct {
	info      DataNodeInfo
	transport Transport
	obs       *obs.Registry

	mu     sync.RWMutex
	blocks map[BlockID]storedBlock
	down   bool
}

// NewDataNode creates a DataNode that reaches pipeline peers through
// transport.
func NewDataNode(info DataNodeInfo, transport Transport) *DataNode {
	return &DataNode{info: info, transport: transport, blocks: make(map[BlockID]storedBlock)}
}

// Instrument directs dfs.datanode.* operation counters into reg. A nil
// reg turns instrumentation off. Call before serving traffic.
func (d *DataNode) Instrument(reg *obs.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.obs = reg
}

var _ DataNodeAPI = (*DataNode)(nil)

// Info returns the node's identity.
func (d *DataNode) Info() DataNodeInfo { return d.info }

// SetDown simulates a crash (failure injection): a down node fails every
// request until revived.
func (d *DataNode) SetDown(down bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.down = down
}

func (d *DataNode) checkUp() error {
	if d.down {
		return fmt.Errorf("dfs: datanode %s: %w", d.info.ID, ErrNodeDown)
	}
	return nil
}

// WriteBlock implements DataNodeAPI: store a copy locally with fresh
// checksums, then forward to the next pipeline stage. A pipeline failure
// after the local store leaves the block under-replicated but readable,
// matching HDFS semantics.
func (d *DataNode) WriteBlock(id BlockID, data []byte, pipeline []DataNodeInfo) error {
	return d.writeOwned(id, append([]byte(nil), data...), pipeline)
}

// writeOwned is WriteBlock for a caller that gives data away: the slice
// itself becomes the stored replica and must never be written again, and a
// listed one goes back to the block list once its last holder lets go.
func (d *DataNode) writeOwned(id BlockID, data []byte, pipeline []DataNodeInfo) error {
	b := newStoredBlock(data) // its hold passes to the map
	d.mu.Lock()
	err := d.checkUp()
	if err == nil {
		if old, ok := d.blocks[id]; ok {
			old.release()
		}
		d.blocks[id] = b
		if len(pipeline) > 0 {
			b.hold() // the forward's: a delete during it must not list the bytes
		}
	}
	reg := d.obs
	d.mu.Unlock()
	if err != nil {
		b.release()
		return err
	}
	reg.Inc("dfs.datanode.block.writes")
	reg.Add("dfs.datanode.bytes.written", int64(len(data)))

	if len(pipeline) == 0 {
		return nil
	}
	defer b.release()
	next, err := d.transport.DataNode(pipeline[0])
	if err != nil {
		return fmt.Errorf("dfs: datanode %s: dial pipeline peer %s: %w", d.info.ID, pipeline[0].ID, err)
	}
	if err := next.WriteBlock(id, data, pipeline[1:]); err != nil {
		return fmt.Errorf("dfs: datanode %s: forward block %d to %s: %w", d.info.ID, id, pipeline[0].ID, err)
	}
	return nil
}

// verified returns block id's replica as stored once it has passed its
// checksums, holding the lock for the map access only. The caller is one of
// the replica's holders and must release it.
func (d *DataNode) verified(id BlockID) (storedBlock, *obs.Registry, error) {
	d.mu.RLock()
	err := d.checkUp()
	b, ok := d.blocks[id]
	if err == nil && ok {
		b.hold()
	}
	reg := d.obs
	d.mu.RUnlock()
	if err != nil {
		return storedBlock{}, reg, err
	}
	err = ErrBlockMissing
	if ok {
		if err = verifyChunks(b.data, b.sums); err != nil {
			b.release()
		}
	}
	if err != nil {
		return storedBlock{}, reg, fmt.Errorf("dfs: datanode %s: block %d: %w", d.info.ID, id, err)
	}
	return b, reg, nil
}

// ReadBlock implements DataNodeAPI: the stored payload is re-verified
// against its checksums before a single byte leaves the node. The caller
// owns the returned copy, whose storage comes from the block list.
func (d *DataNode) ReadBlock(id BlockID) ([]byte, error) {
	stored, err := d.viewBlock(id)
	if err != nil {
		return nil, err
	}
	out := getBlock(len(stored.data))
	copy(out, stored.data)
	stored.release()
	return out, nil
}

// viewBlock is ReadBlock without the copy: the verified replica itself,
// which the caller must only read and then release.
func (d *DataNode) viewBlock(id BlockID) (storedBlock, error) {
	b, reg, err := d.verified(id)
	switch {
	case err == nil:
		reg.Inc("dfs.datanode.block.reads")
		reg.Add("dfs.datanode.bytes.read", int64(len(b.data)))
	case errors.Is(err, ErrCorruptBlock):
		reg.Inc("dfs.datanode.corrupt.reads")
	}
	return b, err
}

// DeleteBlock implements DataNodeAPI.
func (d *DataNode) DeleteBlock(id BlockID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkUp(); err != nil {
		return err
	}
	if b, ok := d.blocks[id]; ok {
		delete(d.blocks, id)
		b.release()
	}
	return nil
}

// VerifyBlock re-checks one stored block against its checksums without
// returning the payload: nil for intact, ErrBlockMissing for absent,
// ErrCorruptBlock identity for damaged. The scrubber's unit of work.
func (d *DataNode) VerifyBlock(id BlockID) error {
	b, _, err := d.verified(id)
	if err == nil {
		b.release()
	}
	return err
}

// BlockIDs returns the IDs of all stored blocks, sorted — the payload of
// a block report.
func (d *DataNode) BlockIDs() []BlockID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ids := make([]BlockID, 0, len(d.blocks))
	for id := range d.blocks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CorruptStoredBlock flips one bit of a stored block's payload without
// touching its checksums — the at-rest bit-rot the fault injector and the
// integrity tests drive. It reports whether the block existed. bit indexes
// into the payload's bits and is clamped by modulo. The rotted payload is an
// unlisted copy swapped in: a reader holding the replica keeps what it
// verified, and the map's hold on it is dropped.
func (d *DataNode) CorruptStoredBlock(id BlockID, bit int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.blocks[id]
	if !ok || len(b.data) == 0 {
		return false
	}
	if bit < 0 {
		bit = -bit
	}
	bit %= len(b.data) * 8
	rotted := storedBlock{data: append([]byte(nil), b.data...), sums: b.sums}
	rotted.data[bit/8] ^= 1 << (bit % 8)
	d.blocks[id] = rotted
	b.release()
	return true
}

// StoredBytes returns the total bytes stored on this node.
func (d *DataNode) StoredBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var n int64
	for _, b := range d.blocks {
		n += int64(len(b.data))
	}
	return n
}
