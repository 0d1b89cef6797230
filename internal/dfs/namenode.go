package dfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"preemptsched/internal/obs"
)

// NameNode owns the file namespace and the block map. It is safe for
// concurrent use.
type NameNode struct {
	mu          sync.Mutex
	replication int
	nextBlock   BlockID
	nodes       map[string]DataNodeInfo // by ID
	nodeOrder   []string                // sorted IDs for deterministic placement
	lastSeen    map[string]time.Time    // heartbeat timestamps by ID
	files       map[string]*fileEntry
	rrCursor    int
	// clock supplies wall time for the liveness view; tests override it.
	clock func() time.Time
	obs   *obs.Registry
	// journal, when attached, write-ahead-logs every namespace mutation so
	// a restarted NameNode replays to identical metadata (replica locations
	// are not journaled; block reports reconcile them, as in HDFS).
	journal *Journal
	// ckptEvery > 0 saves an fsimage snapshot automatically after that many
	// journaled edits; editsSinceCkpt counts toward the next snapshot.
	ckptEvery      int
	editsSinceCkpt int
	// transport is how the NameNode reaches DataNodes: every re-replication
	// (after a bad-replica report or a decommission) copies blocks through
	// it. Nil disables healing, leaving such blocks under-replicated.
	transport Transport
}

type fileEntry struct {
	info FileInfo
	open bool
}

// NewNameNode creates a NameNode that places each block on up to
// replication replicas (clamped to the number of registered DataNodes;
// HDFS default is 3).
func NewNameNode(replication int) *NameNode {
	if replication <= 0 {
		replication = 3
	}
	return &NameNode{
		replication: replication,
		nodes:       make(map[string]DataNodeInfo),
		lastSeen:    make(map[string]time.Time),
		files:       make(map[string]*fileEntry),
		nextBlock:   1,
		clock:       time.Now,
	}
}

var _ NameNodeAPI = (*NameNode)(nil)

// Instrument directs dfs.namenode.* namespace-operation counters into reg.
// A nil reg turns instrumentation off.
func (n *NameNode) Instrument(reg *obs.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.obs = reg
}

// SetClock overrides the liveness clock (tests drive time by hand).
func (n *NameNode) SetClock(clock func() time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clock = clock
}

// AttachTransport supplies the one transport the NameNode reaches
// DataNodes through: re-replication after ReportBadReplica, Decommission
// and SweepDead copy blocks over it. Without it, bad replicas are still
// quarantined and dead nodes still removed, but nothing is re-replicated.
func (n *NameNode) AttachTransport(t Transport) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.transport = t
}

// Register implements NameNodeAPI.
func (n *NameNode) Register(dn DataNodeInfo) error {
	if dn.ID == "" {
		return errors.New("dfs: datanode with empty ID")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.registerLocked(dn)
	return nil
}

func (n *NameNode) registerLocked(dn DataNodeInfo) {
	if _, known := n.nodes[dn.ID]; !known {
		n.nodeOrder = append(n.nodeOrder, dn.ID)
		sort.Strings(n.nodeOrder)
	}
	n.nodes[dn.ID] = dn
	n.lastSeen[dn.ID] = n.clock()
}

// Heartbeat implements NameNodeAPI: it refreshes the node's liveness
// timestamp, registering it when unknown (so a restarted DataNode rejoins
// on its first heartbeat, as in HDFS).
func (n *NameNode) Heartbeat(dn DataNodeInfo) error {
	if dn.ID == "" {
		return errors.New("dfs: heartbeat with empty ID")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.registerLocked(dn)
	return nil
}

// Unregister removes a DataNode (crash or decommission). Blocks whose
// only replicas lived there become unreadable; readers fall back across
// remaining replicas.
func (n *NameNode) Unregister(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, known := n.nodes[id]; !known {
		return
	}
	delete(n.nodes, id)
	delete(n.lastSeen, id)
	for i, v := range n.nodeOrder {
		if v == id {
			n.nodeOrder = append(n.nodeOrder[:i], n.nodeOrder[i+1:]...)
			break
		}
	}
}

// DataNodes returns the registered DataNodes sorted by ID.
func (n *NameNode) DataNodes() []DataNodeInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]DataNodeInfo, 0, len(n.nodeOrder))
	for _, id := range n.nodeOrder {
		out = append(out, n.nodes[id])
	}
	return out
}

// DeadNodes returns the IDs of registered DataNodes whose last heartbeat
// (or registration) is older than maxAge.
func (n *NameNode) DeadNodes(maxAge time.Duration) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	cutoff := n.clock().Add(-maxAge)
	var dead []string
	for _, id := range n.nodeOrder {
		if n.lastSeen[id].Before(cutoff) {
			dead = append(dead, id)
		}
	}
	return dead
}

// SweepDead decommissions every DataNode that has not heartbeated within
// maxAge, re-replicating its blocks from surviving replicas through the
// attached transport. It returns the per-node replication reports. This
// is the NameNode-driven recovery HDFS runs after a heartbeat timeout;
// callers run it periodically (cmd/dfs) or after a known crash.
func (n *NameNode) SweepDead(maxAge time.Duration) map[string]*ReplicationReport {
	reports := make(map[string]*ReplicationReport)
	for _, id := range n.DeadNodes(maxAge) {
		reports[id] = n.Decommission(id)
	}
	return reports
}

// Create implements NameNodeAPI.
func (n *NameNode) Create(path string) ([]BlockLocation, error) {
	if path == "" {
		return nil, &PathError{Op: "create", Path: path, Err: errors.New("empty path")}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var stale []BlockLocation
	if old, ok := n.files[path]; ok {
		if old.open {
			return nil, &PathError{Op: "create", Path: path, Err: ErrFileOpen}
		}
		// Detach: the caller walks stale to delete replicas after the
		// lock is released, and must not hold the entry's live slice.
		stale = append([]BlockLocation(nil), old.info.Blocks...)
	}
	if err := n.commitLocked(editRecord{Op: editCreate, Path: path}); err != nil {
		return nil, &PathError{Op: "create", Path: path, Err: err}
	}
	n.obs.Inc("dfs.namenode.creates")
	return stale, nil
}

// AddBlock implements NameNodeAPI.
func (n *NameNode) AddBlock(path, preferred string) (BlockLocation, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f, ok := n.files[path]
	if !ok {
		return BlockLocation{}, &PathError{Op: "addblock", Path: path, Err: ErrNotFound}
	}
	if !f.open {
		return BlockLocation{}, &PathError{Op: "addblock", Path: path, Err: ErrSealed}
	}
	if len(n.nodeOrder) == 0 {
		return BlockLocation{}, &PathError{Op: "addblock", Path: path, Err: ErrNoDataNodes}
	}
	if err := n.commitLocked(editRecord{Op: editAddBlock, Path: path, Block: n.nextBlock}); err != nil {
		return BlockLocation{}, &PathError{Op: "addblock", Path: path, Err: err}
	}
	loc := &f.info.Blocks[len(f.info.Blocks)-1]
	loc.Replicas = n.placeReplicas(preferred)
	n.obs.Inc("dfs.namenode.blocks.allocated")
	// Return a detached replica slice: the stored one is mutated in place
	// by re-replication sweeps, and the caller reads its copy lock-free
	// as the write pipeline.
	return BlockLocation{ID: loc.ID, Replicas: append([]DataNodeInfo(nil), loc.Replicas...)}, nil
}

// ReportBlock implements NameNodeAPI: the client reconstructed the write
// pipeline of a block and reports where the data actually landed.
func (n *NameNode) ReportBlock(path string, id BlockID, replicas []DataNodeInfo) error {
	if len(replicas) == 0 {
		return &PathError{Op: "reportblock", Path: path, Err: errors.New("empty replica set")}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.files[path]; !ok {
		return &PathError{Op: "reportblock", Path: path, Err: ErrNotFound}
	}
	if loc := n.blockLocked(path, id); loc != nil {
		loc.Replicas = append([]DataNodeInfo(nil), replicas...)
		return nil
	}
	return &PathError{Op: "reportblock", Path: path, Err: ErrUnknownBlock}
}

// blockLocked returns block id of the file at path, or nil when the file
// is gone or no longer lists the block. Callers must hold n.mu.
func (n *NameNode) blockLocked(path string, id BlockID) *BlockLocation {
	if f, ok := n.files[path]; ok {
		for i := range f.info.Blocks {
			if f.info.Blocks[i].ID == id {
				return &f.info.Blocks[i]
			}
		}
	}
	return nil
}

// sortedPathsLocked returns every path in the namespace in sorted order,
// the walk that keeps lookups, copy targets and snapshots deterministic.
// Callers must hold n.mu.
func (n *NameNode) sortedPathsLocked() []string {
	paths := make([]string, 0, len(n.files))
	for path := range n.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// findBlockLocked scans the namespace for a block by ID, returning its
// path and location. Callers must hold n.mu. Paths are walked in sorted
// order so lookups are deterministic.
func (n *NameNode) findBlockLocked(id BlockID) (string, *BlockLocation, bool) {
	for _, path := range n.sortedPathsLocked() {
		if loc := n.blockLocked(path, id); loc != nil {
			return path, loc, true
		}
	}
	return "", nil, false
}

// ReportBadReplica implements NameNodeAPI: a reader or scrubber caught one
// replica of a block failing checksum verification. The copy is
// quarantined — dropped from the block map and deleted from the node —
// and, when a transport is attached, the block is re-replicated from a
// verified surviving replica onto a fresh target. Reads of a corrupt
// replica thus behave exactly like reads of a dead one: fail over,
// report, self-heal.
func (n *NameNode) ReportBadReplica(id BlockID, bad DataNodeInfo) error {
	n.mu.Lock()
	path, loc, ok := n.findBlockLocked(id)
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("dfs: bad-replica report for block %d: %w", id, ErrUnknownBlock)
	}
	r, held := n.dropReplicaLocked(path, loc, bad.ID)
	reg := n.obs
	n.mu.Unlock()
	if !held {
		// Already quarantined (another reader or the scrubber won the
		// race); reporting is idempotent.
		return nil
	}
	if r.transport != nil {
		// Evict the bad copy first so the node itself is a legal target for
		// the fresh verified copy.
		if api, err := r.transport.DataNode(bad); err == nil {
			_ = api.DeleteBlock(id)
		}
	}
	deltas := map[string]int64{"dfs.namenode.replicas.quarantined": 1}
	switch {
	case len(r.survivors) == 0:
		deltas["dfs.namenode.corrupt.lost"] = 1
	case n.heal(r):
		deltas["dfs.namenode.corrupt.rereplicated"] = 1
	default:
		deltas["dfs.namenode.corrupt.degraded"] = 1
	}
	reg.AddN(deltas)
	return nil
}

// BlockReport implements NameNodeAPI: a DataNode announces every block it
// holds. Known blocks gain the node as a replica (how a journal-recovered
// NameNode, whose edit log deliberately omits replica locations,
// reconciles its block map); blocks the namespace no longer references
// are returned for the reporter to delete.
func (n *NameNode) BlockReport(dn DataNodeInfo, blocks []BlockID) ([]BlockID, error) {
	if dn.ID == "" {
		return nil, errors.New("dfs: block report with empty ID")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.registerLocked(dn)

	// Index every referenced block once, then walk the report.
	known := make(map[BlockID]*BlockLocation)
	for _, f := range n.files {
		for bi := range f.info.Blocks {
			known[f.info.Blocks[bi].ID] = &f.info.Blocks[bi]
		}
	}
	var stale []BlockID
	for _, id := range blocks {
		if loc, ok := known[id]; ok {
			loc.Replicas = addReplica(loc.Replicas, dn)
		} else {
			stale = append(stale, id)
		}
	}
	n.obs.Inc("dfs.namenode.block.reports")
	return stale, nil
}

// placeReplicas chooses up to n.replication distinct DataNodes, putting the
// preferred (client-local) node first when it exists — HDFS's
// write-locality rule — and filling the rest round-robin for even spread.
// Callers must hold n.mu.
func (n *NameNode) placeReplicas(preferred string) []DataNodeInfo {
	want := n.replication
	if want > len(n.nodeOrder) {
		want = len(n.nodeOrder)
	}
	replicas := make([]DataNodeInfo, 0, want)
	used := make(map[string]bool, want)
	if dn, ok := n.nodes[preferred]; ok {
		replicas = append(replicas, dn)
		used[preferred] = true
	}
	for len(replicas) < want {
		id := n.nodeOrder[n.rrCursor%len(n.nodeOrder)]
		n.rrCursor++
		if used[id] {
			continue
		}
		replicas = append(replicas, n.nodes[id])
		used[id] = true
	}
	return replicas
}

// Complete implements NameNodeAPI.
func (n *NameNode) Complete(path string, size int64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	f, ok := n.files[path]
	if !ok {
		return &PathError{Op: "complete", Path: path, Err: ErrNotFound}
	}
	if !f.open {
		return &PathError{Op: "complete", Path: path, Err: ErrSealed}
	}
	if size < 0 {
		return &PathError{Op: "complete", Path: path, Err: fmt.Errorf("negative size %d", size)}
	}
	if err := n.commitLocked(editRecord{Op: editComplete, Path: path, Size: size}); err != nil {
		return &PathError{Op: "complete", Path: path, Err: err}
	}
	return nil
}

// Stat implements NameNodeAPI.
func (n *NameNode) Stat(path string) (FileInfo, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f, ok := n.files[path]
	if !ok {
		return FileInfo{}, &PathError{Op: "stat", Path: path, Err: ErrNotFound}
	}
	if !f.info.Complete {
		return FileInfo{}, &PathError{Op: "stat", Path: path, Err: ErrIncomplete}
	}
	return cloneInfo(f.info), nil
}

// Delete implements NameNodeAPI.
func (n *NameNode) Delete(path string) (FileInfo, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f, ok := n.files[path]
	if !ok {
		return FileInfo{}, &PathError{Op: "delete", Path: path, Err: ErrNotFound}
	}
	if err := n.commitLocked(editRecord{Op: editDelete, Path: path}); err != nil {
		return FileInfo{}, &PathError{Op: "delete", Path: path, Err: err}
	}
	return cloneInfo(f.info), nil
}

// List implements NameNodeAPI.
func (n *NameNode) List(prefix string) ([]string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for path, f := range n.files {
		if f.info.Complete && strings.HasPrefix(path, prefix) {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out, nil
}

func cloneInfo(info FileInfo) FileInfo {
	out := info
	out.Blocks = make([]BlockLocation, len(info.Blocks))
	for i, b := range info.Blocks {
		out.Blocks[i] = BlockLocation{ID: b.ID, Replicas: append([]DataNodeInfo(nil), b.Replicas...)}
	}
	return out
}
