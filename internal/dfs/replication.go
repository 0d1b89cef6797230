package dfs

import "fmt"

// ReplicationReport summarizes a decommission's outcome.
type ReplicationReport struct {
	// BlocksAffected is how many blocks had a replica on the removed node.
	BlocksAffected int
	// Recovered is how many of those were re-replicated to a new node.
	Recovered int
	// Degraded is how many remain readable but under-replicated: no
	// eligible target existed, or no survivor could be copied onto it.
	Degraded int
	// Lost is how many blocks have no surviving replica.
	Lost int
}

// Decommission removes a DataNode from service and re-replicates every
// block it held from a surviving replica onto another node, restoring the
// replication factor where cluster membership allows — the NameNode-driven
// recovery path HDFS runs when a DataNode dies.
//
// Blocks whose only replica lived on the removed node are reported lost;
// their files will fail to read, and readers fall back across the
// remaining replicas for everything else.
func (n *NameNode) Decommission(id string) *ReplicationReport {
	n.Unregister(id)
	var repairs []repair
	n.mu.Lock()
	// Walk paths in sorted order: map iteration order would otherwise
	// randomize copy targets (round-robin cursor) and make seeded
	// fault-injection runs non-reproducible.
	for _, path := range n.sortedPathsLocked() {
		f := n.files[path]
		for bi := range f.info.Blocks {
			if r, held := n.dropReplicaLocked(path, &f.info.Blocks[bi], id); held {
				repairs = append(repairs, r)
			}
		}
	}
	reg := n.obs
	n.mu.Unlock()

	report := ReplicationReport{BlocksAffected: len(repairs)}
	for _, r := range repairs {
		switch {
		case len(r.survivors) == 0:
			report.Lost++
		case n.heal(r):
			report.Recovered++
		default:
			report.Degraded++
		}
	}
	reg.Inc("dfs.namenode.decommissions")
	reg.Add("dfs.namenode.blocks.recovered", int64(report.Recovered))
	reg.Add("dfs.namenode.blocks.degraded", int64(report.Degraded))
	reg.Add("dfs.namenode.blocks.lost", int64(report.Lost))
	return &report
}

// repair is one block's planned re-replication after a replica was
// dropped: the replicas that survive, and the node a fresh copy goes to.
type repair struct {
	path      string
	block     BlockID
	survivors []DataNodeInfo
	target    DataNodeInfo
	hasTarget bool
	transport Transport
}

// dropReplicaLocked removes node's replica from loc, a block of the file
// at path, and plans its repair. It reports false when node held no
// replica of the block. Callers must hold n.mu.
func (n *NameNode) dropReplicaLocked(path string, loc *BlockLocation, node string) (repair, bool) {
	for ri, r := range loc.Replicas {
		if r.ID == node {
			loc.Replicas = append(loc.Replicas[:ri], loc.Replicas[ri+1:]...)
			p := repair{path: path, block: loc.ID, transport: n.transport,
				survivors: append([]DataNodeInfo(nil), loc.Replicas...)}
			if len(p.survivors) > 0 {
				p.target, p.hasTarget = n.pickTargetLocked(p.survivors)
			}
			return p, true
		}
	}
	return repair{}, false
}

// heal carries out a repair outside n.mu: it copies the block onto the
// target from the first survivor that reads clean, then records the
// target once, and only if the block still exists. copyBlock reads
// through DataNode.ReadBlock, which verifies checksums, so a survivor that
// is corrupt or unreachable fails its copy and the next one is tried. It
// reports whether a copy landed.
func (n *NameNode) heal(r repair) bool {
	if r.transport == nil || !r.hasTarget {
		return false
	}
	for _, src := range r.survivors {
		if copyBlock(r.transport, r.block, src, r.target) == nil {
			n.mu.Lock()
			if loc := n.blockLocked(r.path, r.block); loc != nil {
				loc.Replicas = addReplica(loc.Replicas, r.target)
			}
			n.mu.Unlock()
			return true
		}
	}
	return false
}

// addReplica appends dn to replicas unless that node is already listed.
func addReplica(replicas []DataNodeInfo, dn DataNodeInfo) []DataNodeInfo {
	for _, r := range replicas {
		if r.ID == dn.ID {
			return replicas
		}
	}
	return append(replicas, dn)
}

// pickTargetLocked chooses a registered node not already holding the
// block. Callers must hold n.mu.
func (n *NameNode) pickTargetLocked(holders []DataNodeInfo) (DataNodeInfo, bool) {
	held := make(map[string]bool, len(holders))
	for _, h := range holders {
		held[h.ID] = true
	}
	for i := 0; i < len(n.nodeOrder); i++ {
		id := n.nodeOrder[n.rrCursor%len(n.nodeOrder)]
		n.rrCursor++
		if !held[id] {
			return n.nodes[id], true
		}
	}
	return DataNodeInfo{}, false
}

// copyBlock streams one block from a surviving replica to the target.
func copyBlock(transport Transport, id BlockID, from, to DataNodeInfo) error {
	src, err := transport.DataNode(from)
	if err != nil {
		return fmt.Errorf("dfs: dial source %s: %w", from.ID, err)
	}
	data, err := src.ReadBlock(id)
	if err != nil {
		return fmt.Errorf("dfs: read block %d from %s: %w", id, from.ID, err)
	}
	dst, err := transport.DataNode(to)
	if err != nil {
		return fmt.Errorf("dfs: dial target %s: %w", to.ID, err)
	}
	err = dst.WriteBlock(id, data, nil)
	putBlock(data)
	if err != nil {
		return fmt.Errorf("dfs: write block %d to %s: %w", id, to.ID, err)
	}
	return nil
}
