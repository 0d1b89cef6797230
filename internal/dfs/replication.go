package dfs

import (
	"fmt"
	"sort"
)

// ReplicationReport summarizes a decommission's outcome.
type ReplicationReport struct {
	// BlocksAffected is how many blocks had a replica on the removed node.
	BlocksAffected int
	// Recovered is how many of those were re-replicated to a new node.
	Recovered int
	// Degraded is how many remain readable but under-replicated because
	// no eligible target node existed.
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
func (n *NameNode) Decommission(id string, transport Transport) (*ReplicationReport, error) {
	if transport == nil {
		return nil, fmt.Errorf("dfs: decommission needs a transport")
	}
	n.Unregister(id)

	// Plan under the lock: find affected blocks, their survivors, and a
	// copy target for each.
	type job struct {
		block    BlockID
		path     string
		blockIdx int
		source   DataNodeInfo
		target   DataNodeInfo
	}
	n.mu.Lock()
	var (
		report ReplicationReport
		jobs   []job
	)
	// Walk paths in sorted order: map iteration order would otherwise
	// randomize copy targets (round-robin cursor) and make seeded
	// fault-injection runs non-reproducible.
	paths := make([]string, 0, len(n.files))
	for path := range n.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		f := n.files[path]
		for bi := range f.info.Blocks {
			loc := &f.info.Blocks[bi]
			holderIdx := -1
			for ri, r := range loc.Replicas {
				if r.ID == id {
					holderIdx = ri
					break
				}
			}
			if holderIdx < 0 {
				continue
			}
			report.BlocksAffected++
			loc.Replicas = append(loc.Replicas[:holderIdx], loc.Replicas[holderIdx+1:]...)
			if len(loc.Replicas) == 0 {
				report.Lost++
				continue
			}
			target, ok := n.pickTargetLocked(loc.Replicas)
			if !ok {
				report.Degraded++
				continue
			}
			jobs = append(jobs, job{
				block:    loc.ID,
				path:     path,
				blockIdx: bi,
				source:   loc.Replicas[0],
				target:   target,
			})
		}
	}
	n.mu.Unlock()

	// Copy outside the lock; commit each success back into the map.
	for _, j := range jobs {
		if err := copyBlock(transport, j.block, j.source, j.target); err != nil {
			n.mu.Lock()
			report.Degraded++
			n.mu.Unlock()
			continue
		}
		n.mu.Lock()
		if f, ok := n.files[j.path]; ok && j.blockIdx < len(f.info.Blocks) && f.info.Blocks[j.blockIdx].ID == j.block {
			f.info.Blocks[j.blockIdx].Replicas = append(f.info.Blocks[j.blockIdx].Replicas, j.target)
			report.Recovered++
		}
		n.mu.Unlock()
	}
	n.mu.Lock()
	reg := n.obs
	n.mu.Unlock()
	reg.AddN(map[string]int64{
		"dfs.namenode.decommissions":    1,
		"dfs.namenode.blocks.recovered": int64(report.Recovered),
		"dfs.namenode.blocks.degraded":  int64(report.Degraded),
		"dfs.namenode.blocks.lost":      int64(report.Lost),
	})
	return &report, nil
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
