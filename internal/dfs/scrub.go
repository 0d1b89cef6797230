package dfs

import "errors"

// The scrubber is the proactive half of block integrity: readers catch
// corruption on the blocks they happen to touch, the scrubber sweeps
// every block a DataNode stores so cold data cannot rot unnoticed until
// the restore that needed it. HDFS calls this the block scanner.
//
// A corrupt block is handled exactly like a corrupt read: the local copy
// is evicted first — making this node a legal target for the fresh
// replica — then reported to the NameNode, which re-replicates from a
// verified survivor. One scrub pass over every node therefore converges
// the cluster back to zero corrupt replicas (given any clean copy
// survives per block).

// ScrubResult summarizes one scrub pass over a DataNode.
type ScrubResult struct {
	// Checked is how many stored blocks were verified.
	Checked int
	// Corrupt is how many failed checksum verification.
	Corrupt int
	// Reported is how many corrupt blocks were successfully reported to
	// the NameNode for quarantine and re-replication.
	Reported int
}

// ScrubOnce verifies every block stored on the node against its
// checksums, evicts the copies that fail, and reports them to the
// NameNode. Progress is counted under dfs.scrub.*.
func (d *DataNode) ScrubOnce(nn NameNodeAPI) ScrubResult {
	var res ScrubResult
	for _, id := range d.BlockIDs() {
		err := d.VerifyBlock(id)
		switch {
		case err == nil:
			res.Checked++
		case errors.Is(err, ErrBlockMissing) || errors.Is(err, ErrNodeDown):
			// Deleted (or the node died) since BlockIDs; nothing to scrub.
		case errors.Is(err, ErrCorruptBlock):
			res.Checked++
			res.Corrupt++
			// Evict before reporting so the NameNode may choose this very
			// node as the re-replication target.
			_ = d.DeleteBlock(id)
			if nn != nil {
				if rerr := nn.ReportBadReplica(id, d.info); rerr == nil {
					res.Reported++
				}
			}
		default:
			res.Checked++
		}
	}
	d.mu.RLock()
	reg := d.obs
	d.mu.RUnlock()
	reg.AddN(map[string]int64{
		"dfs.scrub.runs":           1,
		"dfs.scrub.blocks.checked": int64(res.Checked),
		"dfs.scrub.corrupt.found":  int64(res.Corrupt),
		"dfs.scrub.reported":       int64(res.Reported),
	})
	return res
}
