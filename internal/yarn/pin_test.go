package yarn

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
)

// pinnedChecksums is the FNV-64a digest of TestTaskChecksumsPinned's run.
// Regenerate it only for a change meant to alter what a task computes.
const pinnedChecksums = 0xe37f040d37ff9992

// GIVEN the bench's smoke shape — a 60-task, 4-job Facebook mix at seed 21
// on 2 NodeManagers of 4 containers under the adaptive policy on SSD, which
// preempts, dumps and restores —
// WHEN it runs,
// THEN the FNV-64a digest of every task's checksum, in task-ID order, is the
// literal above: what the k-means tasks compute is pinned across commits,
// not only against another run of the same binary.
func TestTaskChecksumsPinned(t *testing.T) {
	fc := workload.DefaultFacebookConfig()
	fc.Seed, fc.Jobs, fc.TotalTasks = 21, 4, 60
	jobs, err := workload.Facebook(fc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(core.PolicyAdaptive, storage.SSD)
	cfg.Nodes, cfg.ContainersPerNode = 2, 4
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.TaskChecksums) != countTasks(jobs) || r.Checkpoints == 0 {
		t.Fatalf("%d checksums for %d tasks, %d checkpoints: not the preempting run the pin was taken from",
			len(r.TaskChecksums), countTasks(jobs), r.Checkpoints)
	}
	ids := make([]cluster.TaskID, 0, len(r.TaskChecksums))
	for id := range r.TaskChecksums {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b cluster.TaskID) int {
		return cmp.Or(cmp.Compare(a.Job, b.Job), cmp.Compare(a.Index, b.Index))
	})
	h := fnv.New64a()
	var rec []byte
	for _, id := range ids {
		rec = binary.BigEndian.AppendUint64(rec[:0], uint64(id.Job))
		rec = binary.BigEndian.AppendUint32(rec, uint32(id.Index))
		rec = binary.BigEndian.AppendUint64(rec, r.TaskChecksums[id])
		h.Write(rec)
	}
	if got := h.Sum64(); got != pinnedChecksums {
		t.Errorf("task checksum digest = %#x, pinned %#x", got, uint64(pinnedChecksums))
	}
}
