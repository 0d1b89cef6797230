package density

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sched"
	"preemptsched/internal/storage"
)

// GIVEN a contended seeded trace whose production tasks need several
// victims each, run with a flight recorder attached,
// WHEN the run's .pjl journal is serialized,
// THEN it is byte for byte the journal the map-based victim scan wrote
// (the digests below were taken at the commit before node.running became
// an ordered slice). Every victim-selection record lists the chosen
// node's candidates from a rescan that reuses the scan's scratch, so a
// victim set aliasing that scratch changes these bytes.
func TestJournalMatchesMapBasedScan(t *testing.T) {
	for _, tc := range []struct {
		policy core.Policy
		sha256 string
	}{
		{core.PolicyAdaptive, "fe0e9e562bcb8c34abd80c2437b727b559f501fbc21a69ee182d93a698bdb349"},
		{core.PolicyCheckpoint, "3d94a51deb2c1339de4ca7db78e701713ac0f0b4143ce398c3877cd41d03b2de"},
	} {
		jobs, err := Generate(Spec{Seed: 21, Nodes: 20, Tasks: 2000, LoadFactor: 1.6, HighShare: 0.2, Policy: tc.policy, Storage: storage.SSD})
		if err != nil {
			t.Fatal(err)
		}
		for j := range jobs {
			for k := range jobs[j].Tasks {
				if ts := &jobs[j].Tasks[k]; ts.Priority >= 10 {
					ts.Demand = cluster.Resources{CPUMillis: 3 * ts.Demand.CPUMillis, MemBytes: 3 * ts.Demand.MemBytes}
				}
			}
		}
		cfg := sched.DefaultConfig(tc.policy, storage.SSD)
		cfg.Nodes = 20
		cfg.Recorder = obs.NewRecorder(1<<20, 64)
		res, err := sched.Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Preemptions < 100 || cfg.Recorder.Dropped() != 0 {
			t.Fatalf("%v: %d preemptions, %d records dropped; want a contended run with the whole journal retained",
				tc.policy, res.Preemptions, cfg.Recorder.Dropped())
		}
		var buf bytes.Buffer
		if _, err := cfg.Recorder.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("%v: journal sha256 %s (%d bytes, %d preemptions), want %s",
				tc.policy, got, buf.Len(), res.Preemptions, tc.sha256)
		}
	}
}
