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
// (the checkpoint digest was taken at the commit before node.running
// became an ordered slice). Every victim-selection record lists the chosen
// node's candidates from a rescan that reuses the scan's scratch, so a
// victim set aliasing that scratch changes these bytes. The adaptive
// digest was fe0e9e56… until the round-trip pairing fix: 41 of its 410
// restore records follow a kill verdict and lost that kill's estimate
// (TestRestoreAfterKillCarriesNoEstimate); no other byte moved.
func TestJournalMatchesMapBasedScan(t *testing.T) {
	for _, tc := range []struct {
		policy core.Policy
		sha256 string
	}{
		{core.PolicyAdaptive, "711aa52270e966131423b08457a70e97d7d9e952557a1a46a2434f93d8dedf84"},
		{core.PolicyCheckpoint, "3d94a51deb2c1339de4ca7db78e701713ac0f0b4143ce398c3877cd41d03b2de"},
	} {
		res, journal := journaledRun(t, tc.policy)
		sum := sha256.Sum256(journal)
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("%v: journal sha256 %s (%d bytes, %d preemptions), want %s",
				tc.policy, got, len(journal), res.Preemptions, tc.sha256)
		}
	}
}

// journaledRun executes the contended scenario under policy with a flight
// recorder attached and returns the serialized journal.
func journaledRun(t *testing.T, policy core.Policy) (*sched.Result, []byte) {
	t.Helper()
	jobs, err := Generate(Spec{Seed: 21, Nodes: 20, Tasks: 2000, LoadFactor: 1.6, HighShare: 0.2, Policy: policy, Storage: storage.SSD})
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
	cfg := sched.DefaultConfig(policy, storage.SSD)
	cfg.Nodes = 20
	cfg.Recorder = obs.NewRecorder(1<<20, 64)
	res, err := sched.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions < 100 || cfg.Recorder.Dropped() != 0 {
		t.Fatalf("%v: %d preemptions, %d records dropped; want a contended run with the whole journal retained",
			policy, res.Preemptions, cfg.Recorder.Dropped())
	}
	var buf bytes.Buffer
	if _, err := cfg.Recorder.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// GIVEN the adaptive leg of the scenario above, where tasks holding an
// image are killed by a later verdict and then restored from that image,
// WHEN a restore record follows a kill verdict on the same task,
// THEN it carries no estimate: the round trip that wrote the image was
// closed by an earlier restore, and the kill's estimate priced a
// checkpoint that never happened (obs.RoundTrip, DESIGN.md §13).
func TestRestoreAfterKillCarriesNoEstimate(t *testing.T) {
	_, journal := journaledRun(t, core.PolicyAdaptive)
	j, err := obs.ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	lastVerdict := make(map[string]string)
	afterKill := 0
	for _, r := range j.Records {
		switch {
		case r.Kind == obs.RecDecision:
			lastVerdict[r.Task] = r.Name
		case r.Name == "restore" && lastVerdict[r.Task] == "kill":
			afterKill++
			if r.Est != 0 {
				t.Errorf("restore of %s at %v follows a kill verdict but carries est %v (actual %v)", r.Task, r.At, r.Est, r.Actual)
			}
		}
	}
	if afterKill == 0 {
		t.Fatal("scenario has no kill-then-restore; the pairing rule went unexercised")
	}
}
