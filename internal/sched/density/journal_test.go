package density

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

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
	rec := obs.NewRecorder(1<<20, 64)
	cfg.Observer = rec
	res, err := sched.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions < 100 || rec.Dropped() != 0 {
		t.Fatalf("%v: %d preemptions, %d records dropped; want a contended run with the whole journal retained",
			policy, res.Preemptions, rec.Dropped())
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
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

// journalTally counts a decoded journal's records the way the Result
// counters count the same edges.
type journalTally struct {
	names          map[string]int
	remoteRestores int
	chosen         int
}

func tallyJournal(j *obs.Journal) journalTally {
	tl := journalTally{names: make(map[string]int)}
	for _, r := range j.Records {
		tl.names[r.Name]++
		if r.Name == "restore" && r.Flags&obs.FlagRemote != 0 {
			tl.remoteRestores++
		}
		for _, c := range r.Candidates {
			if c.Chosen {
				tl.chosen++
			}
		}
	}
	return tl
}

// GIVEN seeded contended density cells (20 nodes, 3,000 tasks, load 1.6, a
// fifth of the tasks production) under the basic checkpoint, adaptive and
// kill policies, with and without pre-copy, and an adaptive leg that loses
// two nodes mid-run, each with a flight recorder attached,
// WHEN the run ends,
// THEN every Result counter equals the number of journal records of the
// edge it counts: Kills the kill verdicts, Checkpoints the two checkpoint
// verdicts and IncrementalCheckpoints the incremental ones, Restores the
// restores and RemoteRestores those flagged remote, PreCopies the
// pre-dumps, TasksCompleted the task-done records and the tasks submitted,
// Preemptions the chosen candidates of the victim selections, and under
// failures NodeFailures the node-down records and TasksRescheduled the
// task-rescheduled ones. A counter bumped on a path that does not report
// its edge, or an edge reported twice, breaks an equality.
func TestCountersMatchJournal(t *testing.T) {
	for _, tc := range []struct {
		name     string
		policy   core.Policy
		preCopy  bool
		failures []sched.NodeFailure
	}{
		{name: "checkpoint", policy: core.PolicyCheckpoint},
		{name: "adaptive", policy: core.PolicyAdaptive},
		{name: "kill", policy: core.PolicyKill},
		{name: "precopy", policy: core.PolicyCheckpoint, preCopy: true},
		{name: "adaptive-precopy", policy: core.PolicyAdaptive, preCopy: true},
		{name: "adaptive-failures", policy: core.PolicyAdaptive, failures: []sched.NodeFailure{
			{Node: 3, At: 4 * time.Minute, RecoverAfter: 3 * time.Minute},
			{Node: 11, At: 6 * time.Minute},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const tasks = 3000
			jobs, err := Generate(Spec{Seed: 5, Nodes: 20, Tasks: tasks, LoadFactor: 1.6, HighShare: 0.2, Policy: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			cfg := sched.DefaultConfig(tc.policy, storage.SSD)
			cfg.Nodes = 20
			cfg.PreCopy = tc.preCopy
			cfg.NodeFailures = tc.failures
			rec := obs.NewRecorder(1<<20, 64)
			cfg.Observer = rec
			res, err := sched.Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := rec.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			j, err := obs.ReadJournal(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if j.Dropped != 0 {
				t.Fatalf("%d records dropped; want the whole journal retained", j.Dropped)
			}
			tl := tallyJournal(j)
			if res.Preemptions == 0 {
				t.Fatal("the cell never preempts; the contracts went unexercised")
			}
			for _, c := range []struct {
				counter      string
				got, journal int
			}{
				{"Kills", res.Kills, tl.names["kill"]},
				{"Checkpoints", res.Checkpoints, tl.names["checkpoint-full"] + tl.names["checkpoint-incremental"]},
				{"IncrementalCheckpoints", res.IncrementalCheckpoints, tl.names["checkpoint-incremental"]},
				{"Restores", res.Restores, tl.names["restore"]},
				{"RemoteRestores", res.RemoteRestores, tl.remoteRestores},
				{"PreCopies", res.PreCopies, tl.names["pre-dump"]},
				{"TasksCompleted", res.TasksCompleted, tl.names["task-done"]},
				{"TasksCompleted (submitted)", res.TasksCompleted, tasks},
				{"Preemptions", res.Preemptions, tl.chosen},
				{"NodeFailures", res.NodeFailures, tl.names["node-down"]},
				{"TasksRescheduled", res.TasksRescheduled, tl.names["task-rescheduled"]},
			} {
				if c.got != c.journal {
					t.Errorf("%s = %d, journal says %d", c.counter, c.got, c.journal)
				}
			}
			if tc.failures != nil && (res.NodeFailures != len(tc.failures) || res.TasksRescheduled == 0) {
				t.Errorf("failure leg: %d node failures, %d tasks rescheduled; want %d and some",
					res.NodeFailures, res.TasksRescheduled, len(tc.failures))
			}
		})
	}
}
