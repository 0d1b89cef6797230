package yarn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/faults"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
)

// journalWorkload is a contended slice of the Facebook mix: enough
// production arrivals on a 3 x 2 cluster that every leg below preempts
// repeatedly.
func journalWorkload(t *testing.T) []cluster.JobSpec {
	t.Helper()
	wc := workload.DefaultFacebookConfig()
	wc.Jobs = 12
	wc.TotalTasks = 200
	jobs, err := workload.Facebook(wc)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// deepWorkload is journalWorkload at three times the tasks, its background
// jobs spread over priorities 0-3 so that they preempt one another: on the
// 3 x 2 cluster its backlog outgrows what one allocation pass examines,
// and a pass's kills re-request into lower levels it has yet to reach.
func deepWorkload(t *testing.T) []cluster.JobSpec {
	t.Helper()
	wc := workload.DefaultFacebookConfig()
	wc.Jobs = 12
	wc.TotalTasks = 600
	jobs, err := workload.Facebook(wc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if j := &jobs[i]; j.Priority == 0 {
			j.Priority = cluster.Priority(i % 4)
			for k := range j.Tasks {
				j.Tasks[k].Priority = j.Priority
			}
		}
	}
	return jobs
}

// deepestQueue runs jobs under cfg the way Run does, one engine step at a
// time, and returns the most requests ever waiting at the RM. Only a pass
// takes a request off the queue and every request schedules one, so this
// is the longest queue any pass started on.
func deepestQueue(t *testing.T, cfg Config, jobs []cluster.JobSpec) int {
	t.Helper()
	cfg.Observer = nil
	c := newTestBooks(t, cfg).c
	for i := range jobs {
		c.engine.At(jobs[i].Submit, sim.Handler(newAppMaster(c, &jobs[i]).submit))
	}
	deepest := 0
	for c.engine.Step() {
		deepest = max(deepest, len(waitingOrder(c.rm)))
	}
	return deepest
}

// GIVEN a seeded contended run through the RM/AM/NM path with a flight
// recorder attached,
// WHEN the run's .pjl journal is serialized,
// THEN it is byte for byte the journal the hand-written obs.Record
// literals in yarn/obs.go wrote: the checkpoint and adaptive digests were
// taken at the commit before obs.Emitter replaced them (neither leg
// restores after a kill, a kill-fallback or a failure). The precopy-chaos
// digest was 41e4a475… there; the round-trip pairing fix moved three of
// its records — the restores of tasks 6/6, 6/16 and 6/4, each the first
// after a kill-fallback, which lost the failed dump's estimate and the
// pre-dump window (TestKillFallbackLeavesNoEstimate, DESIGN.md §13). The
// partition-heal and lossy-heartbeats digests were taken while every
// NodeManager beat on a self-rearming timer of its own beside a separate
// sweep timer, so they hold the one liveness tick to the node-down,
// node-recovered and task-rescheduled records that design wrote. The
// deep-queue digests were taken while the RM kept its requests in a heap
// and re-pushed every request a pass could not serve; their workload
// leaves more requests waiting than a pass examines, so they pin which
// requests a pass reaches, in what order, and where a kill's mid-pass
// re-request lands.
func TestJournalMatchesHandWrittenRecords(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
		// deep runs deepWorkload, whose backlog outgrows the scan limit,
		// instead of journalWorkload.
		deep   bool
		want   []string // event/decision names the leg must contain
		sha256 string
	}{
		{
			name:   "checkpoint",
			cfg:    func() Config { return DefaultConfig(core.PolicyCheckpoint, storage.SSD) },
			want:   []string{"victim-selection", "checkpoint-full", "dump", "restore", "task-done"},
			sha256: "e4ee90028a8ac697e3629786c7690a5c18a48f9242e2fa3faf90cc66f818edb9",
		},
		{
			name:   "adaptive",
			cfg:    func() Config { return DefaultConfig(core.PolicyAdaptive, storage.HDD) },
			want:   []string{"victim-selection", "kill", "checkpoint-full", "dump", "restore", "task-done"},
			sha256: "3d35cb39d6b3e8aad9cc30f6829a9cab082a1a432f48fba004f3bf8f27ea05e2",
		},
		{
			name: "precopy-chaos",
			cfg: func() Config {
				cfg := DefaultConfig(core.PolicyCheckpoint, storage.SSD)
				cfg.PreCopy = true
				cfg.Faults = &faults.Plan{
					Seed:           3,
					CreateFailRate: 0.3,
					NMCrashAt:      6 * time.Minute,
					NMCrashNode:    1,
				}
				return cfg
			},
			want:   []string{"pre-dump", "dump", "kill-fallback", "node-down", "task-rescheduled", "restore", "task-done"},
			sha256: "55064fcb627252cc5220df860f192de7470c287fea02c273d47246b7a21c6d87",
		},
		{
			// An RM↔NM partition that outlasts the auto-armed timeout and
			// then heals: node 1 is declared dead, fenced, and re-registers.
			name: "partition-heal",
			cfg: func() Config {
				cfg := DefaultConfig(core.PolicyCheckpoint, storage.SSD)
				cfg.Faults = &faults.Plan{
					Seed:            5,
					NMPartitionAt:   4 * time.Minute,
					NMPartitionNode: 1,
					NMPartitionFor:  2 * time.Minute,
				}
				return cfg
			},
			want:   []string{"node-down", "node-recovered", "task-rescheduled", "restore", "task-done"},
			sha256: "91a799b73a148855fc1a0a5ac658ab9c78ae7e3d540db345e51a51f5639220e7",
		},
		{
			// A lossy control plane: runs of dropped beats declare nodes
			// dead, and the next delivered beat re-registers them.
			name: "lossy-heartbeats",
			cfg: func() Config {
				cfg := DefaultConfig(core.PolicyAdaptive, storage.SSD)
				cfg.Faults = &faults.Plan{Seed: 9, HeartbeatDropRate: 0.4}
				return cfg
			},
			want:   []string{"kill", "node-down", "node-recovered", "task-rescheduled", "restore", "task-done"},
			sha256: "15fc2e6ea63dd1da961fc64d94b19fc141ba87967fdcdcf3019e6d2e75c9facb",
		},
		{
			// Kills re-request in the middle of a pass, behind a backlog
			// the pass cannot reach.
			name:   "deep-queue",
			cfg:    func() Config { return DefaultConfig(core.PolicyKill, storage.SSD) },
			deep:   true,
			want:   []string{"victim-selection", "kill", "task-done"},
			sha256: "c0a7486b825d401e397578ed0b0f0499a45e194e0b74aa6346bedb71f2d1c1ff",
		},
		{
			// Requests hold reservations on nodes whose victims are still
			// pre-copying while the backlog waits behind them.
			name: "deep-queue-adaptive",
			cfg: func() Config {
				cfg := DefaultConfig(core.PolicyAdaptive, storage.SSD)
				cfg.PreCopy = true
				return cfg
			},
			deep:   true,
			want:   []string{"victim-selection", "pre-dump", "dump", "restore", "task-done"},
			sha256: "43692b7d9416839b13629f63a0e27b41473837ef3fa9dd9bd2e37a62306b7fa5",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.Nodes = 3
			cfg.ContainersPerNode = 2
			jobs := journalWorkload(t)
			if tc.deep {
				jobs = deepWorkload(t)
				if d := deepestQueue(t, cfg, deepWorkload(t)); d <= scanLimit {
					t.Fatalf("at most %d requests wait at a pass; the leg needs more than the %d a pass examines", d, scanLimit)
				}
			}
			rec := obs.NewRecorder(1<<20, 64)
			cfg.Observer = rec
			if _, err := Run(cfg, jobs); err != nil {
				t.Fatal(err)
			}
			if rec.Dropped() != 0 {
				t.Fatalf("%d records dropped; want the whole journal retained", rec.Dropped())
			}
			var buf bytes.Buffer
			if _, err := rec.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			j, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]int)
			for _, r := range j.Records {
				seen[r.Name]++
			}
			for _, name := range tc.want {
				if seen[name] == 0 {
					t.Errorf("leg journals no %q record (saw %v)", name, seen)
				}
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
				t.Errorf("journal sha256 %s (%d bytes, %v), want %s", got, buf.Len(), seen, tc.sha256)
			}
		})
	}
}

// GIVEN journalWorkload on the 3 x 2 cluster under the basic checkpoint
// policy, the adaptive policy on HDD, kills, and pre-copy with the basic
// and the adaptive policy, each with a flight recorder attached, and two
// legs whose store fails a fifth of image creates, so that a checkpoint
// verdict, incremental ones included, degrades to a kill on each of the
// three paths that can fail: the stop-and-copy dump, the pre-dump and the
// pre-copy freeze dump,
// WHEN the run ends,
// THEN every Result counter equals the number of journal records of the
// edge it counts: Kills the kill verdicts and the kill-fallbacks,
// Checkpoints the two checkpoint verdicts less the kill-fallbacks,
// IncrementalCheckpoints the incremental verdicts less the kill-fallbacks
// whose task's last verdict was incremental, FallbackKills the
// kill-fallbacks, Restores the restores and RemoteRestores those flagged
// remote, PreCopies the pre-dumps, TasksCompleted the task-done records
// and the tasks submitted, and Preemptions the victim selections, each of
// which chooses exactly one candidate; and every SLO series equals its
// edges too: slo.decisions.kill, .checkpoint and .checkpoint.incremental
// the decision records of those actions, slo.kills.fallback the
// kill-fallbacks (each one failed dump, so FallbackKills equals
// DumpFailures), and the count of slo.response.all.seconds the jobs
// submitted. A counter bumped on a path that does not report its edge, or
// an edge reported twice, breaks an equality.
// A kill-fallback's path is read off its task's record before it: a
// checkpoint verdict (the dump, or under pre-copy the pre-dump, failed at
// once) or a pre-dump (the freeze dump failed).
func TestCountersMatchJournal(t *testing.T) {
	failCreates := func() *faults.Plan { return &faults.Plan{Seed: 5, CreateFailRate: 0.2} }
	for _, tc := range []struct {
		name    string
		policy  core.Policy
		kind    storage.Kind
		preCopy bool
		faults  *faults.Plan
		paths   []string // kill-fallback paths the leg must exercise
	}{
		{name: "checkpoint", policy: core.PolicyCheckpoint, kind: storage.SSD},
		{name: "adaptive-hdd", policy: core.PolicyAdaptive, kind: storage.HDD},
		{name: "kill", policy: core.PolicyKill, kind: storage.SSD},
		{name: "precopy", policy: core.PolicyCheckpoint, kind: storage.SSD, preCopy: true},
		{name: "adaptive-precopy", policy: core.PolicyAdaptive, kind: storage.SSD, preCopy: true},
		{name: "checkpoint-faulted", policy: core.PolicyCheckpoint, kind: storage.SSD,
			faults: failCreates(), paths: []string{"dump"}},
		{name: "precopy-faulted", policy: core.PolicyCheckpoint, kind: storage.SSD, preCopy: true,
			faults: failCreates(), paths: []string{"pre-dump", "freeze"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.policy, tc.kind)
			cfg.Nodes, cfg.ContainersPerNode = 3, 2
			cfg.PreCopy = tc.preCopy
			cfg.Faults = tc.faults
			rec := obs.NewRecorder(1<<20, 64)
			cfg.Observer = rec
			jobs := journalWorkload(t)
			res, err := Run(cfg, jobs)
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
			names, verdicts := make(map[string]int), make(map[string]int)
			remote, chosen, incrFallbacks := 0, 0, 0
			lastVerdict, lastRecord := make(map[string]string), make(map[string]string)
			paths := make(map[string]int)
			for _, r := range j.Records {
				names[r.Name]++
				if r.Name == "restore" && r.Flags&obs.FlagRemote != 0 {
					remote++
				}
				for _, c := range r.Candidates {
					if c.Chosen {
						chosen++
					}
				}
				if r.Name == "kill-fallback" {
					if lastVerdict[r.Task] == "checkpoint-incremental" {
						incrFallbacks++
					}
					switch prev := lastRecord[r.Task]; {
					case prev == "pre-dump":
						paths["freeze"]++
					case strings.HasPrefix(prev, "checkpoint-") && tc.preCopy:
						paths["pre-dump"]++
					case strings.HasPrefix(prev, "checkpoint-"):
						paths["dump"]++
					default:
						t.Errorf("kill-fallback on %s follows %q, no failed dump's edge", r.Task, prev)
					}
				}
				if r.Kind == obs.RecDecision {
					lastVerdict[r.Task] = r.Name
					verdicts[r.Name]++
				}
				if r.Task != "" {
					lastRecord[r.Task] = r.Name
				}
			}
			for _, p := range tc.paths {
				if paths[p] == 0 {
					t.Errorf("no kill-fallback on the %s path (saw %v)", p, paths)
				}
			}
			if tc.faults != nil && incrFallbacks == 0 {
				t.Error("no kill-fallback degraded an incremental verdict")
			}
			submitted := 0
			for _, job := range jobs {
				submitted += len(job.Tasks)
			}
			if res.Preemptions == 0 {
				t.Fatal("the run never preempts; the contracts went unexercised")
			}
			fallbacks := names["kill-fallback"]
			series := res.Metrics.Counter
			for _, c := range []struct {
				counter      string
				got, journal int
			}{
				{"Kills", res.Kills, names["kill"] + fallbacks},
				{"Checkpoints", res.Checkpoints, names["checkpoint-full"] + names["checkpoint-incremental"] - fallbacks},
				{"IncrementalCheckpoints", res.IncrementalCheckpoints, names["checkpoint-incremental"] - incrFallbacks},
				{"FallbackKills", res.FallbackKills, fallbacks},
				{"Restores", res.Restores, names["restore"]},
				{"RemoteRestores", res.RemoteRestores, remote},
				{"PreCopies", res.PreCopies, names["pre-dump"]},
				{"TasksCompleted", res.TasksCompleted, names["task-done"]},
				{"TasksCompleted (submitted)", res.TasksCompleted, submitted},
				{"Preemptions", res.Preemptions, names["victim-selection"]},
				{"Preemptions (chosen)", res.Preemptions, chosen},
				{"slo.decisions.kill", int(series("slo.decisions.kill")), verdicts["kill"]},
				{"slo.decisions.checkpoint", int(series("slo.decisions.checkpoint")),
					verdicts["checkpoint-full"] + verdicts["checkpoint-incremental"]},
				{"slo.decisions.checkpoint.incremental", int(series("slo.decisions.checkpoint.incremental")),
					verdicts["checkpoint-incremental"]},
				{"slo.kills.fallback", int(series("slo.kills.fallback")), fallbacks},
				{"DumpFailures", res.DumpFailures, res.FallbackKills},
				{"slo.response.all.seconds (submitted jobs)", int(res.Metrics.Hist("slo.response.all.seconds").Count), len(jobs)},
			} {
				if c.got != c.journal {
					t.Errorf("%s = %d, journal says %d", c.counter, c.got, c.journal)
				}
			}
		})
	}
}
