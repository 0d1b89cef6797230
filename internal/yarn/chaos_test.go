package yarn

import (
	"strings"
	"testing"

	"preemptsched/internal/core"
	"preemptsched/internal/faults"
	"preemptsched/internal/storage"
)

// chaosConfig is a 3-node, 6-slot checkpoint-policy cluster with fast
// devices, sized so mixedWorkload guarantees preemptions.
func chaosConfig() Config {
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.NVM)
	cfg.Nodes = 3
	cfg.ContainersPerNode = 2
	cfg.Replication = 2
	return cfg
}

// requireOnePerPreemption holds a faulted run to the identity both
// scheduler layers keep: each preemption counts once, as a kill or as a
// checkpoint, however its dumps fared.
func requireOnePerPreemption(t *testing.T, r *Result) {
	t.Helper()
	if r.Preemptions != r.Kills+r.Checkpoints {
		t.Errorf("Preemptions %d != Kills %d + Checkpoints %d", r.Preemptions, r.Kills, r.Checkpoints)
	}
}

// TestChaosCrashAndRPCDrops is the headline robustness scenario: one
// DataNode crashes permanently partway through checkpoint block writes
// while another drops 10% of its RPCs — and the full
// preempt→checkpoint→restore cycle still completes every task with
// exactly the results of an undisturbed run.
func TestChaosCrashAndRPCDrops(t *testing.T) {
	jobs := mixedWorkload(t)

	ref, err := Run(chaosConfig(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Checkpoints == 0 || ref.Restores == 0 {
		t.Fatalf("reference run exercised no checkpoint cycle: %d dumps, %d restores",
			ref.Checkpoints, ref.Restores)
	}

	cfg := chaosConfig()
	cfg.Faults = &faults.Plan{
		Seed:             1,
		RPCErrorRate:     0.10,
		RPCErrorNodes:    []string{"dn-2"},
		CrashNode:        "dn-1",
		CrashAfterWrites: 1,
	}
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatalf("chaos run did not complete: %v", err)
	}
	requireOnePerPreemption(t, r)

	if r.Checkpoints == 0 || r.Restores == 0 {
		t.Errorf("chaos run lost the checkpoint cycle: %d dumps, %d restores", r.Checkpoints, r.Restores)
	}
	if r.TasksCompleted != countTasks(jobs) {
		t.Errorf("completed %d of %d tasks", r.TasksCompleted, countTasks(jobs))
	}
	// Transparency must survive sabotage: every task's final state equals
	// the clean run's.
	for id, want := range ref.TaskChecksums {
		if got := r.TaskChecksums[id]; got != want {
			t.Errorf("task %v checksum %x != clean run %x", id, got, want)
		}
	}

	// The metrics registry tells the story: injected fault modes counted
	// under faults.injected.*, with the absorption work visible as live
	// dfs.client.* counters.
	snap := r.Metrics
	if got := snap.Counter("faults.injected." + faults.ModeNodeCrashes); got != 1 {
		t.Fatalf("faults.injected.node.crashes = %d, want exactly one node crash", got)
	}
	if snap.Counter("faults.injected."+faults.ModeDataNodeRPCErrors) == 0 {
		t.Error("no RPC errors injected despite 10% drop rate")
	}
	// The faults must have been absorbed by visible resilience work.
	if snap.Counter("dfs.client.retries") == 0 {
		t.Error("faults fired but no DFS retries recorded")
	}
	absorbed := snap.Counter("dfs.client.retries") +
		snap.Counter("dfs.client.read.failovers") +
		snap.Counter("dfs.client.pipeline.rebuilds")
	if absorbed == 0 {
		t.Error("registry shows no absorption work despite injected faults")
	}
}

// TestChaosBitRotConvergence is the headline integrity scenario: with
// BitFlipRate=1 and the default one-flip-per-block budget, every block
// written to the DFS decays on exactly one of its three replicas — a
// strict minority — while the dump-counted scrubber sweeps the cluster.
// The run must complete with clean-run results (reads and restores fail
// over past the rot, nothing degrades to a kill), and one Result
// snapshot must prove both the accounting (every injected flip detected
// and quarantined, every quarantine healed) and the convergence (the
// end-of-run verification scrub finds zero corrupt replicas).
func TestChaosBitRotConvergence(t *testing.T) {
	jobs := mixedWorkload(t)
	mkCfg := func() Config {
		cfg := chaosConfig()
		cfg.Replication = 3
		return cfg
	}

	ref, err := Run(mkCfg(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Checkpoints == 0 || ref.Restores == 0 {
		t.Fatalf("reference run exercised no checkpoint cycle: %d dumps, %d restores",
			ref.Checkpoints, ref.Restores)
	}

	cfg := mkCfg()
	cfg.ScrubEveryNDumps = 2
	cfg.Faults = &faults.Plan{Seed: 13, BitFlipRate: 1}
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatalf("bit-rot run did not complete: %v", err)
	}
	requireOnePerPreemption(t, r)

	// Every read and restore succeeded: full completion, clean checksums.
	if r.TasksCompleted != countTasks(jobs) {
		t.Errorf("completed %d of %d tasks", r.TasksCompleted, countTasks(jobs))
	}
	for id, want := range ref.TaskChecksums {
		if got := r.TaskChecksums[id]; got != want {
			t.Errorf("task %v checksum %x != clean run %x", id, got, want)
		}
	}
	if r.Checkpoints == 0 || r.Restores == 0 {
		t.Errorf("bit-rot run lost the checkpoint cycle: %d dumps, %d restores", r.Checkpoints, r.Restores)
	}

	// Zero corruption-attributable fallbacks: with bit rot as the only
	// fault mode, nothing may degrade to a kill, fail a restore, or lose a
	// block outright.
	snap := r.Metrics
	if verify := snap.Counter("checkpoint.verify.failures"); r.FallbackKills != 0 || verify != 0 {
		t.Errorf("corruption leaked into the degradation ladder: %d fallback kills, %d verify failures",
			r.FallbackKills, verify)
	}
	degraded, lost := snap.Counter("dfs.namenode.corrupt.degraded"), snap.Counter("dfs.namenode.corrupt.lost")
	if degraded != 0 || lost != 0 {
		t.Errorf("quarantines not fully healed: %d degraded, %d lost", degraded, lost)
	}

	// The accounting must close from one snapshot: flips were injected,
	// each detection (reader checksum miss or scrubber find) became a
	// quarantine, and each quarantine was healed by re-replication.
	injected := snap.Counter("faults.injected." + faults.ModeBitFlips)
	if injected == 0 {
		t.Fatal("BitFlipRate=1 injected nothing")
	}
	detected := snap.Counter("dfs.client.corrupt.reads") + snap.Counter("dfs.scrub.corrupt.found")
	if detected == 0 {
		t.Fatal("injected bit rot was never detected")
	}
	if detected > injected {
		t.Errorf("detected %d corrupt replicas but only %d flips injected", detected, injected)
	}
	quarantined := snap.Counter("dfs.namenode.replicas.quarantined")
	if quarantined != detected {
		t.Errorf("quarantined %d, detected %d — detections must map 1:1 to quarantines",
			quarantined, detected)
	}
	if healed := snap.Counter("dfs.namenode.corrupt.rereplicated"); healed != quarantined {
		t.Errorf("re-replicated %d of %d quarantines", healed, quarantined)
	}

	// Convergence, proven from the same snapshot: the end-of-run
	// verification scrub (after one healing pass) found nothing left.
	if snap.Counter("dfs.scrub.runs") == 0 {
		t.Fatal("scrubber never ran")
	}
	if r.FinalScrubCorrupt != 0 {
		t.Errorf("cluster did not converge: final scrub still found %d corrupt replicas", r.FinalScrubCorrupt)
	}
	if g := snap.Gauges["yarn.scrub.final.corrupt"]; g != 0 {
		t.Errorf("yarn.scrub.final.corrupt gauge = %v, want 0", g)
	}
}

// TestChaosDeterminism: the same seed must reproduce the same chaos run
// bit for bit — same fault counts, same makespan.
func TestChaosDeterminism(t *testing.T) {
	jobs := mixedWorkload(t)
	run := func() *Result {
		cfg := chaosConfig()
		cfg.Faults = &faults.Plan{
			Seed:             7,
			RPCErrorRate:     0.10,
			CrashNode:        "dn-1",
			CrashAfterWrites: 2,
		}
		r, err := Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		requireOnePerPreemption(t, r)
		return r
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Errorf("makespans diverged: %v vs %v", a.Makespan, b.Makespan)
	}
	for name, count := range a.Metrics.Counters {
		if strings.HasPrefix(name, "faults.injected.") && b.Metrics.Counter(name) != count {
			t.Errorf("%s: %d vs %d", name, count, b.Metrics.Counter(name))
		}
	}
	if a.Kills != b.Kills || a.Checkpoints != b.Checkpoints || a.Restores != b.Restores {
		t.Errorf("counter divergence: %d/%d/%d vs %d/%d/%d",
			a.Kills, a.Checkpoints, a.Restores, b.Kills, b.Checkpoints, b.Restores)
	}
}

// TestDumpFailureDegradesToKill forces every checkpoint dump to fail at
// the store: the Preemption Manager must degrade to kill-based preemption
// and the run must still complete with correct results.
func TestDumpFailureDegradesToKill(t *testing.T) {
	jobs := smallWorkload()
	cfg := tinyCluster(core.PolicyCheckpoint)
	cfg.CustomBandwidth = 1e9

	ref, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Checkpoints == 0 || ref.FallbackKills != 0 {
		t.Fatalf("baseline: %d checkpoints, %d fallback kills", ref.Checkpoints, ref.FallbackKills)
	}

	cfg.Faults = &faults.Plan{Seed: 3, CreateFailRate: 1}
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatalf("run with failing dumps did not complete: %v", err)
	}
	requireOnePerPreemption(t, r)
	if r.FallbackKills == 0 || r.DumpFailures == 0 {
		t.Fatalf("no kill fallback recorded: %d fallbacks, %d dump failures", r.FallbackKills, r.DumpFailures)
	}
	if r.Checkpoints != 0 {
		t.Errorf("%d checkpoints succeeded despite CreateFailRate=1", r.Checkpoints)
	}
	if r.Kills < r.FallbackKills {
		t.Errorf("fallback kills %d not included in kills %d", r.FallbackKills, r.Kills)
	}
	if r.TasksCompleted != countTasks(jobs) {
		t.Errorf("completed %d of %d tasks", r.TasksCompleted, countTasks(jobs))
	}
	for id, want := range ref.TaskChecksums {
		if got := r.TaskChecksums[id]; got != want {
			t.Errorf("task %v checksum %x != clean run %x", id, got, want)
		}
	}

	// Every injected create failure corresponds to exactly one dump that
	// the Preemption Manager absorbed by degrading to a kill: each dump
	// attempt performs a single store Create, so the two counters match.
	snap := r.Metrics
	injected := snap.Counter("faults.injected." + faults.ModeStoreCreateErrors)
	if injected == 0 || injected != int64(r.DumpFailures) {
		t.Errorf("injected store.create.errors (%d) != absorbed dump failures (%d)", injected, r.DumpFailures)
	}
	if got := snap.Counter("slo.kills.fallback"); got != int64(r.FallbackKills) {
		t.Errorf("slo.kills.fallback = %d, Result.FallbackKills = %d", got, r.FallbackKills)
	}
	if n := snap.Counter("checkpoint.dumps.full") + snap.Counter("checkpoint.dumps.incremental"); n != 0 {
		t.Errorf("%d dumps reached the checkpoint engine despite CreateFailRate=1", n)
	}
}

// TestPreCopyDumpFailureDegradesToKill: the kill fallback must also cover
// the pre-copy path, where the failure hits while the victim still runs.
func TestPreCopyDumpFailureDegradesToKill(t *testing.T) {
	jobs := smallWorkload()
	cfg := tinyCluster(core.PolicyCheckpoint)
	cfg.CustomBandwidth = 1e9
	cfg.PreCopy = true
	cfg.Faults = &faults.Plan{Seed: 5, CreateFailRate: 1}

	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatalf("pre-copy run with failing dumps did not complete: %v", err)
	}
	requireOnePerPreemption(t, r)
	if r.FallbackKills == 0 {
		t.Fatal("pre-copy dump failure did not degrade to a kill")
	}
	if r.PreCopies != 0 {
		t.Errorf("%d pre-copies succeeded despite CreateFailRate=1", r.PreCopies)
	}
	if r.TasksCompleted != countTasks(jobs) {
		t.Errorf("completed %d of %d tasks", r.TasksCompleted, countTasks(jobs))
	}

	snap := r.Metrics
	injected := snap.Counter("faults.injected." + faults.ModeStoreCreateErrors)
	if injected == 0 || injected != int64(r.DumpFailures) {
		t.Errorf("injected store.create.errors (%d) != absorbed dump failures (%d)", injected, r.DumpFailures)
	}
}

// TestTornDumpDegradesGracefully: torn image writes are caught by the
// store path (failed write/close), never produce a bogus restorable
// image, and the run completes correctly.
func TestTornDumpDegradesGracefully(t *testing.T) {
	jobs := smallWorkload()
	cfg := tinyCluster(core.PolicyCheckpoint)
	cfg.CustomBandwidth = 1e9

	ref, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Faults = &faults.Plan{Seed: 9, TornWriteRate: 1, TornWriteBytes: 128}
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatalf("run with torn dumps did not complete: %v", err)
	}
	requireOnePerPreemption(t, r)
	if r.DumpFailures == 0 || r.FallbackKills == 0 {
		t.Fatalf("torn writes did not surface as dump failures: %+v", r)
	}
	for id, want := range ref.TaskChecksums {
		if got := r.TaskChecksums[id]; got != want {
			t.Errorf("task %v checksum %x != clean run %x", id, got, want)
		}
	}

	// With TornWriteRate=1 every dump's image writer tears exactly once, so
	// injected tears and absorbed dump failures must agree.
	snap := r.Metrics
	injected := snap.Counter("faults.injected." + faults.ModeTornWrites)
	if injected == 0 || injected != int64(r.DumpFailures) {
		t.Errorf("injected torn.writes (%d) != absorbed dump failures (%d)", injected, r.DumpFailures)
	}
}

// GIVEN a contended run whose fault plan sets only the torn-write and the
// silent-truncation rates, as clusterrun's -fault-torn-rate and
// -fault-truncate-rate do, so each cut lands at DefaultTornWriteBytes,
// WHEN the run ends,
// THEN real images were damaged both ways: torn writes surfaced as dump
// failures absorbed by kill fallbacks, truncated images were rejected at
// restore (a cut image fails its own decode and CRC before its manifest is
// consulted, so checkpoint.verify.failures stays 0), and every task still
// computed what it computes in the fault-free run.
func TestRateOnlyTornAndTruncatedWritesDamageImages(t *testing.T) {
	jobs := journalWorkload(t)
	cfg := chaosConfig()
	ref, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faults.Plan{Seed: 5, TornWriteRate: 0.2, SilentTruncateRate: 0.2}
	r, err := Run(cfg, journalWorkload(t))
	if err != nil {
		t.Fatalf("run with torn and truncated writes did not complete: %v", err)
	}
	requireOnePerPreemption(t, r)
	snap := r.Metrics
	for _, name := range []string{
		"faults.injected." + faults.ModeTornWrites,
		"faults.injected." + faults.ModeSilentTruncations,
		"checkpoint.restore.errors",
	} {
		if snap.Counter(name) == 0 {
			t.Errorf("%s = 0; want the rate alone to damage real images", name)
		}
	}
	if r.DumpFailures == 0 || r.RestoreFailures == 0 {
		t.Errorf("%d dump failures, %d restore failures; want both", r.DumpFailures, r.RestoreFailures)
	}
	if len(r.TaskChecksums) != len(ref.TaskChecksums) {
		t.Fatalf("%d task checksums, fault-free run has %d", len(r.TaskChecksums), len(ref.TaskChecksums))
	}
	for id, want := range ref.TaskChecksums {
		if got := r.TaskChecksums[id]; got != want {
			t.Errorf("task %v checksum %x != fault-free run %x", id, got, want)
		}
	}
}

// GIVEN a seeded chaos run in which DataNode dn-1 crashes after its sixth
// block write while bit rot decays replicas under a dump-counted scrub,
// WHEN the run ends,
// THEN the DFS's own dfs.namenode.blocks.* and dfs.scrub.* series in
// Result.Metrics equal the values pinned for this seed: the crash
// re-replicated blocks, the scrubs found rot, and the final verification
// pass found none left.
func TestDFSTotalsPinned(t *testing.T) {
	cfg := chaosConfig()
	cfg.ScrubEveryNDumps = 2
	cfg.Faults = &faults.Plan{
		Seed:             21,
		CrashNode:        "dn-1",
		CrashAfterWrites: 6,
		BitFlipRate:      0.5,
	}
	jobs := mixedWorkload(t)
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.TasksCompleted != countTasks(jobs) {
		t.Fatalf("completed %d of %d tasks", r.TasksCompleted, countTasks(jobs))
	}
	requireOnePerPreemption(t, r)
	for _, c := range []struct {
		series string
		want   int64
	}{
		{"dfs.namenode.blocks.recovered", 4},
		{"dfs.namenode.blocks.lost", 0},
		{"dfs.scrub.runs", 12},
		{"dfs.scrub.blocks.checked", 35},
		{"dfs.scrub.corrupt.found", 7},
	} {
		if got := r.Metrics.Counter(c.series); got != c.want {
			t.Errorf("%s = %d, want %d", c.series, got, c.want)
		}
	}
	if r.FinalScrubCorrupt != 0 {
		t.Errorf("FinalScrubCorrupt = %d, want 0", r.FinalScrubCorrupt)
	}
}
