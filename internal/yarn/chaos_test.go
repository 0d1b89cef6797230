package yarn

import (
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

	if r.FaultsInjected == nil || r.FaultsInjected[faults.ModeNodeCrashes] != 1 {
		t.Fatalf("injected faults: %v, want exactly one node crash", r.FaultsInjected)
	}
	if r.FaultsInjected[faults.ModeDataNodeRPCErrors] == 0 {
		t.Errorf("no RPC errors injected despite 10%% drop rate: %v", r.FaultsInjected)
	}
	// The faults must have been absorbed by visible resilience work.
	if r.DFSRetries == 0 {
		t.Error("faults fired but no DFS retries recorded")
	}

	// The metrics registry must tell the same story: injected fault modes
	// mirrored under faults.injected.*, with the absorption work visible as
	// live dfs.client.* counters that agree with the Result's tallies.
	snap := r.Metrics
	if got := snap.Counter("faults.injected." + faults.ModeNodeCrashes); got != 1 {
		t.Errorf("faults.injected.node.crashes = %d, want 1", got)
	}
	if snap.Counter("faults.injected."+faults.ModeDataNodeRPCErrors) == 0 {
		t.Error("registry snapshot missed the injected RPC errors")
	}
	if got := snap.Counter("dfs.client.retries"); got != int64(r.DFSRetries) {
		t.Errorf("dfs.client.retries = %d, Result.DFSRetries = %d", got, r.DFSRetries)
	}
	if got := snap.Counter("dfs.client.read.failovers"); got != int64(r.ReadFailovers) {
		t.Errorf("dfs.client.read.failovers = %d, Result.ReadFailovers = %d", got, r.ReadFailovers)
	}
	if got := snap.Counter("dfs.client.pipeline.rebuilds"); got != int64(r.PipelineRebuilds) {
		t.Errorf("dfs.client.pipeline.rebuilds = %d, Result.PipelineRebuilds = %d", got, r.PipelineRebuilds)
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
	if r.FallbackKills != 0 || r.RestoreVerifyFailures != 0 {
		t.Errorf("corruption leaked into the degradation ladder: %d fallback kills, %d verify failures",
			r.FallbackKills, r.RestoreVerifyFailures)
	}
	if r.CorruptDegraded != 0 || r.CorruptLost != 0 {
		t.Errorf("quarantines not fully healed: %d degraded, %d lost", r.CorruptDegraded, r.CorruptLost)
	}

	// The accounting must close from one snapshot: flips were injected,
	// each detection (reader checksum miss or scrubber find) became a
	// quarantine, and each quarantine was healed by re-replication.
	snap := r.Metrics
	injected := snap.Counter("faults.injected." + faults.ModeBitFlips)
	if injected == 0 {
		t.Fatal("BitFlipRate=1 injected nothing")
	}
	detected := r.CorruptReads + r.ScrubCorruptFound
	if detected == 0 {
		t.Fatal("injected bit rot was never detected")
	}
	if detected > injected {
		t.Errorf("detected %d corrupt replicas but only %d flips injected", detected, injected)
	}
	if r.ReplicasQuarantined != detected {
		t.Errorf("quarantined %d, detected %d — detections must map 1:1 to quarantines",
			r.ReplicasQuarantined, detected)
	}
	if r.CorruptReReplicated != r.ReplicasQuarantined {
		t.Errorf("re-replicated %d of %d quarantines", r.CorruptReReplicated, r.ReplicasQuarantined)
	}
	if got := snap.Counter("dfs.namenode.replicas.quarantined"); got != r.ReplicasQuarantined {
		t.Errorf("registry quarantine counter %d != Result %d", got, r.ReplicasQuarantined)
	}

	// Convergence, proven from the same snapshot: the end-of-run
	// verification scrub (after one healing pass) found nothing left.
	if r.ScrubRuns == 0 {
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
	for mode, count := range a.FaultsInjected {
		if b.FaultsInjected[mode] != count {
			t.Errorf("fault %q: %d vs %d", mode, count, b.FaultsInjected[mode])
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
	failures := snap.Counter("yarn.dump.failures")
	if injected == 0 || injected != failures {
		t.Errorf("injected store.create.errors (%d) != absorbed dump failures (%d)", injected, failures)
	}
	if got := snap.Counter("yarn.fallback.kills"); got != int64(r.FallbackKills) {
		t.Errorf("yarn.fallback.kills = %d, Result.FallbackKills = %d", got, r.FallbackKills)
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
	failures := snap.Counter("yarn.dump.failures")
	if injected == 0 || injected != failures {
		t.Errorf("injected store.create.errors (%d) != absorbed dump failures (%d)", injected, failures)
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
		t.Fatalf("torn writes did not surface as dump failures: %+v faults=%v", r, r.FaultsInjected)
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
	failures := snap.Counter("yarn.dump.failures")
	if injected == 0 || injected != failures {
		t.Errorf("injected torn.writes (%d) != absorbed dump failures (%d)", injected, failures)
	}
}

// GIVEN a seeded chaos run in which DataNode dn-1 crashes after its sixth
// block write while bit rot decays replicas under a dump-counted scrub,
// WHEN the run ends,
// THEN the decommission and scrub totals the Result reports are the DFS's
// own dfs.namenode.blocks.* and dfs.scrub.* series, and they equal the
// values pinned for this seed: the crash re-replicated blocks, the scrubs
// found rot, and the final verification pass found none left.
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
	snap := r.Metrics
	for _, c := range []struct {
		name      string
		got, want int64
		series    string
	}{
		{"BlocksReReplicated", int64(r.BlocksReReplicated), 4, "dfs.namenode.blocks.recovered"},
		{"BlocksLost", int64(r.BlocksLost), 0, "dfs.namenode.blocks.lost"},
		{"ScrubRuns", r.ScrubRuns, 12, "dfs.scrub.runs"},
		{"ScrubBlocksChecked", r.ScrubBlocksChecked, 35, "dfs.scrub.blocks.checked"},
		{"ScrubCorruptFound", r.ScrubCorruptFound, 7, "dfs.scrub.corrupt.found"},
		{"FinalScrubCorrupt", r.FinalScrubCorrupt, 0, ""},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
		if c.series != "" && snap.Counter(c.series) != c.got {
			t.Errorf("%s = %d, but %s = %d", c.name, c.got, c.series, snap.Counter(c.series))
		}
	}
}
