package experiments

import (
	"strconv"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/metrics"
	"preemptsched/internal/sched"
	"preemptsched/internal/storage"
)

// The extension experiments have no paper counterpart (DESIGN.md §6);
// they quantify the repository's additions on the same one-day workload
// the Fig. 3/5 simulations use.

// SimSpec describes a trace-workload run — the Fig. 3/5 job slice on a
// cluster sized for SimLoadFactor — with an arbitrary config mutation
// applied on top of the standard sizing. Each spec regenerates its own
// Jobs slice (the simulator writes through pointers into it), so specs
// are safe to execute concurrently.
func SimSpec(o Options, policy core.Policy, kind storage.Kind, mutate func(*sched.Config)) (sched.RunSpec, error) {
	jobs, err := o.simJobs()
	if err != nil {
		return sched.RunSpec{}, err
	}
	cfg := sched.DefaultConfig(policy, kind)
	o.simCluster(jobs, &cfg)
	if mutate != nil {
		mutate(&cfg)
	}
	return sched.RunSpec{Config: cfg, Jobs: jobs}, nil
}

// extSweep builds and runs one spec per mutation over core.ForEachIndex,
// returning spec-ordered results.
func extSweep(o Options, policy core.Policy, kind storage.Kind, mutations []func(*sched.Config)) ([]*sched.Result, error) {
	results := make([]*sched.Result, len(mutations))
	err := core.ForEachIndex(len(mutations), o.Parallel, func(i int) error {
		spec, err := SimSpec(o, policy, kind, mutations[i])
		if err != nil {
			return err
		}
		results[i], err = sched.Run(spec.Config, spec.Jobs)
		return err
	})
	return results, err
}

// ExtDisciplines compares priority, fair-share, and capacity scheduling
// under adaptive checkpoint-based preemption, including Jain's fairness
// index over per-tenant response times.
func ExtDisciplines(o Options) (*metrics.Table, error) {
	tb := metrics.NewTable("Ext — Scheduling disciplines (adaptive, SSD)",
		"discipline", "resp_low_s", "resp_med_s", "resp_high_s", "fairness_index", "preemptions")
	disciplines := []sched.Discipline{sched.DisciplinePriority, sched.DisciplineFairShare, sched.DisciplineCapacity}
	mutations := make([]func(*sched.Config), len(disciplines))
	for i, d := range disciplines {
		d := d
		mutations[i] = func(c *sched.Config) { c.Discipline = d }
	}
	results, err := extSweep(o, core.PolicyAdaptive, storage.SSD, mutations)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		tb.AddRow(disciplines[i].String(),
			r.MeanResponse(cluster.BandFree), r.MeanResponse(cluster.BandMiddle), r.MeanResponse(cluster.BandProduction),
			r.FairnessIndex(), r.Preemptions)
	}
	return tb, nil
}

// ExtPreCopy compares stop-and-copy against pre-copy checkpointing per
// storage medium.
func ExtPreCopy(o Options) (*metrics.Table, error) {
	tb := metrics.NewTable("Ext — Pre-copy checkpointing (basic policy)",
		"storage", "mode", "resp_low_s", "overhead_core_h", "io_device_h")
	// Stop-and-copy rows reuse the shared Fig. 3/5 runs; the pre-copy rows
	// are a three-spec sweep of their own.
	stops, err := fetch(o, simulator, basicPairs())
	if err != nil {
		return nil, err
	}
	pres := make([]*sched.Result, len(storageKinds))
	err = core.ForEachIndex(len(storageKinds), o.Parallel, func(i int) error {
		spec, err := SimSpec(o, core.PolicyCheckpoint, storageKinds[i], func(c *sched.Config) { c.PreCopy = true })
		if err != nil {
			return err
		}
		pres[i], err = sched.Run(spec.Config, spec.Jobs)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, kind := range storageKinds {
		stop, pre := stops[i], pres[i]
		tb.AddRow(kind.String(), "stop-and-copy", stop.MeanResponse(cluster.BandFree), stop.OverheadCPUHours, stop.IOBusyHours)
		tb.AddRow(kind.String(), "pre-copy", pre.MeanResponse(cluster.BandFree), pre.OverheadCPUHours, pre.IOBusyHours)
	}
	return tb, nil
}

// nvmModePairs is basic checkpointing on NVM as a file system (PMFS) and
// as virtual memory.
var nvmModePairs = []policyKind{{core.PolicyCheckpoint, storage.NVM}, {core.PolicyCheckpoint, storage.NVRAM}}

// ExtNVRAM compares NVM-as-file-system (PMFS) with NVM-as-virtual-memory.
func ExtNVRAM(o Options) (*metrics.Table, error) {
	tb := metrics.NewTable("Ext — PMFS vs NVM-as-virtual-memory (basic policy)",
		"mode", "resp_low_s", "resp_high_s", "io_device_h", "wasted_core_h")
	runs, err := fetch(o, simulator, nvmModePairs)
	if err != nil {
		return nil, err
	}
	pmfs, nvram := runs[0], runs[1]
	tb.AddRow("PMFS", pmfs.MeanResponse(cluster.BandFree), pmfs.MeanResponse(cluster.BandProduction), pmfs.IOBusyHours, pmfs.WastedCPUHours)
	tb.AddRow("NVRAM", nvram.MeanResponse(cluster.BandFree), nvram.MeanResponse(cluster.BandProduction), nvram.IOBusyHours, nvram.WastedCPUHours)
	return tb, nil
}

// ExtNodeChurn replays the same pair of seeded machine outages — node 0
// down at hour 6 for one hour, node 1 lost for good at hour 14 — under
// each preemption policy (DESIGN.md §14). Displaced tasks that left a
// checkpoint image behind resume from it; under kill they restart from
// scratch, so the failure-attributed waste column is the recovery
// dividend the fault domain exists to measure.
func ExtNodeChurn(o Options) (*metrics.Table, error) {
	tb := metrics.NewTable("Ext — Node churn (seeded outages, SSD)",
		"policy", "node_failures", "tasks_rescheduled", "failure_restores",
		"failure_restarts", "failure_waste_core_h", "wasted_core_h", "resp_low_s")
	policies := []core.Policy{core.PolicyKill, core.PolicyCheckpoint, core.PolicyAdaptive}
	churn := func(c *sched.Config) {
		c.NodeFailures = []sched.NodeFailure{
			{Node: 0, At: 6 * time.Hour, RecoverAfter: time.Hour},
			{Node: 1, At: 14 * time.Hour},
		}
	}
	results := make([]*sched.Result, len(policies))
	err := core.ForEachIndex(len(policies), o.Parallel, func(i int) error {
		spec, err := SimSpec(o, policies[i], storage.SSD, churn)
		if err != nil {
			return err
		}
		results[i], err = sched.Run(spec.Config, spec.Jobs)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		tb.AddRow(policies[i].String(), r.NodeFailures, r.TasksRescheduled,
			r.FailureRestores, r.FailureRestarts, r.FailureWasteHours,
			r.WastedCPUHours, r.MeanResponse(cluster.BandFree))
	}
	return tb, nil
}

// ExtEvictionThreshold compares unlimited kill-based preemption with the
// Cavdar-style per-task eviction cap.
func ExtEvictionThreshold(o Options) (*metrics.Table, error) {
	tb := metrics.NewTable("Ext — Eviction threshold (kill policy, SSD)",
		"max_evictions", "wasted_core_h", "resp_low_s", "resp_high_s", "preemptions")
	caps := []int{0, 1, 2, 4}
	mutations := make([]func(*sched.Config), len(caps))
	for i, capv := range caps {
		capv := capv
		mutations[i] = func(c *sched.Config) { c.MaxEvictionsPerTask = capv }
	}
	results, err := extSweep(o, core.PolicyKill, storage.SSD, mutations)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		label := "unlimited"
		if caps[i] > 0 {
			label = strconv.Itoa(caps[i])
		}
		tb.AddRow(label, r.WastedCPUHours, r.MeanResponse(cluster.BandFree), r.MeanResponse(cluster.BandProduction), r.Preemptions)
	}
	return tb, nil
}
