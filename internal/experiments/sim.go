package experiments

import (
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/metrics"
	"preemptsched/internal/sched"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
)

// storageKinds is the paper's device sweep order.
var storageKinds = []storage.Kind{storage.HDD, storage.SSD, storage.NVM}

// Fig3a regenerates wasted CPU capacity under kill vs checkpoint-based
// preemption on each storage medium.
func Fig3a(o Options) (*metrics.Table, error) {
	return wastageTable(o, simulator, "Fig 3a — Resource wastage (trace-driven sim)")
}

// Fig3b regenerates total energy consumption for the same four policies.
func Fig3b(o Options) (*metrics.Table, error) {
	return energyTable(o, simulator, "Fig 3b — Energy consumption (trace-driven sim)")
}

// Fig3c regenerates per-band job response times normalized to the
// kill-based policy.
func Fig3c(o Options) (*metrics.Table, error) {
	pairs := killChkPairs()
	runs, err := fetch(o, simulator, pairs)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("Fig 3c — Normalized response time vs kill (trace-driven sim)",
		"policy", "low_priority", "medium_priority", "high_priority")
	tb.AddRow("Kill", 1.0, 1.0, 1.0)
	for i, r := range runs[1:] {
		low, med, high := normResponse(r, runs[0])
		tb.AddRow(pairs[i+1].label(), low, med, high)
	}
	return tb, nil
}

// normResponse is r's mean response per band as a fraction of base's.
func normResponse(r, base *core.Outcome) (low, med, high float64) {
	return norm(r.MeanResponse(cluster.BandFree), base.MeanResponse(cluster.BandFree)),
		norm(r.MeanResponse(cluster.BandMiddle), base.MeanResponse(cluster.BandMiddle)),
		norm(r.MeanResponse(cluster.BandProduction), base.MeanResponse(cluster.BandProduction))
}

func norm(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

// sensitivityBandwidths is the paper's 1-5 GB/s sweep.
var sensitivityBandwidths = []float64{1e9, 2e9, 3e9, 4e9, 5e9}

// sensitivitySpec describes the two-job k-means scenario of Section
// 3.3.3 on a single-slot machine with the given policy and checkpoint
// bandwidth. Each spec generates its own Jobs slice: the simulator takes
// pointers into the slice it is handed, so specs sharing one would
// couple otherwise-independent runs.
func sensitivitySpec(policy core.Policy, bw float64) sched.RunSpec {
	cfg := sched.DefaultConfig(policy, storage.SSD)
	cfg.Nodes = 1
	cfg.NodeCapacity = cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(8)}
	cfg.CustomBandwidth = bw
	return sched.RunSpec{
		Config: cfg,
		Jobs:   workload.SensitivityScenario(time.Minute, 30*time.Second, cluster.GiB(5)),
	}
}

// figSensitivity produces the three panels of Fig. 4 (policies wait, kill,
// checkpoint) or Fig. 6 (plus adaptive): normalized high- and low-priority
// response times and energy across checkpoint bandwidths. The bandwidth ×
// policy sweep is a grid of independent single-machine simulations, so it
// fans out over core.ForEachIndex; rows are assembled from the
// spec-ordered results, which are identical at every parallelism level.
func figSensitivity(o Options, includeAdaptive bool) (high, low, energyT *metrics.Table, err error) {
	policies := []core.Policy{core.PolicyWait, core.PolicyKill, core.PolicyCheckpoint}
	figure := "Fig 4"
	if includeAdaptive {
		policies = append(policies, core.PolicyAdaptive)
		figure = "Fig 6"
	}
	cols := []string{"bandwidth_gbs"}
	for _, p := range policies {
		cols = append(cols, p.String())
	}
	high = metrics.NewTable(figure+"a — High-priority normalized response vs bandwidth", cols...)
	low = metrics.NewTable(figure+"b — Low-priority normalized response vs bandwidth", cols...)
	energyT = metrics.NewTable(figure+"c — Normalized energy vs bandwidth", cols...)

	results := make([]*sched.Result, len(sensitivityBandwidths)*len(policies))
	err = core.ForEachIndex(len(results), o.Parallel, func(i int) (err error) {
		spec := sensitivitySpec(policies[i%len(policies)], sensitivityBandwidths[i/len(policies)])
		results[i], err = sched.Run(spec.Config, spec.Jobs)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}

	for i, bw := range sensitivityBandwidths {
		row := results[i*len(policies) : (i+1)*len(policies)]
		wait, kill := row[0], row[1]
		baseHigh := kill.MeanResponse(cluster.BandProduction)
		baseLow := kill.MeanResponse(cluster.BandFree)
		baseEnergy := wait.EnergyKWh

		rowH := []any{bw / 1e9}
		rowL := []any{bw / 1e9}
		rowE := []any{bw / 1e9}
		for _, r := range row {
			rowH = append(rowH, norm(r.MeanResponse(cluster.BandProduction), baseHigh))
			rowL = append(rowL, norm(r.MeanResponse(cluster.BandFree), baseLow))
			rowE = append(rowE, norm(r.EnergyKWh, baseEnergy))
		}
		high.AddRow(rowH...)
		low.AddRow(rowL...)
		energyT.AddRow(rowE...)
	}
	return high, low, energyT, nil
}

// Fig4 regenerates the wait/kill/checkpoint sensitivity sweep.
func Fig4(o Options) (highT, lowT, energyT *metrics.Table, err error) {
	return figSensitivity(o, false)
}

// Fig6 regenerates the sweep including the adaptive policy.
func Fig6(o Options) (highT, lowT, energyT *metrics.Table, err error) {
	return figSensitivity(o, true)
}

// Fig5 regenerates the adaptive-vs-basic comparison in the trace-driven
// simulator: per-band response times of the adaptive policy normalized to
// basic checkpoint-based preemption, one panel per storage medium.
func Fig5(o Options) (*metrics.Table, error) {
	runs, err := fetch(o, simulator, basicAdaptivePairs())
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("Fig 5 — Adaptive vs basic checkpointing (sim), response normalized to basic",
		"storage", "policy", "low_priority", "medium_priority", "high_priority")
	for i, kind := range storageKinds {
		basic, adaptive := runs[2*i], runs[2*i+1]
		tb.AddRow(kind.String(), "basic", 1.0, 1.0, 1.0)
		low, med, high := normResponse(adaptive, basic)
		tb.AddRow(kind.String(), "adaptive", low, med, high)
	}
	return tb, nil
}

// SimSummary reports the absolute per-policy outcomes backing Figures 3
// and 5, for EXPERIMENTS.md.
func SimSummary(o Options) (*metrics.Table, error) {
	return summaryTable(o, simulator, "Trace-driven simulation summary",
		[]string{"resp_low_s", "resp_med_s", "resp_high_s", "preemptions", "kills", "checkpoints", "restores"},
		func(r *core.Outcome) []any {
			return []any{r.MeanResponse(cluster.BandFree), r.MeanResponse(cluster.BandMiddle), r.MeanResponse(cluster.BandProduction),
				r.Preemptions, r.Kills, r.Checkpoints, r.Restores}
		})
}
