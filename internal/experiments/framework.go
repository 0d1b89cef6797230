package experiments

import (
	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/metrics"
)

// Fig8a regenerates framework CPU wastage: kill vs checkpointing on each
// storage medium.
func Fig8a(o Options) (*metrics.Table, error) {
	return wastageTable(o, framework, "Fig 8a — Resource wastage (framework)")
}

// Fig8b regenerates framework energy consumption.
func Fig8b(o Options) (*metrics.Table, error) {
	return energyTable(o, framework, "Fig 8b — Energy consumption (framework)")
}

// Fig8c regenerates per-class mean job response times on the framework.
func Fig8c(o Options) (*metrics.Table, error) {
	return runTable(o, framework, killChkPairs(), "Fig 8c — Job response time (framework, seconds)",
		[]string{"policy", "low_priority", "high_priority"},
		func(pk policyKind, r *core.Outcome) []any {
			return []any{pk.label(), r.MeanResponse(cluster.BandFree), r.MeanResponse(cluster.BandProduction)}
		})
}

// Fig9 regenerates the response-time CDF of kill vs checkpoint-based
// preemption on the three media.
func Fig9(o Options) (*metrics.Table, error) {
	pairs := killChkPairs()
	runs, err := fetch(o, framework, pairs)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(pairs))
	for i, pk := range pairs {
		labels[i] = pk.label()
	}
	return cdfTable("Fig 9 — Job response time CDF (framework, seconds)", labels, runs), nil
}

// Fig10 regenerates basic vs adaptive mean response times per storage
// medium on the framework.
func Fig10(o Options) (*metrics.Table, error) {
	runs, err := fetch(o, framework, basicAdaptivePairs())
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("Fig 10 — Basic vs adaptive preemption (framework, seconds)",
		"storage", "policy", "low_priority", "high_priority")
	for i, kind := range storageKinds {
		basic, adaptive := runs[2*i], runs[2*i+1]
		tb.AddRow(kind.String(), "basic", basic.MeanResponse(cluster.BandFree), basic.MeanResponse(cluster.BandProduction))
		tb.AddRow(kind.String(), "adaptive", adaptive.MeanResponse(cluster.BandFree), adaptive.MeanResponse(cluster.BandProduction))
	}
	return tb, nil
}

// Fig11 regenerates the kill/basic/adaptive response-time CDFs per
// storage medium.
func Fig11(o Options) ([]*metrics.Table, error) {
	runs, err := fetch(o, framework, paperMatrix())
	if err != nil {
		return nil, err
	}
	kill, perKind := runs[0], runs[1:]
	var tables []*metrics.Table
	for i, kind := range storageKinds {
		tables = append(tables, cdfTable(
			"Fig 11 ("+kind.String()+") — Response time CDF kill/basic/adaptive (seconds)",
			[]string{"Kill", "Basic", "Adaptive"},
			[]*core.Outcome{kill, perKind[2*i], perKind[2*i+1]}))
	}
	return tables, nil
}

// Fig12 regenerates the checkpointing overhead panels: CPU overhead
// (12a) and I/O overhead (12b) for basic vs adaptive on each medium.
func Fig12(o Options) (cpuT, ioT *metrics.Table, err error) {
	runs, err := fetch(o, framework, basicAdaptivePairs())
	if err != nil {
		return nil, nil, err
	}
	cpuT = metrics.NewTable("Fig 12a — CPU overhead of checkpointing (%)",
		"storage", "basic", "adaptive")
	ioT = metrics.NewTable("Fig 12b — I/O overhead of checkpointing (%)",
		"storage", "basic", "adaptive")
	for i, kind := range storageKinds {
		basic, adaptive := runs[2*i], runs[2*i+1]
		cpuT.AddRow(kind.String(), 100*basic.CPUOverheadFraction(), 100*adaptive.CPUOverheadFraction())
		ioT.AddRow(kind.String(), 100*basic.IOOverheadFraction(), 100*adaptive.IOOverheadFraction())
	}
	return cpuT, ioT, nil
}

// YarnSummary reports the absolute framework outcomes backing Figures
// 8-12, for EXPERIMENTS.md.
func YarnSummary(o Options) (*metrics.Table, error) {
	return summaryTable(o, framework, "Framework run summary",
		[]string{"resp_low_s", "resp_high_s", "preemptions", "kills", "checkpoints",
			"incremental", "restores", "remote_restores", "peak_image_gib"},
		func(r *core.Outcome) []any {
			return []any{r.MeanResponse(cluster.BandFree), r.MeanResponse(cluster.BandProduction),
				r.Preemptions, r.Kills, r.Checkpoints, r.IncrementalCheckpoints,
				r.Restores, r.RemoteRestores, float64(r.PeakImageBytes) / float64(cluster.GiB(1))}
		})
}
