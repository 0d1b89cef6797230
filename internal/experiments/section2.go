package experiments

import (
	"fmt"

	"preemptsched/internal/cluster"
	"preemptsched/internal/metrics"
	"preemptsched/internal/trace"
)

// Fig1a regenerates the preemption-rate timeline: per-day fraction of
// scheduled tasks later preempted, per priority band.
func Fig1a(o Options) (*metrics.Table, error) { return analysisTable(o, fig1a) }

// Fig1b regenerates the share of all preemptions by raw priority 0-11.
func Fig1b(o Options) (*metrics.Table, error) { return analysisTable(o, fig1b) }

// Fig1c regenerates the re-preemption frequency distribution: distinct
// tasks per eviction count (1..9, >=10).
func Fig1c(o Options) (*metrics.Table, error) { return analysisTable(o, fig1c) }

// Table1 regenerates preempted-task rates per priority band.
func Table1(o Options) (*metrics.Table, error) { return analysisTable(o, table1) }

// Table2 regenerates preempted-task rates per latency-sensitivity class.
func Table2(o Options) (*metrics.Table, error) { return analysisTable(o, table2) }

// TraceTables renders the five Section 2 tables of any analysis, in
// report order: a trace read from a file goes through the same code as
// the report's.
func TraceTables(a *trace.Analysis) []*metrics.Table {
	return []*metrics.Table{fig1a(a), fig1b(a), fig1c(a), table1(a), table2(a)}
}

// analysisTable renders one table of the options' trace analysis.
func analysisTable(o Options, render func(*trace.Analysis) *metrics.Table) (*metrics.Table, error) {
	a, err := o.traceAnalysis()
	if err != nil {
		return nil, err
	}
	return render(a), nil
}

func fig1a(a *trace.Analysis) *metrics.Table {
	tb := metrics.NewTable("Fig 1a — Preemption rate timeline (per day)",
		"day", "low_priority", "medium_priority", "high_priority")
	for _, pt := range a.Timeline {
		tb.AddRow(pt.Day,
			pt.Rate[cluster.BandFree],
			pt.Rate[cluster.BandMiddle],
			pt.Rate[cluster.BandProduction])
	}
	return tb
}

func fig1b(a *trace.Analysis) *metrics.Table {
	total := 0
	for _, n := range a.PreemptionsByPriority {
		total += n
	}
	tb := metrics.NewTable("Fig 1b — Preemptions per priority", "priority", "pct_of_all_preemptions")
	for p, n := range a.PreemptionsByPriority {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(n) / float64(total)
		}
		tb.AddRow(p, pct)
	}
	return tb
}

func fig1c(a *trace.Analysis) *metrics.Table {
	tb := metrics.NewTable("Fig 1c — Preemption frequency distribution", "num_preemptions", "distinct_tasks")
	for k, n := range a.EvictionFrequency {
		label := fmt.Sprintf("%d", k+1)
		if k == len(a.EvictionFrequency)-1 {
			label = ">=10"
		}
		tb.AddRow(label, n)
	}
	return tb
}

func table1(a *trace.Analysis) *metrics.Table {
	tb := metrics.NewTable("Table 1 — Preempted tasks per priority band",
		"priority_band", "num_tasks", "percent_preempted", "paper_pct")
	paper := map[cluster.Band]float64{
		cluster.BandFree:       20.26,
		cluster.BandMiddle:     0.55,
		cluster.BandProduction: 1.02,
	}
	names := map[cluster.Band]string{
		cluster.BandFree:       "Free (0-1)",
		cluster.BandMiddle:     "Middle (2-8)",
		cluster.BandProduction: "Production (9-11)",
	}
	for b := 0; b < cluster.NumBands; b++ {
		band := cluster.Band(b)
		s := a.Bands[band]
		tb.AddRow(names[band], s.Tasks, 100*s.Rate(), paper[band])
	}
	tb.AddRow("overall", a.Tasks, 100*a.OverallRate(), 12.4)
	return tb
}

func table2(a *trace.Analysis) *metrics.Table {
	paper := []float64{11.76, 18.87, 8.14, 14.80}
	tb := metrics.NewTable("Table 2 — Preempted tasks per latency sensitivity",
		"latency_class", "num_tasks", "percent_preempted", "paper_pct")
	for l := 0; l < cluster.NumLatencyClasses; l++ {
		s := a.Latencies[l]
		tb.AddRow(l, s.Tasks, 100*s.Rate(), paper[l])
	}
	return tb
}
