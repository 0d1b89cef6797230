package experiments

import (
	"preemptsched/internal/core"
	"preemptsched/internal/metrics"
)

// The paper draws some figures twice, once per substrate (Fig. 3a/8a,
// 3b/8b, the raw summaries); each such shape is one function here, and
// the exported Fig* generators instantiate it.

// runTable renders one row per run of pairs on s, in pair order.
func runTable(o Options, s substrate, pairs []policyKind, title string, cols []string,
	row func(policyKind, *core.Outcome) []any) (*metrics.Table, error) {
	runs, err := fetch(o, s, pairs)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable(title, cols...)
	for i, r := range runs {
		tb.AddRow(row(pairs[i], r)...)
	}
	return tb, nil
}

// wastageTable is wasted CPU capacity under kill vs checkpoint-based
// preemption on each storage medium.
func wastageTable(o Options, s substrate, title string) (*metrics.Table, error) {
	return runTable(o, s, killChkPairs(), title, []string{"policy", "wasted_core_hours", "waste_pct_of_usage"},
		func(pk policyKind, r *core.Outcome) []any {
			return []any{pk.label(), r.WastedCPUHours, 100 * r.WasteFraction()}
		})
}

// energyTable is total energy consumption for the same four policies.
func energyTable(o Options, s substrate, title string) (*metrics.Table, error) {
	return runTable(o, s, killChkPairs(), title, []string{"policy", "energy_kwh"},
		func(pk policyKind, r *core.Outcome) []any { return []any{pk.label(), r.EnergyKWh} })
}

// summaryTable reports the absolute outcome of every run of the paper
// matrix on s: policy, storage, waste and energy, then the substrate's
// own columns.
func summaryTable(o Options, s substrate, title string, cols []string, row func(*core.Outcome) []any) (*metrics.Table, error) {
	return runTable(o, s, paperMatrix(), title,
		append([]string{"policy", "storage", "wasted_core_hours", "energy_kwh"}, cols...),
		func(pk policyKind, r *core.Outcome) []any {
			return append([]any{pk.policy.String(), pk.kind.String(), r.WastedCPUHours, r.EnergyKWh}, row(r)...)
		})
}

// cdfTable renders response-time CDFs (seconds at each decile) for a set
// of labelled outcomes.
func cdfTable(title string, labels []string, runs []*core.Outcome) *metrics.Table {
	cols := append([]string{"cum_fraction"}, labels...)
	tb := metrics.NewTable(title, cols...)
	const k = 10
	curves := make([][]metrics.CDFPoint, len(runs))
	for i, r := range runs {
		curves[i] = r.JobResponseAllSec.CDF(k)
	}
	for i := 0; i < k; i++ {
		row := []any{float64(i+1) / k}
		for _, c := range curves {
			if i < len(c) {
				row = append(row, c[i].X)
			} else {
				row = append(row, 0.0)
			}
		}
		tb.AddRow(row...)
	}
	return tb
}
