package experiments

import (
	"fmt"
	"io"

	"preemptsched/internal/metrics"
)

// Figure is one generator of the evaluation: the report section it
// belongs to, its name (that of the exported function) and the tables it
// renders.
type Figure struct {
	Section string
	Name    string
	Tables  func(Options) ([]*metrics.Table, error)
	// reads is what of the shared, memoized inputs Tables is rendered
	// from; figures that run only sweeps of their own leave it nil.
	reads []request
}

// Report sections, in order of first appearance in the catalog.
const (
	secTrace       = "Section 2 — Google-trace analysis (calibrated synthetic trace)"
	secMicro       = "Section 3.3.1 — Checkpoint microbenchmarks"
	secSim         = "Section 3.3.2 — Trace-driven simulation"
	secSensitivity = "Section 3.3.3 / 4.2.2 — Sensitivity analysis"
	secAdaptive    = "Section 4 — Adaptive policies"
	secFramework   = "Section 5.3 — Framework experiments"
	secExtensions  = "Extensions (no paper counterpart; DESIGN.md §6)"
	secSummaries   = "Raw summaries"
)

// Catalog lists every generator in report order. It is the one list of
// the evaluation: RunAll renders it, warmAll prefetches what it reads,
// the determinism suite sweeps it, and a completeness test fails when an
// exported generator is missing from it.
var Catalog = []Figure{
	{secTrace, "Fig1a", one(Fig1a), traceStudy},
	{secTrace, "Fig1b", one(Fig1b), traceStudy},
	{secTrace, "Fig1c", one(Fig1c), traceStudy},
	{secTrace, "Table1", one(Table1), traceStudy},
	{secTrace, "Table2", one(Table2), traceStudy},

	{secMicro, "Fig2a", one(Fig2a), nil},
	{secMicro, "Fig2b", one(Fig2b), nil},

	{secSim, "Fig3a", one(Fig3a), on(simulator, killChkPairs())},
	{secSim, "Fig3b", one(Fig3b), on(simulator, killChkPairs())},
	{secSim, "Fig3c", one(Fig3c), on(simulator, killChkPairs())},

	{secSensitivity, "Fig4", func(o Options) ([]*metrics.Table, error) { return panels(Fig4(o)) }, nil},
	{secSensitivity, "Fig6", func(o Options) ([]*metrics.Table, error) { return panels(Fig6(o)) }, nil},

	{secAdaptive, "Table3", one(Table3), nil},
	{secAdaptive, "Fig5", one(Fig5), on(simulator, basicAdaptivePairs())},

	{secFramework, "Fig8a", one(Fig8a), on(framework, killChkPairs())},
	{secFramework, "Fig8b", one(Fig8b), on(framework, killChkPairs())},
	{secFramework, "Fig8c", one(Fig8c), on(framework, killChkPairs())},
	{secFramework, "Fig9", one(Fig9), on(framework, killChkPairs())},
	{secFramework, "Fig10", one(Fig10), on(framework, basicAdaptivePairs())},
	{secFramework, "Fig11", Fig11, on(framework, paperMatrix())},
	{secFramework, "Fig12", func(o Options) ([]*metrics.Table, error) {
		cpuT, ioT, err := Fig12(o)
		return []*metrics.Table{cpuT, ioT}, err
	}, on(framework, basicAdaptivePairs())},

	{secExtensions, "ExtDisciplines", one(ExtDisciplines), nil},
	{secExtensions, "ExtPreCopy", one(ExtPreCopy), on(simulator, basicPairs())},
	{secExtensions, "ExtNVRAM", one(ExtNVRAM), on(simulator, nvmModePairs)},
	{secExtensions, "ExtEvictionThreshold", one(ExtEvictionThreshold), nil},
	{secExtensions, "ExtNodeChurn", one(ExtNodeChurn), nil},

	{secSummaries, "SimSummary", one(SimSummary), on(simulator, paperMatrix())},
	{secSummaries, "YarnSummary", one(YarnSummary), on(framework, paperMatrix())},
}

// one adapts a single-table generator to the catalog's signature.
func one(f func(Options) (*metrics.Table, error)) func(Options) ([]*metrics.Table, error) {
	return func(o Options) ([]*metrics.Table, error) {
		tb, err := f(o)
		return []*metrics.Table{tb}, err
	}
}

// panels adapts the three tables of a sensitivity sweep.
func panels(a, b, c *metrics.Table, err error) ([]*metrics.Table, error) {
	return []*metrics.Table{a, b, c}, err
}

// RunAll executes every experiment of the catalog and writes the rendered
// tables to w, each section under its heading. It is the engine behind
// cmd/experiments and the source of EXPERIMENTS.md's measured columns.
func RunAll(o Options, w io.Writer) error {
	if err := o.Validate(); err != nil {
		return err
	}
	// Fan the whole shared-run matrix across the pool up front; the
	// sequential rendering below then assembles tables from the memo
	// cache in catalog order, so the report is byte-identical at every
	// parallelism level.
	warmAll(o)
	section := ""
	for _, f := range Catalog {
		if f.Section != section {
			section = f.Section
			if _, err := fmt.Fprintln(w, "# "+section); err != nil {
				return err
			}
		}
		tables, err := f.Tables(o)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		for _, tb := range tables {
			if _, err := fmt.Fprintln(w, tb.String()); err != nil {
				return err
			}
		}
	}
	return nil
}
