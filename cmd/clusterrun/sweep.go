package main

import (
	"fmt"
	"io"
	"strings"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/metrics"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
	"preemptsched/internal/yarn"
)

// Sweep mode: when -policy and/or -storage carry comma-separated lists,
// clusterrun runs every (policy, storage) combination of the matrix.
// Combinations are independent — each builds its own workload, config,
// fault plan, and metrics registry from the same seed — so they fan out
// across a bounded worker pool (-parallel). Output stays deterministic:
// workers only fill their own result slot, and the summary table plus
// any per-combination reports are rendered sequentially in canonical
// (policy-major, storage-minor) order after every run has finished.

// sweepSpec is one (policy, storage) combination of a sweep.
type sweepSpec struct {
	policy core.Policy
	kind   storage.Kind
}

// sweepOutcome pairs a spec with its run result.
type sweepOutcome struct {
	spec sweepSpec
	r    *yarn.Result
	err  error
}

// sweepSpecs expands the policy × storage cross product in canonical
// order: policies as given (outer), storage kinds as given (inner).
func sweepSpecs(policies []core.Policy, kinds []storage.Kind) []sweepSpec {
	specs := make([]sweepSpec, 0, len(policies)*len(kinds))
	for _, p := range policies {
		for _, k := range kinds {
			specs = append(specs, sweepSpec{policy: p, kind: k})
		}
	}
	return specs
}

// sweepTable renders the canonical summary of a sweep. Failed runs keep
// their row (marked aborted) so the matrix stays rectangular.
func sweepTable(outcomes []sweepOutcome) *metrics.Table {
	tb := metrics.NewTable("Policy × storage sweep",
		"policy", "storage", "wasted_core_h", "energy_kwh",
		"resp_low_s", "resp_high_s", "preemptions", "kills", "checkpoints", "restores", "status")
	for _, oc := range outcomes {
		if oc.r == nil {
			tb.AddRow(oc.spec.policy.String(), oc.spec.kind.String(),
				"-", "-", "-", "-", "-", "-", "-", "-", "aborted")
			continue
		}
		status := "ok"
		if oc.err != nil {
			status = "aborted"
		}
		r := oc.r
		tb.AddRow(r.Policy.String(), oc.spec.kind.String(), r.WastedCPUHours, r.EnergyKWh,
			r.MeanResponse(cluster.BandFree), r.MeanResponse(cluster.BandProduction),
			r.Preemptions, r.Kills, r.Checkpoints, r.Restores, status)
	}
	return tb
}

// comboReportPath derives the per-combination -report-json path of a
// sweep: base "r.json" becomes "r-adaptive-nvm.json".
func comboReportPath(base string, spec sweepSpec) string {
	suffix := "-" + strings.ToLower(spec.policy.String()) + "-" + strings.ToLower(spec.kind.String())
	if i := strings.LastIndex(base, "."); i > strings.LastIndex(base, "/") {
		return base[:i] + suffix + base[i:]
	}
	return base + suffix
}

// parsePolicies parses a comma-separated policy list.
func parsePolicies(s string) ([]core.Policy, error) {
	var out []core.Policy
	for _, part := range strings.Split(s, ",") {
		p, err := core.ParsePolicy(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// parseKinds parses a comma-separated storage list.
func parseKinds(s string) ([]storage.Kind, error) {
	var out []storage.Kind
	for _, part := range strings.Split(s, ",") {
		k, err := storage.ParseKind(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// runSweepMode executes the full matrix on up to parallel goroutines
// (parallel <= 0 uses one per available CPU) and renders the canonical
// summary to w. Every combination runs to completion even when some fail,
// so the summary always covers the full matrix. It returns the error of
// the lowest-indexed failing combination (matching what a sequential
// sweep would report first), but only after every combination has run
// and every report is written.
func runSweepMode(w io.Writer, specs []sweepSpec, parallel int,
	makeRun func(core.Policy, storage.Kind) (yarn.Config, []cluster.JobSpec, error),
	reportBase string) error {
	fmt.Fprintf(w, "sweeping %d policy × storage combinations (parallel=%d)\n\n", len(specs), core.Workers(parallel, len(specs)))
	outcomes := make([]sweepOutcome, len(specs))
	// Each outcome keeps its own error, reported in spec order below.
	_ = core.ForEachIndex(len(specs), parallel, func(i int) error {
		oc := &outcomes[i]
		oc.spec = specs[i]
		cfg, jobs, err := makeRun(oc.spec.policy, oc.spec.kind)
		if err == nil {
			cfg.Metrics = obs.NewRegistry()
			oc.r, err = yarn.Run(cfg, jobs)
		}
		oc.err = err
		return nil
	})
	var firstErr error
	for _, oc := range outcomes {
		if oc.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%v/%s: %w", oc.spec.policy, oc.spec.kind, oc.err)
		}
		if reportBase != "" && oc.r != nil {
			path := comboReportPath(reportBase, oc.spec)
			if err := writeReport(path, oc.r, oc.err); err != nil {
				return err
			}
			fmt.Fprintf(w, "report:  %s\n", path)
		}
	}
	fmt.Fprintln(w, sweepTable(outcomes).String())
	return firstErr
}
