package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"preemptsched/internal/faults"
)

// validReport is a minimal schema-v4 report as writeReport produces it,
// including the zero-valued latency digests and SLO bands a run without
// checkpoints still emits.
func validReport() map[string]any {
	digest := func() map[string]any {
		return map[string]any{"count": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}
	}
	band := func() map[string]any {
		return map[string]any{"count": 0, "mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}
	}
	return map[string]any{
		"schema_version":   4,
		"policy":           "adaptive",
		"storage":          "nvm",
		"aborted":          false,
		"makespan_seconds": 1234.5,
		"counts":           map[string]any{"yarn.tasks.completed": 90},
		"gauges":           map[string]any{"yarn.waste.core_hours": 1.5},
		"policy_decisions": map[string]any{"checkpoint": 3},
		"integrity": map[string]any{
			"corrupt_reads":           0,
			"replicas_quarantined":    0,
			"corrupt_rereplicated":    0,
			"corrupt_degraded":        0,
			"corrupt_lost":            0,
			"scrub_runs":              0,
			"scrub_blocks_checked":    0,
			"scrub_corrupt_found":     0,
			"final_scrub_corrupt":     0,
			"restore_verify_failures": 0,
		},
		"failures": map[string]any{
			"node_failures":            0,
			"node_recoveries":          0,
			"tasks_rescheduled":        0,
			"failure_restores":         0,
			"failure_restarts":         0,
			"failure_waste_core_hours": 0,
		},
		"slo": map[string]any{
			"waste_core_hours":            0,
			"waste_failure_core_hours":    0,
			"waste_preemption_core_hours": 0,
			"useful_core_hours":           0,
			"waste_fraction":              0,
			"kill_decisions":              0,
			"checkpoint_decisions":        0,
			"fallback_kills":              0,
			"checkpoint_hit_rate":         0,
			"response_seconds": map[string]any{
				"all": band(), "low": band(), "medium": band(), "high": band(),
			},
		},
		"latencies_seconds": map[string]any{
			"dump": digest(), "restore": digest(), "dfs_transfer": digest(),
		},
	}
}

func writeJSON(t *testing.T, name string, v any) string {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const schemaPath = "../../docs/report.schema.json"

func TestRunAcceptsValidReport(t *testing.T) {
	path := writeJSON(t, "ok.json", validReport())
	if err := run(schemaPath, path, false, false, false); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
}

func TestRunRejectsBrokenReports(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(map[string]any)
	}{
		{"missing-integrity", func(r map[string]any) { delete(r, "integrity") }},
		{"missing-latency-key", func(r map[string]any) {
			delete(r["latencies_seconds"].(map[string]any), "restore")
		}},
		{"unknown-policy", func(r map[string]any) { r["policy"] = "yolo" }},
		{"negative-makespan", func(r map[string]any) { r["makespan_seconds"] = -1 }},
		{"extra-top-level-field", func(r map[string]any) { r["vibes"] = "good" }},
		{"wrong-type", func(r map[string]any) { r["aborted"] = "no" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := validReport()
			c.mutate(rep)
			path := writeJSON(t, c.name+".json", rep)
			if err := run(schemaPath, path, false, false, false); err == nil {
				t.Error("broken report validated")
			}
		})
	}
}

func TestRunIntegrityContract(t *testing.T) {
	chaos := func() map[string]any {
		r := validReport()
		r["counts"] = map[string]any{"faults.injected." + faults.ModeBitFlips: 4}
		r["integrity"] = map[string]any{
			"corrupt_reads":           3,
			"replicas_quarantined":    4,
			"corrupt_rereplicated":    4,
			"corrupt_degraded":        0,
			"corrupt_lost":            0,
			"scrub_runs":              2,
			"scrub_blocks_checked":    100,
			"scrub_corrupt_found":     1,
			"final_scrub_corrupt":     0,
			"restore_verify_failures": 0,
		}
		return r
	}

	if err := run(schemaPath, writeJSON(t, "chaos.json", chaos()), true, false, false); err != nil {
		t.Errorf("healthy chaos report rejected: %v", err)
	}

	aborted := chaos()
	aborted["aborted"] = true
	aborted["abort_reason"] = "node lost"
	if err := run(schemaPath, writeJSON(t, "aborted.json", aborted), true, false, false); err == nil ||
		!strings.Contains(err.Error(), "did not complete") {
		t.Errorf("aborted chaos run: err = %v", err)
	}

	leaky := chaos()
	leaky["integrity"].(map[string]any)["corrupt_lost"] = 1
	if err := run(schemaPath, writeJSON(t, "leaky.json", leaky), true, false, false); err == nil {
		t.Error("chaos run with lost blocks validated")
	}

	fallback := chaos()
	fallback["slo"].(map[string]any)["fallback_kills"] = 1
	if err := run(schemaPath, writeJSON(t, "fallback.json", fallback), true, false, false); err == nil ||
		!strings.Contains(err.Error(), "kill fallbacks") {
		t.Errorf("chaos run with a kill fallback: err = %v", err)
	}

	quiet := chaos()
	quiet["counts"] = map[string]any{}
	if err := run(schemaPath, writeJSON(t, "quiet.json", quiet), true, false, false); err == nil {
		t.Error("integrity check passed with no injected faults")
	}
}

func TestRunSLOContract(t *testing.T) {
	healthy := func() map[string]any {
		r := validReport()
		band := func(n int, mean, p50, p95, p99, max float64) map[string]any {
			return map[string]any{"count": n, "mean": mean, "p50": p50, "p95": p95, "p99": p99, "max": max}
		}
		r["slo"] = map[string]any{
			"waste_core_hours":            1.0,
			"waste_failure_core_hours":    0,
			"waste_preemption_core_hours": 1.0,
			"useful_core_hours":           3.0,
			"waste_fraction":              0.25,
			"kill_decisions":              5,
			"checkpoint_decisions":        5,
			"fallback_kills":              1,
			"checkpoint_hit_rate":         0.5,
			"response_seconds": map[string]any{
				"all":    band(4, 20, 15, 38, 39, 40),
				"low":    band(2, 30, 25, 38, 39, 40),
				"medium": band(1, 12, 12, 12, 12, 12),
				"high":   band(1, 8, 8, 8, 8, 8),
			},
		}
		return r
	}

	if err := run(schemaPath, writeJSON(t, "slo.json", healthy()), false, true, false); err != nil {
		t.Errorf("healthy SLO report rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(map[string]any)
		want   string
	}{
		{"hit-rate-drift", func(r map[string]any) {
			r["slo"].(map[string]any)["checkpoint_hit_rate"] = 0.9
		}, "hit rate"},
		{"waste-drift", func(r map[string]any) {
			r["slo"].(map[string]any)["waste_fraction"] = 0.7
		}, "waste fraction"},
		{"non-monotone-percentiles", func(r map[string]any) {
			r["slo"].(map[string]any)["response_seconds"].(map[string]any)["low"].(map[string]any)["p95"] = 60
		}, "not monotone"},
		{"band-count-drift", func(r map[string]any) {
			r["slo"].(map[string]any)["response_seconds"].(map[string]any)["all"].(map[string]any)["count"] = 7
		}, "per-band counts"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := healthy()
			c.mutate(rep)
			err := run(schemaPath, writeJSON(t, c.name+".json", rep), false, true, false)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

func TestRunFailuresContract(t *testing.T) {
	churn := func() map[string]any {
		r := validReport()
		r["counts"] = map[string]any{
			"yarn.node.failures":     2,
			"yarn.node.recoveries":   1,
			"yarn.tasks.rescheduled": 3,
			"yarn.failure.restores":  2,
			"yarn.failure.restarts":  1,
		}
		r["failures"] = map[string]any{
			"node_failures":            2,
			"node_recoveries":          1,
			"tasks_rescheduled":        3,
			"failure_restores":         2,
			"failure_restarts":         1,
			"failure_waste_core_hours": 0.5,
		}
		r["slo"].(map[string]any)["waste_core_hours"] = 2.0
		r["slo"].(map[string]any)["waste_failure_core_hours"] = 0.5
		r["slo"].(map[string]any)["waste_preemption_core_hours"] = 1.5
		return r
	}

	if err := run(schemaPath, writeJSON(t, "churn.json", churn()), false, false, true); err != nil {
		t.Errorf("healthy node-churn report rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(map[string]any)
		want   string
	}{
		{"no-churn", func(r map[string]any) {
			r["failures"].(map[string]any)["node_failures"] = 0
		}, "not a node-churn run"},
		{"unaccounted-task", func(r map[string]any) {
			r["failures"].(map[string]any)["failure_restarts"] = 0
		}, "must be accounted"},
		{"counter-drift", func(r map[string]any) {
			r["counts"].(map[string]any)["yarn.failure.restores"] = 9
		}, "counters say"},
		{"waste-split-drift", func(r map[string]any) {
			r["slo"].(map[string]any)["waste_preemption_core_hours"] = 1.9
		}, "does not sum"},
		{"blame-drift", func(r map[string]any) {
			r["failures"].(map[string]any)["failure_waste_core_hours"] = 0.4
			r["failures"].(map[string]any)["tasks_rescheduled"] = 3
		}, "disagrees"},
		{"aborted-run", func(r map[string]any) {
			r["aborted"] = true
			r["abort_reason"] = "node lost"
		}, "did not complete"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := churn()
			c.mutate(rep)
			err := run(schemaPath, writeJSON(t, c.name+".json", rep), false, false, true)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

func TestRunMissingFiles(t *testing.T) {
	if err := run("nope.schema.json", "nope.json", false, false, false); err == nil {
		t.Error("missing schema accepted")
	}
	if err := run(schemaPath, "nope.json", false, false, false); err == nil {
		t.Error("missing report accepted")
	}
}
