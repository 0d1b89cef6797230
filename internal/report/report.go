// Package report defines the machine-readable run report once: the
// document clusterrun -report-json writes, docs/report.schema.json
// constrains and reportcheck reads back are all this one type.
package report

import (
	"encoding/json"
	"fmt"
	"os"

	"preemptsched/internal/obs"
	"preemptsched/internal/yarn"
)

// Latency is the per-distribution digest the report carries.
type Latency struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func summarize(h obs.HistSnapshot) Latency {
	return Latency{
		Count: int64(h.Count),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max,
	}
}

// Integrity is the data-integrity digest of a run: end-to-end
// detections (corrupt reads, restore verify failures), the quarantine
// pipeline's repair outcomes, and the scrubber's sweep totals.
type Integrity struct {
	CorruptReads          int64 `json:"corrupt_reads"`
	ReplicasQuarantined   int64 `json:"replicas_quarantined"`
	CorruptReReplicated   int64 `json:"corrupt_rereplicated"`
	CorruptDegraded       int64 `json:"corrupt_degraded"`
	CorruptLost           int64 `json:"corrupt_lost"`
	ScrubRuns             int64 `json:"scrub_runs"`
	ScrubBlocksChecked    int64 `json:"scrub_blocks_checked"`
	ScrubCorruptFound     int64 `json:"scrub_corrupt_found"`
	FinalScrubCorrupt     int64 `json:"final_scrub_corrupt"`
	RestoreVerifyFailures int64 `json:"restore_verify_failures"`
}

// Failures is the compute-node fault-domain digest of a run: liveness
// declarations, recoveries, and how the displaced work came back (image
// restore vs restart) at what cost.
type Failures struct {
	NodeFailures          int64   `json:"node_failures"`
	NodeRecoveries        int64   `json:"node_recoveries"`
	TasksRescheduled      int64   `json:"tasks_rescheduled"`
	FailureRestores       int64   `json:"failure_restores"`
	FailureRestarts       int64   `json:"failure_restarts"`
	FailureWasteCoreHours float64 `json:"failure_waste_core_hours"`
}

// Report is the run summary; docs/report.schema.json is its contract.
// Schema version 2 added the integrity object; version 3 the slo object;
// version 4 the failures object.
type Report struct {
	SchemaVersion   int                `json:"schema_version"`
	Policy          string             `json:"policy"`
	Storage         string             `json:"storage"`
	Aborted         bool               `json:"aborted"`
	AbortReason     string             `json:"abort_reason,omitempty"`
	MakespanSeconds float64            `json:"makespan_seconds"`
	Counts          map[string]int64   `json:"counts"`
	Gauges          map[string]float64 `json:"gauges"`
	PolicyDecisions map[string]int64   `json:"policy_decisions"`
	Integrity       Integrity          `json:"integrity"`
	Failures        Failures           `json:"failures"`
	SLO             obs.SLOSnapshot    `json:"slo"`
	Latencies       map[string]Latency `json:"latencies_seconds"`
}

// New digests a run's Result; a non-nil runErr marks the run aborted and
// becomes the abort reason. The integrity counts but FinalScrubCorrupt are
// the DFS's and the checkpoint engine's own series in r.Metrics.
func New(r *yarn.Result, runErr error) Report {
	snap := r.Metrics
	incremental := snap.Counter("slo.decisions.checkpoint.incremental")
	rep := Report{
		SchemaVersion:   4,
		Policy:          r.Policy.String(),
		Storage:         r.Storage,
		Aborted:         runErr != nil,
		MakespanSeconds: r.Makespan.Seconds(),
		Counts:          snap.Counters,
		Gauges:          snap.Gauges,
		// The Algorithm 1 verdicts by action, from the SLO's verdict series.
		PolicyDecisions: map[string]int64{
			"kill":                   snap.Counter("slo.decisions.kill"),
			"checkpoint-full":        snap.Counter("slo.decisions.checkpoint") - incremental,
			"checkpoint-incremental": incremental,
		},
		Integrity: Integrity{
			CorruptReads:          snap.Counter("dfs.client.corrupt.reads"),
			ReplicasQuarantined:   snap.Counter("dfs.namenode.replicas.quarantined"),
			CorruptReReplicated:   snap.Counter("dfs.namenode.corrupt.rereplicated"),
			CorruptDegraded:       snap.Counter("dfs.namenode.corrupt.degraded"),
			CorruptLost:           snap.Counter("dfs.namenode.corrupt.lost"),
			ScrubRuns:             snap.Counter("dfs.scrub.runs"),
			ScrubBlocksChecked:    snap.Counter("dfs.scrub.blocks.checked"),
			ScrubCorruptFound:     snap.Counter("dfs.scrub.corrupt.found"),
			FinalScrubCorrupt:     r.FinalScrubCorrupt,
			RestoreVerifyFailures: snap.Counter("checkpoint.verify.failures"),
		},
		Failures: Failures{
			NodeFailures:          int64(r.NodeFailures),
			NodeRecoveries:        int64(r.NodeRecoveries),
			TasksRescheduled:      int64(r.TasksRescheduled),
			FailureRestores:       int64(r.FailureRestores),
			FailureRestarts:       int64(r.FailureRestarts),
			FailureWasteCoreHours: r.FailureWasteHours,
		},
		SLO: r.SLO,
	}
	if rep.Counts == nil {
		rep.Counts = map[string]int64{}
	}
	if rep.Gauges == nil {
		rep.Gauges = map[string]float64{}
	}
	if runErr != nil {
		rep.AbortReason = runErr.Error()
	}
	transfer := snap.Hist("dfs.client.block.read.seconds").Merge(snap.Hist("dfs.client.block.write.seconds"))
	rep.Latencies = map[string]Latency{
		"dump":         summarize(snap.Hist("yarn.dump.total.seconds")),
		"restore":      summarize(snap.Hist("yarn.restore.total.seconds")),
		"dfs_transfer": summarize(transfer),
	}
	return rep
}

// WriteFile writes the report as indented JSON, the -report-json artifact.
func (r Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("report-json: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
