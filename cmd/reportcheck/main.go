// Command reportcheck validates a clusterrun -report-json file against the
// checked-in report schema, so CI (and downstream tooling) notices when the
// report shape drifts.
//
// With -integrity it additionally asserts the corruption-chaos contract on
// the report's integrity counters: the run completed, every detected
// corrupt replica was quarantined and healed by re-replication, nothing
// degraded or was lost, and the end-of-run verification scrub found the
// cluster converged back to zero corrupt replicas.
//
// With -slo it asserts the live-SLO-engine contract on the report's slo
// object: the derived ratios recompute from their inputs, and every
// per-band response distribution is internally consistent (monotone
// percentiles bounded by the max, the bands summing to the aggregate).
//
// With -failures it asserts the node-churn contract on the report's
// failures object: at least one node was declared dead, every displaced
// task is accounted as an image restore or a restart, the failure
// counters agree with the run's batch counters, and the SLO waste split
// (failure vs preemption blame) sums back to the waste total.
//
// Usage:
//
//	reportcheck [-schema docs/report.schema.json] [-integrity] [-slo] [-failures] report.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"preemptsched/internal/faults"
	"preemptsched/internal/obs"
	"preemptsched/internal/report"
)

func main() {
	schemaPath := flag.String("schema", "docs/report.schema.json", "report JSON schema")
	integrity := flag.Bool("integrity", false, "also assert the corruption-chaos integrity contract")
	slo := flag.Bool("slo", false, "also assert the live-SLO-engine consistency contract")
	failures := flag.Bool("failures", false, "also assert the node-churn failure-recovery contract")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: reportcheck [-schema schema.json] [-integrity] [-slo] [-failures] report.json")
		os.Exit(2)
	}
	if err := run(*schemaPath, flag.Arg(0), *integrity, *slo, *failures); err != nil {
		fmt.Fprintln(os.Stderr, "reportcheck:", err)
		os.Exit(1)
	}
	fmt.Printf("%s conforms to %s\n", flag.Arg(0), *schemaPath)
}

func run(schemaPath, reportPath string, integrity, slo, failures bool) error {
	schema, err := os.ReadFile(schemaPath)
	if err != nil {
		return err
	}
	doc, err := os.ReadFile(reportPath)
	if err != nil {
		return err
	}
	if err := obs.ValidateJSONSchemaBytes(schema, doc); err != nil {
		return err
	}
	// The contracts read the document back through the type that wrote it.
	var rep report.Report
	if err := json.Unmarshal(doc, &rep); err != nil {
		return err
	}
	if integrity {
		if err := checkIntegrity(rep); err != nil {
			return err
		}
	}
	if slo {
		if err := checkSLO(rep); err != nil {
			return err
		}
	}
	if failures {
		return checkFailures(rep)
	}
	return nil
}

// checkIntegrity asserts the corruption-chaos contract on the report's
// integrity counters.
func checkIntegrity(rep report.Report) error {
	if rep.Aborted {
		return fmt.Errorf("integrity: run did not complete: %s", rep.AbortReason)
	}
	in := rep.Integrity
	injected := rep.Counts["faults.injected."+faults.ModeBitFlips]
	detected := in.CorruptReads + in.ScrubCorruptFound
	switch {
	case injected == 0:
		return fmt.Errorf("integrity: no bit flips injected — not a chaos run")
	case detected == 0:
		return fmt.Errorf("integrity: %d flips injected, none detected", injected)
	case detected > injected:
		return fmt.Errorf("integrity: detected %d corrupt replicas but only %d flips injected", detected, injected)
	case in.ReplicasQuarantined != detected:
		return fmt.Errorf("integrity: %d detections but %d quarantines — detections must map 1:1 to quarantines",
			detected, in.ReplicasQuarantined)
	case in.CorruptReReplicated != in.ReplicasQuarantined:
		return fmt.Errorf("integrity: only %d of %d quarantines healed by re-replication",
			in.CorruptReReplicated, in.ReplicasQuarantined)
	case in.CorruptDegraded != 0 || in.CorruptLost != 0:
		return fmt.Errorf("integrity: corruption left %d blocks degraded, %d lost", in.CorruptDegraded, in.CorruptLost)
	case in.RestoreVerifyFailures != 0:
		return fmt.Errorf("integrity: %d restores rejected by manifest verification", in.RestoreVerifyFailures)
	case rep.SLO.FallbackKills != 0:
		return fmt.Errorf("integrity: %d kill fallbacks during a corruption-only chaos run",
			rep.SLO.FallbackKills)
	case in.ScrubRuns == 0:
		return fmt.Errorf("integrity: scrubber never ran")
	case in.FinalScrubCorrupt != 0:
		return fmt.Errorf("integrity: final scrub still found %d corrupt replicas — cluster did not converge",
			in.FinalScrubCorrupt)
	}
	fmt.Printf("integrity: %d injected flips -> %d detected, %d quarantined, %d healed, 0 left after final sweep\n",
		injected, detected, in.ReplicasQuarantined, in.CorruptReReplicated)
	return nil
}

// checkFailures asserts the node-churn recovery contract: the run
// survived real node loss with settled books, every displaced task is
// accounted for, and the failure-blame split agrees between the
// failures object, the batch counters, and the SLO snapshot.
func checkFailures(rep report.Report) error {
	if rep.Aborted {
		return fmt.Errorf("failures: run did not complete: %s", rep.AbortReason)
	}
	f := rep.Failures
	const eps = 1e-9
	switch {
	case f.NodeFailures == 0:
		return fmt.Errorf("failures: no node was declared dead — not a node-churn run")
	case f.NodeRecoveries > f.NodeFailures:
		return fmt.Errorf("failures: %d recoveries exceed %d failures", f.NodeRecoveries, f.NodeFailures)
	case f.TasksRescheduled != f.FailureRestores+f.FailureRestarts:
		return fmt.Errorf("failures: %d rescheduled tasks but %d restores + %d restarts — every displaced task must be accounted",
			f.TasksRescheduled, f.FailureRestores, f.FailureRestarts)
	case f.NodeFailures != rep.Counts["yarn.node.failures"]:
		return fmt.Errorf("failures: %d node failures but counters say %d",
			f.NodeFailures, rep.Counts["yarn.node.failures"])
	case f.NodeRecoveries != rep.Counts["yarn.node.recoveries"]:
		return fmt.Errorf("failures: %d node recoveries but counters say %d",
			f.NodeRecoveries, rep.Counts["yarn.node.recoveries"])
	case f.TasksRescheduled != rep.Counts["yarn.tasks.rescheduled"]:
		return fmt.Errorf("failures: %d rescheduled tasks but counters say %d",
			f.TasksRescheduled, rep.Counts["yarn.tasks.rescheduled"])
	case f.FailureRestores != rep.Counts["yarn.failure.restores"]:
		return fmt.Errorf("failures: %d failure restores but counters say %d",
			f.FailureRestores, rep.Counts["yarn.failure.restores"])
	case f.FailureRestarts != rep.Counts["yarn.failure.restarts"]:
		return fmt.Errorf("failures: %d failure restarts but counters say %d",
			f.FailureRestarts, rep.Counts["yarn.failure.restarts"])
	}
	s := rep.SLO
	if math.Abs(s.WasteFailureCoreHours+s.WastePreemptionCoreHours-s.WasteCoreHours) > eps {
		return fmt.Errorf("failures: slo waste split %v + %v does not sum to total %v",
			s.WasteFailureCoreHours, s.WastePreemptionCoreHours, s.WasteCoreHours)
	}
	if math.Abs(s.WasteFailureCoreHours-f.FailureWasteCoreHours) > eps {
		return fmt.Errorf("failures: slo failure waste %v disagrees with failures object %v",
			s.WasteFailureCoreHours, f.FailureWasteCoreHours)
	}
	fmt.Printf("failures: %d nodes down (%d recovered), %d tasks rescheduled (%d from image, %d restarted), %.3f core-hours lost to failures\n",
		f.NodeFailures, f.NodeRecoveries, f.TasksRescheduled, f.FailureRestores, f.FailureRestarts, f.FailureWasteCoreHours)
	return nil
}

// checkSLO asserts that the report's live-SLO snapshot is internally
// consistent: the derived ratios recompute from their inputs, and each
// band's percentile summary is monotone and the bands sum to the
// aggregate. The counts themselves are each one registry series, booked
// from the run's events, so there is no second copy to hold them to.
func checkSLO(rep report.Report) error {
	s := rep.SLO
	const eps = 1e-9
	if s.WasteFraction < 0 || s.WasteFraction > 1 {
		return fmt.Errorf("slo: waste fraction %v outside [0,1]", s.WasteFraction)
	}
	if total := s.WasteCoreHours + s.UsefulCoreHours; total > 0 {
		if want := s.WasteCoreHours / total; math.Abs(s.WasteFraction-want) > eps {
			return fmt.Errorf("slo: waste fraction %v does not recompute from %v/%v core-hours",
				s.WasteFraction, s.WasteCoreHours, s.UsefulCoreHours)
		}
	} else if s.WasteFraction != 0 {
		return fmt.Errorf("slo: waste fraction %v with zero core-hours", s.WasteFraction)
	}
	if decisions := s.KillDecisions + s.CheckpointDecisions; decisions > 0 {
		if want := float64(s.CheckpointDecisions) / float64(decisions); math.Abs(s.CheckpointHitRate-want) > eps {
			return fmt.Errorf("slo: hit rate %v does not recompute from %d/%d decisions",
				s.CheckpointHitRate, s.CheckpointDecisions, decisions)
		}
	} else if s.CheckpointHitRate != 0 {
		return fmt.Errorf("slo: hit rate %v with zero decisions", s.CheckpointHitRate)
	}
	var bandCounts int64
	for _, band := range []string{"all", "low", "medium", "high"} {
		b, ok := s.Response[band]
		if !ok {
			return fmt.Errorf("slo: response_seconds missing band %q", band)
		}
		if b.Count < 0 || b.P50 > b.P95+eps || b.P95 > b.P99+eps || b.P99 > b.Max+eps {
			return fmt.Errorf("slo: band %s percentiles not monotone: %+v", band, b)
		}
		if b.Count > 0 && b.Mean > b.Max+eps {
			return fmt.Errorf("slo: band %s mean %v exceeds max %v", band, b.Mean, b.Max)
		}
		if band != "all" {
			bandCounts += b.Count
		}
	}
	if all := s.Response["all"]; all.Count != bandCounts {
		return fmt.Errorf("slo: all-band count %d != sum of per-band counts %d", all.Count, bandCounts)
	}
	fmt.Printf("slo: %d kills + %d checkpoints (%d fallbacks), hit rate %.3f, waste fraction %.3f over %d jobs\n",
		s.KillDecisions, s.CheckpointDecisions, s.FallbackKills, s.CheckpointHitRate,
		s.WasteFraction, s.Response["all"].Count)
	return nil
}
