// Command explain interrogates a decision-provenance journal written by
// clusterrun -journal-out or clusterd -journal: why was a task killed
// instead of checkpointed, which victims were considered and at what
// estimated cost, and how the Algorithm 1 estimates compared with the
// dump and restore costs actually paid.
//
// Usage:
//
//	explain run.pjl                     summary: record counts, decision
//	                                    totals, per-band est-vs-actual
//	explain -task 3.17 run.pjl          one task's full story: every
//	                                    selection it appeared in, every
//	                                    verdict, every dump/restore
//	explain -task 3.17 -at 2m3s run.pjl focus the verdict nearest T
//	explain -timeline run.pjl           every record in virtual-time order
//
// Output is a pure function of the journal bytes: the same file always
// renders the same text, so explanations diff cleanly across runs and
// are byte-identical however much parallelism produced the workload.
// The summary always ends with "<n> records, <m> decode errors"; a
// non-zero decode count exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/obs"
)

// out is the render target; tests swap it to capture output.
var out io.Writer = os.Stdout

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "explain:", err)
		os.Exit(1)
	}
}

func run() error {
	task := flag.String("task", "", "explain one task's preemption story (ID like 3.17)")
	at := flag.Duration("at", -1, "with -task: focus the decision nearest this virtual time")
	timeline := flag.Bool("timeline", false, "print every record in virtual-time order")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: explain [-task ID [-at T]] [-timeline] <journal>")
	}
	path := flag.Arg(0)

	j, err := obs.ReadJournalFile(path)
	if err != nil {
		fmt.Fprintf(out, "0 records, 1 decode errors\n")
		return fmt.Errorf("%s: %w", path, err)
	}

	switch {
	case *task != "":
		explainTask(j, *task, *at)
	case *timeline:
		printTimeline(j)
	default:
		printSummary(path, j)
	}
	fmt.Fprintf(out, "%d records, 0 decode errors\n", len(j.Records))
	return nil
}

func band(priority int) string {
	return cluster.BandOf(cluster.Priority(priority)).String()
}

// fdur renders virtual durations in a fixed style.
func fdur(d time.Duration) string { return d.String() }

func flagNames(f uint32) string {
	var parts []string
	if f&obs.FlagRemote != 0 {
		parts = append(parts, "remote")
	}
	if f&obs.FlagIncremental != 0 {
		parts = append(parts, "incremental")
	}
	if f&obs.FlagFallback != 0 {
		parts = append(parts, "fallback")
	}
	if f&obs.FlagPreCopy != 0 {
		parts = append(parts, "pre-copy")
	}
	if f&obs.FlagFailure != 0 {
		parts = append(parts, "failure")
	}
	if len(parts) == 0 {
		return ""
	}
	return " [" + strings.Join(parts, ",") + "]"
}

// estActual aggregates estimate-vs-actual pairs for one priority band.
type estActual struct {
	n           int
	est, actual time.Duration
}

func printSummary(path string, j *obs.Journal) {
	fmt.Fprintf(out, "journal: %s (version %d)\n", path, j.Version)
	fmt.Fprintf(out, "records: %d kept, %d dropped of %d appended\n\n", len(j.Records), j.Dropped, j.Appended)

	kinds := map[string]int{}
	sources := map[string]int{}
	decisions := map[string]int{}
	events := map[string]int{}
	bands := map[string]*estActual{}
	for _, r := range j.Records {
		kinds[r.Kind.String()]++
		sources[r.Source]++
		switch r.Kind {
		case obs.RecDecision:
			decisions[r.Name]++
		case obs.RecEvent:
			events[r.Name]++
			// Restore events close the est-vs-actual loop: Actual covers
			// the measured dump + restore round trip that the decision's
			// estimate predicted.
			if r.Name == "restore" && r.Est > 0 && r.Actual > 0 {
				b := bands[band(r.Priority)]
				if b == nil {
					b = &estActual{}
					bands[band(r.Priority)] = b
				}
				b.n++
				b.est += r.Est
				b.actual += r.Actual
			}
		}
	}
	printCountMap("by kind", kinds)
	printCountMap("by source", sources)
	printCountMap("decisions", decisions)
	printCountMap("events", events)

	if len(bands) > 0 {
		fmt.Fprintf(out, "\nestimated vs actual checkpoint overhead, by priority band:\n")
		fmt.Fprintf(out, "  %-8s %6s %14s %14s %8s\n", "band", "n", "est(mean)", "actual(mean)", "err")
		names := make([]string, 0, len(bands))
		for n := range bands {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			b := bands[n]
			estMean := time.Duration(int64(b.est) / int64(b.n))
			actMean := time.Duration(int64(b.actual) / int64(b.n))
			relErr := (float64(actMean) - float64(estMean)) / float64(actMean)
			fmt.Fprintf(out, "  %-8s %6d %14s %14s %+7.1f%%\n", n, b.n, fdur(estMean), fdur(actMean), 100*relErr)
		}
	}
	fmt.Fprintln(out)
}

func printCountMap(title string, m map[string]int) {
	if len(m) == 0 {
		return
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s %d", n, m[n])
	}
	fmt.Fprintf(out, "%-10s %s\n", title+":", strings.Join(parts, ", "))
}

// concernsTask reports whether record r is part of task id's story: its
// own decisions and events, plus every selection it appeared in (as the
// claimant driving the preemption or as a scored candidate).
func concernsTask(r obs.Record, id string) bool {
	if r.Task == id || r.Claimant == id {
		return true
	}
	for _, c := range r.Candidates {
		if c.Task == id {
			return true
		}
	}
	return false
}

func explainTask(j *obs.Journal, id string, at time.Duration) {
	var story []obs.Record
	for _, r := range j.Records {
		if concernsTask(r, id) {
			story = append(story, r)
		}
	}
	if len(story) == 0 {
		fmt.Fprintf(out, "task %s: no records in journal\n", id)
		return
	}
	fmt.Fprintf(out, "task %s (priority %d, band %s)\n\n", id, taskPriority(story, id), band(taskPriority(story, id)))
	for _, r := range story {
		printRecord(r, id)
	}

	// The recovery story: how many times the task was torn off a dead
	// node, and whether the reschedule resumed from a checkpoint image
	// (restore events carrying the failure flag) or restarted cold.
	var rescheds, fromImage int
	var forfeit time.Duration
	for _, r := range story {
		if r.Kind != obs.RecEvent || r.Task != id {
			continue
		}
		switch {
		case r.Name == "task-rescheduled":
			rescheds++
			forfeit += r.Unsaved
		case r.Name == "restore" && r.Flags&obs.FlagFailure != 0:
			fromImage++
		}
	}
	if rescheds > 0 {
		fmt.Fprintf(out, "\nrecovery: rescheduled %d time(s) after node failure, %d resumed from a checkpoint image, %s of progress forfeit\n",
			rescheds, fromImage, fdur(forfeit))
	}

	// The verdict: the task's own decision nearest -at (or the last one).
	var best *obs.Record
	for i := range story {
		r := &story[i]
		if r.Kind != obs.RecDecision || r.Task != id {
			continue
		}
		if best == nil {
			best = r
			continue
		}
		if at >= 0 {
			if absDur(r.At-at) < absDur(best.At-at) {
				best = r
			}
		} else {
			best = r
		}
	}
	if best == nil {
		fmt.Fprintf(out, "\nverdict: task %s was never the subject of a preemption decision\n", id)
		return
	}
	fmt.Fprintf(out, "\nverdict at T=%s: %s\n", fdur(best.At), best.Name)
	switch {
	case strings.HasPrefix(best.Name, "checkpoint"):
		fmt.Fprintf(out, "  checkpointing paid off: estimated overhead %s < unsaved progress %s (Algorithm 1)\n",
			fdur(best.Est), fdur(best.Unsaved))
	case best.Est >= best.Unsaved:
		fmt.Fprintf(out, "  killed because the estimated checkpoint overhead %s would exceed the %s of progress it could save (Algorithm 1)\n",
			fdur(best.Est), fdur(best.Unsaved))
	default:
		fmt.Fprintf(out, "  killed by policy despite estimated overhead %s < unsaved progress %s (kill policy, or checkpointing unavailable)\n",
			fdur(best.Est), fdur(best.Unsaved))
	}
}

func taskPriority(story []obs.Record, id string) int {
	for _, r := range story {
		if r.Task == id {
			return r.Priority
		}
		for _, c := range r.Candidates {
			if c.Task == id {
				return c.Priority
			}
		}
	}
	return 0
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func printRecord(r obs.Record, focus string) {
	switch r.Kind {
	case obs.RecSelection:
		fmt.Fprintf(out, "T=%-12s victim selection on %s for claimant %s (priority %d): %d candidates\n",
			fdur(r.At), r.Node, r.Claimant, r.Priority, len(r.Candidates))
		for _, c := range r.Candidates {
			marker := "   "
			if c.Chosen {
				marker = " * "
			}
			self := ""
			if focus != "" && c.Task == focus {
				self = "   <- this task"
			}
			fmt.Fprintf(out, "  %s%-10s prio %-3d est-cost %-12s unsaved %s%s\n",
				marker, c.Task, c.Priority, fdur(c.Cost), fdur(c.Unsaved), self)
		}
	case obs.RecDecision:
		fmt.Fprintf(out, "T=%-12s decision %s: task %s on %s (unsaved %s, est overhead %s)\n",
			fdur(r.At), r.Name, r.Task, r.Node, fdur(r.Unsaved), fdur(r.Est))
	case obs.RecEvent:
		// Node-lifecycle events have no task of their own: render them
		// node-centric so the liveness story reads cleanly.
		switch r.Name {
		case "node-down":
			fmt.Fprintf(out, "T=%-12s node-down: %s declared dead, containers released\n", fdur(r.At), r.Node)
			return
		case "node-recovered":
			fmt.Fprintf(out, "T=%-12s node-recovered: %s heartbeating again, capacity restored\n", fdur(r.At), r.Node)
			return
		case "task-rescheduled":
			line := fmt.Sprintf("T=%-12s task-rescheduled: task %s lost %s with it", fdur(r.At), r.Task, r.Node)
			if r.Unsaved > 0 {
				line += fmt.Sprintf(", %s of progress forfeit", fdur(r.Unsaved))
			} else {
				line += ", no progress forfeit"
			}
			fmt.Fprintln(out, line+flagNames(r.Flags))
			return
		}
		if r.Task == "" && r.Node == "" {
			// A subsystem marker (the daemon's drain-begin / drain-end).
			fmt.Fprintf(out, "T=%-12s %s (%s)\n", fdur(r.At), r.Name, r.Source)
			return
		}
		line := fmt.Sprintf("T=%-12s %s: task %s on %s", fdur(r.At), r.Name, r.Task, r.Node)
		if r.Bytes > 0 {
			line += fmt.Sprintf(", %d bytes", r.Bytes)
		}
		if r.Actual > 0 {
			line += fmt.Sprintf(", actual %s", fdur(r.Actual))
			if r.Est > 0 {
				line += fmt.Sprintf(" vs est %s", fdur(r.Est))
			}
		}
		if r.Name == "kill-fallback" && r.Unsaved > 0 {
			line += fmt.Sprintf(", lost %s", fdur(r.Unsaved))
		}
		fmt.Fprintln(out, line+flagNames(r.Flags))
	}
}

func printTimeline(j *obs.Journal) {
	for _, r := range j.Records {
		printRecord(r, "")
	}
}
