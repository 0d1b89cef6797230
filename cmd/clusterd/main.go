// Command clusterd runs the YARN emulation as a long-lived daemon: it
// boots the RM/NM/AM stack and the DFS over real TCP listeners, then
// admits a continuous stream of job submissions on a line-delimited JSON
// wire protocol while the preemption/checkpoint machinery operates
// online. cmd/loadgen is the matching driver.
//
// Usage:
//
//	clusterd [-listen 127.0.0.1:7171] [-ops-addr 127.0.0.1:0]
//	         [-queue 64] [-max-in-flight 256] [-retry-after 100ms]
//	         [-nodes 8] [-slots 24] [-policy adaptive] [-storage ssd]
//	         [-program kmeans] [-precopy] [-replication 3]
//	         [-fault-rpc-rate P] [-fault-torn-rate P] [-fault-create-rate P]
//	         [-fault-nm-crash-node N] [-fault-nm-crash-at D]
//	         [-fault-nm-partition-node N] [-fault-nm-partition-at D] [-fault-nm-partition-for D]
//	         [-fault-nm-beat-drop-rate P] [-nm-heartbeat-timeout D]
//	         [-fault-seed S] [-drain-timeout 2m] [-report final.json]
//	         [-journal clusterd.journal]
//
// The -fault-nm-* flags arm the compute-node fault domain while the
// daemon serves live traffic: a seeded NodeManager crash or RM<->NM
// partition (virtual time, measured from the first admitted job), with
// the RM liveness sweep declaring silent nodes dead and rescheduling
// their tasks through the checkpoint recovery ladder. The drain audit
// still demands settled books — node loss must not lose or
// double-complete a job.
//
// Admission is bounded and explicit: once the queue is full, submissions
// are rejected with a retry-after hint — nothing is buffered without
// bound. On SIGTERM/SIGINT the daemon drains: it stops admitting (readyz
// flips to 503), finishes or checkpoints everything already admitted,
// flushes the final report, and exits 0. A second signal, or the drain
// deadline expiring, aborts the cluster's DFS I/O so the drain converges
// on the kill path instead of waiting out retries.
//
// The ops endpoint (-ops-addr) serves /metrics, /metrics.json, /healthz,
// /readyz, /slo, and /debug/pprof/ — everything the chaos soak scrapes.
//
// The flight recorder is always on: every preemption decision lands in a
// bounded in-memory ring, flushed to -journal on drain, abort, or panic,
// so the last ~2 MiB of decision provenance survives any exit and can be
// interrogated with cmd/explain.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"preemptsched/internal/clusterd"
	"preemptsched/internal/core"
	"preemptsched/internal/faults"
	"preemptsched/internal/storage"
	"preemptsched/internal/yarn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clusterd:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:7171", "wire-protocol listen address")
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /healthz, /readyz, and pprof on this address (empty disables)")
	queue := flag.Int("queue", 64, "admission queue bound; beyond it submissions are rejected with retry-after")
	maxInFlight := flag.Int("max-in-flight", 256, "max jobs dispatched into the engine at once")
	retryAfter := flag.Duration("retry-after", 100*time.Millisecond, "backpressure hint returned with queue-full rejections")
	policyFlag := flag.String("policy", "adaptive", "preemption policy: wait|kill|checkpoint|adaptive")
	storageFlag := flag.String("storage", "ssd", "checkpoint storage: hdd|ssd|nvm")
	replication := flag.Int("replication", 3, "DFS replication factor")
	// The policy and storage the defaults are built with are placeholders
	// until their own flags are parsed.
	cc := yarn.DefaultConfig(core.PolicyAdaptive, storage.SSD)
	cc.BindFlags(flag.CommandLine)
	var plan faults.Plan
	plan.BindFlags(flag.CommandLine)
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "graceful drain deadline; past it DFS I/O is aborted and the drain converges on the kill path")
	reportPath := flag.String("report", "", "write the final JSON report (daemon stats + cluster result) here on exit")
	journalPath := flag.String("journal", "clusterd.journal", "flush the decision-provenance journal here on exit or panic (empty disables)")
	flag.Parse()

	var err error
	if cc.Policy, err = core.ParsePolicy(*policyFlag); err != nil {
		return err
	}
	if cc.StorageKind, err = storage.ParseKind(*storageFlag); err != nil {
		return err
	}
	cc.Replication = *replication
	if plan.Injects() {
		cc.Faults = &plan
	}

	d, err := clusterd.Start(clusterd.Config{
		Addr:        *listen,
		OpsAddr:     *opsAddr,
		QueueSize:   *queue,
		MaxInFlight: *maxInFlight,
		RetryAfter:  *retryAfter,
		Cluster:     cc,
	})
	if err != nil {
		return err
	}
	// A panic must not take the journal down with it: flush the ring,
	// then re-panic so the crash still reports normally.
	defer func() {
		if r := recover(); r != nil {
			flushJournal(*journalPath, d)
			panic(r)
		}
	}()
	fmt.Printf("clusterd listening on %s (policy=%v storage=%s, queue=%d, max-in-flight=%d)\n",
		d.Addr(), cc.Policy, cc.StorageKind, *queue, *maxInFlight)
	if d.OpsAddr() != "" {
		fmt.Printf("ops on http://%s/metrics /healthz /readyz /debug/pprof/\n", d.OpsAddr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("clusterd: %v received, draining (deadline %v; signal again to abort)\n", s, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		select {
		case <-sig:
			cancel() // second signal: abort the drain
		case <-ctx.Done():
		}
		signal.Stop(sig)
	}()

	drainErr := d.Shutdown(ctx)
	st := d.Stats()
	fmt.Printf("clusterd: drained — %d submitted, %d admitted, %d rejected, %d completed, %d lost, %d double-completed\n",
		st.Submitted, st.Admitted, st.Rejected, st.Completed, st.Lost, st.DoubleCompleted)
	if *journalPath != "" {
		flushJournal(*journalPath, d)
		fmt.Printf("journal: %s (%d records kept, %d dropped)\n",
			*journalPath, d.Recorder().Retained(), d.Recorder().Dropped())
	}
	if *reportPath != "" {
		if err := writeReport(*reportPath, d, st, drainErr); err != nil {
			return err
		}
		fmt.Printf("report: %s\n", *reportPath)
	}
	return drainErr
}

// finalReport is the flushed-on-exit report: the daemon's books plus the
// cluster's aggregated result.
type finalReport struct {
	Stats    clusterd.Stats `json:"stats"`
	Clean    bool           `json:"clean"`
	Error    string         `json:"error,omitempty"`
	Makespan float64        `json:"makespan_seconds"`
	Result   *yarn.Result   `json:"result,omitempty"`
}

// flushJournal persists the flight-recorder ring; failures are reported
// but never mask the exit path that triggered the flush.
func flushJournal(path string, d *clusterd.Daemon) {
	if path == "" {
		return
	}
	if err := d.Recorder().SaveTo(path); err != nil {
		fmt.Fprintln(os.Stderr, "clusterd: journal:", err)
	}
}

func writeReport(path string, d *clusterd.Daemon, st clusterd.Stats, drainErr error) error {
	rep := finalReport{Stats: st, Clean: drainErr == nil, Result: d.Result()}
	if drainErr != nil {
		rep.Error = drainErr.Error()
	}
	if rep.Result != nil {
		rep.Makespan = rep.Result.Makespan.Seconds()
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
