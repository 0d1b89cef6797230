package yarn

import (
	"math"
	"time"

	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
)

// yarnHandles carries pre-resolved registry handles for the metrics hit
// on every dump, restore, verdict, or container grant, replacing a
// name-keyed lookup under the registry lock with one atomic slot each.
type yarnHandles struct {
	dumpQueue, dumpWrite, dumpTotal         obs.Histogram
	predumpTotal                            obs.Histogram
	containerWait                           obs.Histogram
	restoreQueue, restoreRead, restoreTotal obs.Histogram
	restoreTransfer, estimateRelerr         obs.Histogram
	restoreLocal, restoreRemote             obs.Counter
	decision                                [int(core.ActionCheckpointIncremental) + 1]obs.Counter
}

// resolveHandles fills hm from the cluster registry; reg is never nil by
// the time this runs (Cluster construction guarantees it).
func (c *Cluster) resolveHandles() {
	c.hm = yarnHandles{
		dumpQueue:       c.reg.Histogram("yarn.dump.queue.seconds"),
		dumpWrite:       c.reg.Histogram("yarn.dump.write.seconds"),
		dumpTotal:       c.reg.Histogram("yarn.dump.total.seconds"),
		predumpTotal:    c.reg.Histogram("yarn.predump.total.seconds"),
		containerWait:   c.reg.Histogram("yarn.container.wait.seconds"),
		restoreQueue:    c.reg.Histogram("yarn.restore.queue.seconds"),
		restoreRead:     c.reg.Histogram("yarn.restore.read.seconds"),
		restoreTotal:    c.reg.Histogram("yarn.restore.total.seconds"),
		restoreTransfer: c.reg.Histogram("yarn.restore.transfer.seconds"),
		estimateRelerr:  c.reg.Histogram("yarn.overhead.estimate.relerr"),
		restoreLocal:    c.reg.Counter("yarn.policy.restore.local"),
		restoreRemote:   c.reg.Counter("yarn.policy.restore.remote"),
	}
	for a := core.ActionKill; a <= core.ActionCheckpointIncremental; a++ {
		//lint:ignore metricname the suffix is a closed PreemptAction enum, one counter per verdict
		c.hm.decision[a] = c.reg.Counter("yarn.policy.decision." + a.String())
	}
}

// observeDecision books one Preemption Manager verdict in the yarn-only
// sinks — a policy-decision counter keyed by the chosen action, the SLO
// hit-rate tally, and an instant span on the victim's track carrying
// the unsaved progress and the open round trip's estimate — and returns
// the span, which keys the journal's decision record to it.
func (c *Cluster) observeDecision(t *taskRun, n *NodeManager, action core.PreemptAction, now sim.Time) obs.SpanID {
	c.hm.decision[action].Inc()
	c.slo.CountDecision(action.IsCheckpoint())
	if c.tracer == nil {
		return 0
	}
	return c.tracer.Instant("sched", "policy-decision", obs.NodeName(n.id), t.spec.ID.String(), 0, time.Duration(now),
		obs.String("action", action.String()),
		obs.DurationMS("unsaved_ms", t.unsavedProgress(now)),
		obs.DurationMS("est_overhead_ms", t.trip.Est()))
}

// emit books ev in the run's counters (core.Outcome.Count), then reports it.
func (c *Cluster) emit(ev obs.Event) {
	c.res.Count(ev)
	c.events.Emit(ev)
}

// recordDump books one image write window [now, done] with the device
// queue portion [now, start]: histograms, a span with dump-queue and
// dump-write children, the round trip's dump leg and the dump event. A
// stop-and-copy dump feeds the queue/write/total histograms and the per-node
// queue-backlog high-water mark; a pre-copy write, during which the victim
// keeps executing, has a histogram, a span name and an event kind of its
// own.
func (c *Cluster) recordDump(t *taskRun, n *NodeManager, image string, bytes int64, incremental, preCopy bool, now, start, done sim.Time) {
	total := time.Duration(done - now)
	ev := obs.Event{Kind: obs.EvDump, At: now, Task: t.spec.ID, Node: n.id, Priority: t.spec.Priority,
		Est: t.trip.Est(), Actual: total, Bytes: bytes}
	if preCopy {
		ev.Kind = obs.EvPreDump
		c.hm.predumpTotal.ObserveDuration(total)
	} else {
		if incremental {
			ev.Flags = obs.FlagIncremental
		}
		c.hm.dumpQueue.ObserveDuration(time.Duration(start - now))
		c.hm.dumpWrite.ObserveDuration(time.Duration(done - start))
		c.hm.dumpTotal.ObserveDuration(total)
		n.queuePeak.Max(time.Duration(start - now).Seconds())
	}
	var span obs.SpanID
	if c.tracer != nil {
		pid, tid := obs.NodeName(n.id), t.spec.ID.String()
		if preCopy {
			span = c.tracer.Complete("checkpoint", "pre-dump", pid, tid, 0, time.Duration(now), time.Duration(done),
				obs.Int64("bytes", bytes), obs.String("image", image))
		} else {
			span = c.tracer.Complete("checkpoint", "dump", pid, tid, 0, time.Duration(now), time.Duration(done),
				obs.Int64("bytes", bytes), obs.Bool("incremental", incremental), obs.String("image", image))
		}
		c.tracer.Complete("checkpoint", "dump-queue", pid, tid, span, time.Duration(now), time.Duration(start))
		c.tracer.Complete("checkpoint", "dump-write", pid, tid, span, time.Duration(start), time.Duration(done))
	}
	t.trip.Dumped(total, span)
	ev.Span = span
	c.emit(ev)
}

// recordContainerWait books the time a granted request spent queued at the
// RM. For checkpointed tasks this is the queue-wait link between dump and
// restore in the span chain, so it is traced even when zero.
func (c *Cluster) recordContainerWait(req *request, n *NodeManager, now sim.Time) {
	wait := time.Duration(now - req.queuedAt)
	c.hm.containerWait.ObserveDuration(wait)
	if c.tracer == nil || (wait <= 0 && !req.task.hasImage()) {
		return
	}
	c.tracer.Complete("sched", "queue-wait", obs.NodeName(n.id), req.task.spec.ID.String(),
		req.task.trip.Span(), time.Duration(req.queuedAt), time.Duration(now))
}

// recordRestore books one restore window [now, done]: transfer (remote
// only), device queue, read, and total histograms; the local/remote
// counters of where the restore landed, the image's node or another; the
// Algorithm 1 estimated-vs-actual relative error once the full
// checkpoint→restore round trip is known; and a restore span with
// transfer/queue/read children, parented to the dump span that produced
// the image.
func (c *Cluster) recordRestore(t *taskRun, n *NodeManager, remote bool, transfer time.Duration, now, start, done sim.Time) {
	arrive := now + sim.Time(transfer)
	c.hm.restoreQueue.ObserveDuration(time.Duration(start - arrive))
	c.hm.restoreRead.ObserveDuration(time.Duration(done - start))
	c.hm.restoreTotal.ObserveDuration(time.Duration(done - now))
	if remote {
		c.hm.restoreTransfer.ObserveDuration(transfer)
		c.hm.restoreRemote.Inc()
	} else {
		c.hm.restoreLocal.Inc()
	}
	// This restore closes the round trip that wrote the image it reads, if
	// one is still open: only then is there an estimate to hold against
	// the measured dump + restore.
	est, actual := t.trip.Close(time.Duration(done - now))
	if est > 0 && actual > 0 {
		relerr := math.Abs(est.Seconds()-actual.Seconds()) / actual.Seconds()
		c.hm.estimateRelerr.Observe(relerr)
	}
	var span obs.SpanID
	if c.tracer != nil {
		pid, tid := obs.NodeName(n.id), t.spec.ID.String()
		span = c.tracer.Complete("restore", "restore", pid, tid, t.trip.Span(),
			time.Duration(now), time.Duration(done), obs.Bool("remote", remote))
		if remote {
			c.tracer.Complete("restore", "restore-transfer", pid, tid, span, time.Duration(now), time.Duration(arrive))
		}
		c.tracer.Complete("restore", "restore-queue", pid, tid, span, time.Duration(arrive), time.Duration(start))
		c.tracer.Complete("restore", "restore-read", pid, tid, span, time.Duration(start), time.Duration(done))
	}
	flags := uint32(0)
	if remote {
		flags |= obs.FlagRemote
	}
	if t.failedOver {
		flags |= obs.FlagFailure
	}
	c.emit(obs.Event{Kind: obs.EvRestore, At: now, Task: t.spec.ID, Node: n.id, Priority: t.spec.Priority,
		Est: est, Actual: actual, Bytes: t.spec.MemFootprint, Flags: flags, Span: span})
}

// recordNodeDown reports the liveness sweep declaring a node dead. The
// event is node-centric: it has no Task, and Unsaved carries how long
// the node had been silent.
func (c *Cluster) recordNodeDown(n *NodeManager, now sim.Time) {
	if c.tracer != nil {
		c.tracer.Instant("liveness", "node-down", obs.NodeName(n.id), "", 0, time.Duration(now),
			obs.Bool("crashed", n.crashed))
	}
	c.emit(obs.Event{Kind: obs.EvNodeDown, At: now, Node: n.id, Unsaved: time.Duration(now - n.lastBeat)})
}

// recordNodeRecovered reports a declared-dead node whose heartbeat came
// back (healed partition).
func (c *Cluster) recordNodeRecovered(n *NodeManager, now sim.Time) {
	if c.tracer != nil {
		c.tracer.Instant("liveness", "node-recovered", obs.NodeName(n.id), "", 0, time.Duration(now))
	}
	c.emit(obs.Event{Kind: obs.EvNodeRecovered, At: now, Node: n.id})
}

// finishMetrics mirrors the run's Result counters into the registry, sets
// the end-of-run gauges, and snapshots everything into
// Result.Metrics. Called whether or not the run completed, so aborted runs
// still carry their telemetry.
func (c *Cluster) finishMetrics() {
	c.reg.Add("yarn.preemptions", int64(c.res.Preemptions))
	c.reg.Add("yarn.kills", int64(c.res.Kills))
	c.reg.Add("yarn.checkpoints", int64(c.res.Checkpoints))
	c.reg.Add("yarn.checkpoints.incremental", int64(c.res.IncrementalCheckpoints))
	c.reg.Add("yarn.precopies", int64(c.res.PreCopies))
	c.reg.Add("yarn.compactions", int64(c.res.Compactions))
	c.reg.Add("yarn.restores", int64(c.res.Restores))
	c.reg.Add("yarn.restores.remote", int64(c.res.RemoteRestores))
	c.reg.Add("yarn.restore.failures", int64(c.res.RestoreFailures))
	c.reg.Add("yarn.restore.fallbacks", int64(c.res.RestoreFallbacks))
	c.reg.Add("yarn.restore.restarts", int64(c.res.RestoreRestarts))
	c.reg.Add("yarn.dump.failures", int64(c.res.DumpFailures))
	c.reg.Add("yarn.fallback.kills", int64(c.res.FallbackKills))
	c.reg.Add("yarn.tasks.completed", int64(c.res.TasksCompleted))
	c.reg.Add("yarn.jobs.completed", int64(c.res.JobsCompleted))
	c.reg.Add("yarn.node.failures", int64(c.res.NodeFailures))
	c.reg.Add("yarn.node.recoveries", int64(c.res.NodeRecoveries))
	c.reg.Add("yarn.tasks.rescheduled", int64(c.res.TasksRescheduled))
	c.reg.Add("yarn.failure.restores", int64(c.res.FailureRestores))
	c.reg.Add("yarn.failure.restarts", int64(c.res.FailureRestarts))
	c.reg.SetGauge("yarn.makespan.seconds", c.res.Makespan.Seconds())
	c.reg.SetGauge("yarn.scrub.final.corrupt", float64(c.res.FinalScrubCorrupt))
	c.reg.SetGauge("yarn.peak.image.bytes", float64(c.res.PeakImageBytes))
	c.reg.SetGauge("yarn.dfs.stored.bytes", float64(c.res.DFSStoredBytes))
	c.reg.SetGauge("yarn.energy.kwh", c.res.EnergyKWh)
	c.res.SLO = c.slo.Snapshot()
	c.res.Metrics = c.reg.Snapshot()
}
