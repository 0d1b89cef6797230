package core

import (
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/metrics"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
)

// Outcome is what a run reports on either substrate: the quantities the
// paper plots for the trace simulator (Fig. 3/5) and again for the
// framework (Fig. 8-12). sched.Result and yarn.Result embed it and add
// only what their layer alone measures; both engines book every charge
// through its methods, so a quantity's arithmetic exists once.
type Outcome struct {
	Policy   Policy
	Storage  string
	Nodes    int // the cluster size the run was sized to
	Makespan time.Duration

	// WastedCPUHours is core-hours consumed without producing retained
	// progress: killed partial runs plus checkpoint/restore overhead, the
	// latter also in OverheadCPUHours (Fig. 12a). UsefulCPUHours is
	// core-hours of retained compute; EnergyKWh total cluster energy.
	WastedCPUHours   float64
	UsefulCPUHours   float64
	OverheadCPUHours float64
	EnergyKWh        float64

	// JobResponseSec is the sum and count of job response times in seconds
	// (queueing + execution) per band, indexed by cluster.Band: the per-band
	// figures plot only their means. JobResponseAllSec keeps every job's,
	// for the one all-jobs CDF (Fig. 9, 11); it is nil, and JobDone skips
	// it, where no CDF is drawn from the run (a yarn.Service, whose SLO
	// histogram holds that distribution).
	JobResponseSec    [cluster.NumBands]metrics.Tally
	JobResponseAllSec *metrics.Dist

	Preemptions            int
	Kills                  int
	Checkpoints            int
	IncrementalCheckpoints int
	// PreCopies counts the pre-dumps of the pre-copy optimization. A
	// pre-copy whose freeze dump then fails is a kill, not a checkpoint,
	// but its pre-dump still counts here (see Count).
	PreCopies      int
	Restores       int
	RemoteRestores int
	TasksCompleted int

	// NodeFailures counts machines taken out (a seeded outage in the
	// simulator, a liveness verdict in the framework) and NodeRecoveries
	// those that came back. Each of the TasksRescheduled resumes from a
	// surviving image (FailureRestores) or from scratch (FailureRestarts);
	// FailureWasteHours is their share of WastedCPUHours.
	NodeFailures      int
	NodeRecoveries    int
	TasksRescheduled  int
	FailureRestores   int
	FailureRestarts   int
	FailureWasteHours float64

	// IOBusyHours is device-hours spent on checkpoint I/O (Fig. 12b).
	IOBusyHours float64
	// PeakImageBytes is the high-water mark of imageBytes, the checkpoint
	// state stored at one time (Section 5.3.3 storage overhead).
	PeakImageBytes int64
	imageBytes     int64
}

// NewOutcome returns a run's empty books.
func NewOutcome(policy Policy, storageLabel string, nodes int) Outcome {
	return Outcome{Policy: policy, Storage: storageLabel, Nodes: nodes, JobResponseAllSec: &metrics.Dist{}}
}

// Count books ev in the counters its edge defines, as their only writer.
// A verdict is one preemption and one kill or checkpoint, by its Name; a
// kill-fallback moves the checkpoint verdict its Name names over to
// Kills, so Preemptions == Kills + Checkpoints by construction.
func (o *Outcome) Count(ev obs.Event) {
	switch ev.Kind {
	case obs.EvDecision:
		o.Preemptions++
		if ev.Name == ActionKill.String() {
			o.Kills++
			return
		}
		o.Checkpoints++
		if ev.Name == ActionCheckpointIncremental.String() {
			o.IncrementalCheckpoints++
		}
	case obs.EvKillFallback:
		o.Kills++
		o.Checkpoints--
		if ev.Name == ActionCheckpointIncremental.String() {
			o.IncrementalCheckpoints--
		}
	case obs.EvPreDump:
		o.PreCopies++
	case obs.EvRestore:
		o.Restores++
		if ev.Flags&obs.FlagRemote != 0 {
			o.RemoteRestores++
		}
	case obs.EvTaskDone:
		o.TasksCompleted++
	case obs.EvTaskRescheduled:
		o.TasksRescheduled++
	case obs.EvNodeDown:
		o.NodeFailures++
	case obs.EvNodeRecovered:
		o.NodeRecoveries++
	}
}

// ratio is num over den, and 0 for a run that has no denominator yet.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// WasteFraction returns waste over total consumed CPU.
func (o *Outcome) WasteFraction() float64 {
	return ratio(o.WastedCPUHours, o.WastedCPUHours+o.UsefulCPUHours)
}

// CPUOverheadFraction is checkpoint/restore over consumed CPU (Fig. 12a).
func (o *Outcome) CPUOverheadFraction() float64 {
	return ratio(o.OverheadCPUHours, o.WastedCPUHours+o.UsefulCPUHours)
}

// IOOverheadFraction is checkpoint I/O over total device-time (Fig. 12b).
func (o *Outcome) IOOverheadFraction() float64 {
	return ratio(o.IOBusyHours, o.Makespan.Hours()*float64(o.Nodes))
}

// MeanResponse returns the mean job response time for a band, in seconds.
func (o *Outcome) MeanResponse(b cluster.Band) float64 {
	return o.JobResponseSec[b].Mean()
}

// coreHours is what t's reserved cores amount to over d.
func coreHours(t *cluster.TaskSpec, d time.Duration) float64 {
	return float64(t.Demand.CPUMillis) / 1000 * d.Hours()
}

// ChargeWaste books compute t performed and then lost, to a kill or to a
// restore that fell back to an older image. Like every Charge method it
// returns the core-hours booked, for engines that mirror them live.
func (o *Outcome) ChargeWaste(t *cluster.TaskSpec, lost time.Duration) float64 {
	h := coreHours(t, lost)
	o.WastedCPUHours += h
	return h
}

// ChargeOverhead books a checkpoint or restore window during which t held
// its cores without computing: waste, and the overhead share of it.
func (o *Outcome) ChargeOverhead(t *cluster.TaskSpec, window time.Duration) float64 {
	h := o.ChargeWaste(t, window)
	o.OverheadCPUHours += h
	return h
}

// ChargeFailureWaste books compute that died with t's machine: waste, and
// the failure-attributed share of it.
func (o *Outcome) ChargeFailureWaste(t *cluster.TaskSpec, lost time.Duration) float64 {
	h := o.ChargeWaste(t, lost)
	o.FailureWasteHours += h
	return h
}

// ChargeUseful books a completed task's whole duration as retained compute.
func (o *Outcome) ChargeUseful(t *cluster.TaskSpec) float64 {
	h := coreHours(t, t.Duration)
	o.UsefulCPUHours += h
	return h
}

// JobDone records the response time of a job whose last task finished at
// now, under its band and, where the run keeps them, among all jobs, and
// returns it in seconds.
func (o *Outcome) JobDone(job *cluster.JobSpec, now sim.Time) float64 {
	resp := time.Duration(now - job.Submit).Seconds()
	o.JobResponseSec[job.Band()].Add(resp)
	if o.JobResponseAllSec != nil {
		o.JobResponseAllSec.Add(resp)
	}
	return resp
}

// AddImageBytes moves the stored checkpoint state by delta.
func (o *Outcome) AddImageBytes(delta int64) {
	o.imageBytes += delta
	o.PeakImageBytes = max(o.PeakImageBytes, o.imageBytes)
}

// CloseNode adds one node's books to the totals at the end of a run: its
// meter, settled here to end, and its device's busy time. Engines call it
// in node order, which fixes the float addend order.
func (o *Outcome) CloseNode(l *Ledger, end sim.Time) {
	l.Settle(end)
	o.EnergyKWh += l.Meter.KWh()
	o.IOBusyHours += l.Device.BusyTime().Hours()
}
