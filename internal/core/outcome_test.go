package core

import (
	"math/rand"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/energy"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// TestOutcomeRatios pins the four ratio methods, zero denominators
// included: an empty outcome reports 0 everywhere instead of NaN.
func TestOutcomeRatios(t *testing.T) {
	withResponse := NewOutcome(PolicyKill, "SSD", 1)
	withResponse.JobDone(&cluster.JobSpec{Submit: 10 * time.Second}, 40*time.Second)
	withResponse.JobDone(&cluster.JobSpec{}, 50*time.Second)

	cases := []struct {
		name                 string
		o                    Outcome
		waste, cpu, io, resp float64
	}{
		{name: "zero value"},
		{name: "fresh books", o: NewOutcome(PolicyAdaptive, "NVM", 8)},
		{name: "waste and overhead over consumed CPU",
			o:     Outcome{WastedCPUHours: 1, UsefulCPUHours: 3, OverheadCPUHours: 0.5},
			waste: 0.25, cpu: 0.125},
		{name: "all waste", o: Outcome{WastedCPUHours: 2, OverheadCPUHours: 2}, waste: 1, cpu: 1},
		{name: "device-hours over node-hours",
			o:  Outcome{Nodes: 4, Makespan: 2 * time.Hour, IOBusyHours: 2},
			io: 0.25},
		{name: "no nodes recorded", o: Outcome{Makespan: time.Hour, IOBusyHours: 1}},
		{name: "no makespan", o: Outcome{Nodes: 4, IOBusyHours: 1}},
		{name: "mean response of the band", o: withResponse, resp: 40},
	}
	for _, tc := range cases {
		if got := tc.o.WasteFraction(); got != tc.waste {
			t.Errorf("%s: WasteFraction = %v, want %v", tc.name, got, tc.waste)
		}
		if got := tc.o.CPUOverheadFraction(); got != tc.cpu {
			t.Errorf("%s: CPUOverheadFraction = %v, want %v", tc.name, got, tc.cpu)
		}
		if got := tc.o.IOOverheadFraction(); got != tc.io {
			t.Errorf("%s: IOOverheadFraction = %v, want %v", tc.name, got, tc.io)
		}
		if got := tc.o.MeanResponse(cluster.BandFree); got != tc.resp {
			t.Errorf("%s: MeanResponse(free) = %v, want %v", tc.name, got, tc.resp)
		}
		if got := tc.o.MeanResponse(cluster.BandProduction); got != 0 {
			t.Errorf("%s: MeanResponse(production) = %v, want 0", tc.name, got)
		}
	}
}

// TestOutcomeCharges walks one task through every charge and checks each
// lands in exactly the buckets its name says, for the amount it returns.
func TestOutcomeCharges(t *testing.T) {
	task := &cluster.TaskSpec{
		Demand:   cluster.Resources{CPUMillis: cluster.Cores(2)},
		Duration: 3 * time.Hour,
	}
	o := NewOutcome(PolicyCheckpoint, "SSD", 2)

	if h := o.ChargeOverhead(task, 30*time.Minute); h != 1 {
		t.Errorf("ChargeOverhead booked %v core-hours, want 1", h)
	}
	if h := o.ChargeWaste(task, 15*time.Minute); h != 0.5 {
		t.Errorf("ChargeWaste booked %v core-hours, want 0.5", h)
	}
	if h := o.ChargeFailureWaste(task, time.Hour); h != 2 {
		t.Errorf("ChargeFailureWaste booked %v core-hours, want 2", h)
	}
	if h := o.ChargeUseful(task); h != 6 {
		t.Errorf("ChargeUseful booked %v core-hours, want 6", h)
	}
	if o.WastedCPUHours != 3.5 || o.OverheadCPUHours != 1 || o.FailureWasteHours != 2 || o.UsefulCPUHours != 6 {
		t.Errorf("books after charges: wasted %v overhead %v failure %v useful %v",
			o.WastedCPUHours, o.OverheadCPUHours, o.FailureWasteHours, o.UsefulCPUHours)
	}

	if resp := o.JobDone(&cluster.JobSpec{Priority: 5, Submit: time.Minute}, 3*time.Minute); resp != 120 {
		t.Errorf("JobDone = %v s, want 120", resp)
	}
	if o.JobResponseSec[cluster.BandMiddle].N != 1 || o.JobResponseAllSec.N() != 1 || o.JobResponseSec[cluster.BandFree].N != 0 {
		t.Error("JobDone did not land in its band and the all-jobs distribution alone")
	}

	// The high-water mark follows the stored bytes up, never down.
	for _, step := range []struct{ delta, peak int64 }{{100, 100}, {-40, 100}, {30, 100}, {20, 110}, {-110, 110}} {
		o.AddImageBytes(step.delta)
		if o.PeakImageBytes != step.peak {
			t.Errorf("after %+d image bytes: peak %d, want %d", step.delta, o.PeakImageBytes, step.peak)
		}
	}

	dev := storage.NewDevice(storage.SSD)
	dev.Reserve(0, 90*time.Minute)
	l := Ledger{Cap: cluster.Resources{CPUMillis: 2000, MemBytes: 1}, Device: dev,
		Meter: energy.NewMeter(energy.Model{IdleWatts: 1000, PeakWatts: 1000})}
	l.Alloc(0, cluster.Resources{CPUMillis: 1000})
	o.CloseNode(&l, sim.Time(2*time.Hour))
	o.CloseNode(&l, sim.Time(2*time.Hour))
	if o.EnergyKWh != 4 || o.IOBusyHours != 3 {
		t.Errorf("after closing two nodes: %v kWh, %v device-hours; want 4, 3", o.EnergyKWh, o.IOBusyHours)
	}
}

// TestCountMovesItsEdgesCounters feeds Count one edge of each kind and
// checks it moves exactly the counters that edge defines: a verdict one
// preemption and its kill or checkpoint, a kill-fallback its degraded
// checkpoint verdict over to the kills, and every other counted edge its
// own counter. Edges no counter is defined by move nothing.
func TestCountMovesItsEdgesCounters(t *testing.T) {
	full, incr := ActionCheckpointFull.String(), ActionCheckpointIncremental.String()
	for _, tc := range []struct {
		name string
		ev   obs.Event
		want Outcome
	}{
		{"kill verdict", obs.Event{Kind: obs.EvDecision, Name: ActionKill.String()}, Outcome{Preemptions: 1, Kills: 1}},
		{"full verdict", obs.Event{Kind: obs.EvDecision, Name: full}, Outcome{Preemptions: 1, Checkpoints: 1}},
		{"incremental verdict", obs.Event{Kind: obs.EvDecision, Name: incr},
			Outcome{Preemptions: 1, Checkpoints: 1, IncrementalCheckpoints: 1}},
		{"full fallback", obs.Event{Kind: obs.EvKillFallback, Name: full}, Outcome{Kills: 1, Checkpoints: -1}},
		{"incremental fallback", obs.Event{Kind: obs.EvKillFallback, Name: incr},
			Outcome{Kills: 1, Checkpoints: -1, IncrementalCheckpoints: -1}},
		{"pre-dump", obs.Event{Kind: obs.EvPreDump}, Outcome{PreCopies: 1}},
		{"local restore", obs.Event{Kind: obs.EvRestore, Flags: obs.FlagFailure}, Outcome{Restores: 1}},
		{"remote restore", obs.Event{Kind: obs.EvRestore, Flags: obs.FlagRemote}, Outcome{Restores: 1, RemoteRestores: 1}},
		{"task done", obs.Event{Kind: obs.EvTaskDone}, Outcome{TasksCompleted: 1}},
		{"task rescheduled", obs.Event{Kind: obs.EvTaskRescheduled}, Outcome{TasksRescheduled: 1}},
		{"node down", obs.Event{Kind: obs.EvNodeDown}, Outcome{NodeFailures: 1}},
		{"node recovered", obs.Event{Kind: obs.EvNodeRecovered}, Outcome{NodeRecoveries: 1}},
		{"selection", obs.Event{Kind: obs.EvSelection}, Outcome{}},
		{"dump", obs.Event{Kind: obs.EvDump, Flags: obs.FlagIncremental}, Outcome{}},
		{"marker", obs.Event{Kind: obs.EvMarker, Name: ActionKill.String()}, Outcome{}},
		{"place", obs.Event{Kind: obs.EvPlace}, Outcome{}},
		{"vacate", obs.Event{Kind: obs.EvVacate}, Outcome{}},
	} {
		var o Outcome
		o.Count(tc.ev)
		if o != tc.want {
			t.Errorf("%s: Count booked %+v, want %+v", tc.name, o, tc.want)
		}
	}
}

// TestCountKeepsOnePerPreemption drives Count with seeded random runs of
// verdicts, each checkpoint verdict later degraded to a kill-fallback or
// not, and checks after every edge that each preemption counts once, as a
// kill or as a checkpoint, and that the incremental checkpoints are a
// share of the checkpoints.
func TestCountKeepsOnePerPreemption(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	actions := []PreemptAction{ActionKill, ActionCheckpointFull, ActionCheckpointIncremental}
	for run := range 200 {
		var o Outcome
		var open []PreemptAction // checkpoint verdicts a fallback may still degrade
		for step := range 40 {
			if len(open) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(open))
				o.Count(obs.Event{Kind: obs.EvKillFallback, Name: open[i].String()})
				open = append(open[:i], open[i+1:]...)
			} else {
				a := actions[rng.Intn(len(actions))]
				o.Count(obs.Event{Kind: obs.EvDecision, Name: a.String()})
				if a.IsCheckpoint() {
					open = append(open, a)
				}
			}
			if o.Preemptions != o.Kills+o.Checkpoints || o.IncrementalCheckpoints < 0 || o.IncrementalCheckpoints > o.Checkpoints {
				t.Fatalf("run %d step %d: %d preemptions, %d kills, %d checkpoints (%d incremental)",
					run, step, o.Preemptions, o.Kills, o.Checkpoints, o.IncrementalCheckpoints)
			}
		}
	}
}
