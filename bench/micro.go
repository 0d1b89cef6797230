package main

import (
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// microReps repetitions of each micro-op are timed and the median kept.
const microReps = 5

// sink keeps the compiler from discarding the micro-ops' results.
var sink int64

// perCall times reps batches of n calls and returns the median ns/call.
func perCall(n int, batch func(n int)) float64 {
	var ns []float64
	for i := 0; i < microReps; i++ {
		t0 := time.Now()
		batch(n)
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ns)
}

// microOps times the leaf calls of the sim, core and storage layers on
// their own: they are too small to span inside a workload, and every
// workload's traced run reports them so the ladder has the same bottom
// rungs everywhere.
func microOps(m map[string]float64, smoke bool) {
	scale := 1
	if smoke {
		scale = 20
	}

	m["sim.engine_ns_per_event"] = perCall(200_000/scale, func(n int) {
		e := sim.NewEngine()
		fired := 0
		for i := 0; i < n; i++ {
			// A spread of deadlines keeps the event heap a few thousand deep.
			e.After(time.Duration(i%4096)*time.Millisecond, func(sim.Time) { fired++ })
			if i%2 == 1 {
				e.Step()
			}
		}
		for e.Step() {
		}
		sink += int64(fired)
	})

	dev := storage.NewDevice(storage.SSD)
	cands := make([]core.Candidate, 24)
	for i := range cands {
		cands[i] = core.Candidate{
			Task:            cluster.TaskID{Job: cluster.JobID(i / 4), Index: int32(i)},
			Priority:        cluster.Priority(i % 3 * 5),
			Demand:          cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(4)},
			UnsavedProgress: time.Duration(1+i*7%11) * time.Minute,
			FootprintBytes:  cluster.GiB(1) + int64(i)*cluster.MiB(64),
			DirtyBytes:      cluster.MiB(128),
			HasCheckpoint:   i%2 == 0,
		}
	}
	need := cluster.Resources{CPUMillis: cluster.Cores(4), MemBytes: cluster.GiB(16)}
	devFor := func(core.Candidate) *storage.Device { return dev }
	m["core.select_victims_ns_per_call"] = perCall(20_000/scale, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := core.SelectVictims(cands, need, sim.Time(i), devFor)
			sink += int64(len(v))
		}
	})
	m["core.decide_preemption_ns_per_call"] = perCall(2_000_000/scale, func(n int) {
		for i := 0; i < n; i++ {
			sink += int64(core.DecidePreemption(core.PolicyAdaptive, cands[i%len(cands)], dev, sim.Time(i)))
		}
	})
	rc := core.RestoreCosts{FootprintBytes: cluster.GiB(2), LocalDev: dev, RemoteDev: storage.NewDevice(storage.HDD), NetBandwidth: core.DefaultNetBandwidth}
	m["core.decide_restore_ns_per_call"] = perCall(2_000_000/scale, func(n int) {
		for i := 0; i < n; i++ {
			sink += int64(core.DecideRestore(rc, sim.Time(i)))
		}
	})
	m["storage.device_reserve_ns_per_call"] = perCall(2_000_000/scale, func(n int) {
		d := storage.NewDevice(storage.SSD)
		for i := 0; i < n; i++ {
			_, done := d.Reserve(sim.Time(i)*sim.Time(time.Millisecond), time.Millisecond)
			sink += int64(done)
		}
	})
}
