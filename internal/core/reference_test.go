package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// referenceSelectVictims is the eviction rule written as plainly as it
// reads: score every candidate into a fresh slice, sort.SliceStable by
// (priority, cost), take the covering prefix. It is the executable
// definition of the eviction order the selector must reproduce bit for
// bit.
func referenceSelectVictims(cands []Candidate, need cluster.Resources, now sim.Time, devFor func(Candidate) *storage.Device) ([]Candidate, bool) {
	type scored struct {
		c    Candidate
		cost time.Duration
	}
	scoredCands := make([]scored, len(cands))
	for i, c := range cands {
		scoredCands[i] = scored{c: c, cost: CheckpointOverhead(c, devFor(c), now)}
	}
	sort.SliceStable(scoredCands, func(i, j int) bool {
		if scoredCands[i].c.Priority != scoredCands[j].c.Priority {
			return scoredCands[i].c.Priority < scoredCands[j].c.Priority
		}
		return scoredCands[i].cost < scoredCands[j].cost
	})
	var (
		freed   cluster.Resources
		victims []Candidate
	)
	for _, s := range scoredCands {
		if need.Fits(freed) {
			break
		}
		victims = append(victims, s.c)
		freed = freed.Add(s.c.Demand)
	}
	if !need.Fits(freed) {
		return nil, false
	}
	return victims, true
}

// GIVEN any candidate set — equal costs, equal priorities, one device or
// several with different queue depths — and any need, zero and uncoverable
// included,
// WHEN SelectVictims chooses victims,
// THEN it returns exactly the reference's victims in the reference's
// order (nil for nil).
func TestSelectVictimsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 3000; round++ {
		now := sim.Time(rng.Int63n(int64(time.Hour)))
		devs := []*storage.Device{storage.NewDevice(storage.SSD), storage.NewDevice(storage.HDD)}
		devs[1].ReserveWrite(now, cluster.GiB(float64(rng.Intn(4)))) // a queue on one device only
		n := rng.Intn(40)
		if round%10 == 0 {
			n = 40 + rng.Intn(200) // well past any small-k regime
		}
		footprints := []int64{cluster.MiB(64), cluster.GiB(1), cluster.GiB(2)}
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = Candidate{
				Task:     cluster.TaskID{Job: cluster.JobID(i / 3), Index: int32(i)},
				Priority: cluster.Priority(rng.Intn(3) * 5),
				Demand:   cluster.Resources{CPUMillis: int64(rng.Intn(3)) * 500, MemBytes: cluster.GiB(float64(rng.Intn(3)))},
				// Three footprints, so equal (priority, cost) pairs are
				// common and the tie-break is exercised every round.
				FootprintBytes:  footprints[rng.Intn(len(footprints))],
				DirtyBytes:      cluster.MiB(32),
				HasCheckpoint:   rng.Intn(4) == 0,
				UnsavedProgress: time.Duration(rng.Intn(600)) * time.Second,
			}
		}
		devFor := func(c Candidate) *storage.Device { return devs[int(c.Task.Index)%len(devs)] }
		var total cluster.Resources
		for _, c := range cands {
			total = total.Add(c.Demand)
		}
		var need cluster.Resources
		switch rng.Intn(4) {
		case 0: // zero need
		case 1: // uncoverable
			need = total.Add(cluster.Resources{CPUMillis: 1})
		default:
			need = cluster.Resources{CPUMillis: rng.Int63n(total.CPUMillis + 1), MemBytes: rng.Int63n(total.MemBytes + 1)}
		}

		want, wantOK := referenceSelectVictims(cands, need, now, devFor)
		got, gotOK := SelectVictims(cands, need, now, devFor)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: SelectVictims = %v, %v; reference %v, %v", round, got, gotOK, want, wantOK)
		}

	}
}
