package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/metrics"
	"preemptsched/internal/storage"
)

// TestFairnessIndexDeterministic guards the sorted reduction from the
// mapiter sweep: per-user means of very different magnitudes summed in
// map-range order would make the reported index vary bit-for-bit
// between calls on the same Result.
func TestFairnessIndexDeterministic(t *testing.T) {
	r := &Result{JobResponseByUser: map[string]float64{}}
	vals := []float64{1e16, 1, 1e-8, 3.1415, 2.718e7, 42, 1e12, 7e-3, 9.99e3, 0.125}
	for i, v := range vals {
		r.JobResponseByUser[fmt.Sprintf("user-%d", i)] = v
	}
	first := r.FairnessIndex()
	if first <= 0 || first > 1 {
		t.Fatalf("FairnessIndex = %v, want a value in (0, 1]", first)
	}
	for i := 0; i < 100; i++ {
		if got := r.FairnessIndex(); got != first {
			t.Fatalf("FairnessIndex unstable on identical input: call %d returned %v, first returned %v", i, got, first)
		}
	}
}

// GIVEN seeded jobs across every band and several tenants, whose
// responses span eleven orders of magnitude and finish in an order unrelated
// to their size, on a cluster too big for any of them to queue,
// WHEN the run books them,
// THEN every band's MeanResponse and every tenant's mean equal, bit for
// bit, metrics.Dist.Mean of the same responses in completion order — the
// exact samples the running sums replaced.
func TestResponseMeansMatchDist(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	users := []string{"alice", "bob", "carol", ""} // "" is its own tenant per job
	type done struct {
		finish time.Duration
		resp   float64
		band   cluster.Band
		tenant string
	}
	var jobs []cluster.JobSpec
	var dones []done
	finishes := make(map[time.Duration]bool)
	for id := cluster.JobID(0); len(jobs) < 400; id++ {
		// Responses of 1 ms to ~3 years, in ns, submitted over as long a
		// span: a band's sum has an ulp far above a nanosecond, so where a
		// small response lands changes its bits, and completion order is
		// not size order.
		submit := time.Duration(rng.Int63n(1e17))
		dur := time.Duration(math.Pow(10, 6+11*rng.Float64()))
		if finishes[submit+dur] {
			continue // distinct finishes fix the completion order
		}
		finishes[submit+dur] = true
		prio := cluster.Priority(rng.Intn(int(cluster.MaxPriority) + 1))
		user := users[rng.Intn(len(users))]
		jobs = append(jobs, userJob(id, user, prio, submit, dur, 1))
		tenant := user
		if tenant == "" {
			tenant = fmt.Sprintf("job-%d", id)
		}
		dones = append(dones, done{submit + dur, dur.Seconds(), cluster.BandOf(prio), tenant})
	}
	sort.Slice(dones, func(i, j int) bool { return dones[i].finish < dones[j].finish })

	r, err := Run(DefaultConfig(core.PolicyCheckpoint, storage.SSD), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Preemptions != 0 {
		t.Fatalf("%d preemptions: a job queued, so its response is not its duration", r.Preemptions)
	}
	var bands [cluster.NumBands]metrics.Dist
	tenants := make(map[string]*metrics.Dist)
	for _, d := range dones {
		bands[d.band].Add(d.resp)
		if tenants[d.tenant] == nil {
			tenants[d.tenant] = &metrics.Dist{}
		}
		tenants[d.tenant].Add(d.resp)
	}
	orderMatters := false
	for b := range bands {
		want := bands[b].Mean()
		if got := r.MeanResponse(cluster.Band(b)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("band %v: MeanResponse %v (%x), Dist.Mean %v (%x)", cluster.Band(b), got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if n := r.JobResponseSec[b].N; n != bands[b].N() {
			t.Errorf("band %v: %d responses booked, %d finished", cluster.Band(b), n, bands[b].N())
		}
		sorted := metrics.Dist{}
		for _, d := range dones {
			if d.band == cluster.Band(b) {
				sorted.Add(d.resp)
			}
		}
		sorted.Quantile(0) // sorts the samples, so Mean sums them in sorted order
		orderMatters = orderMatters || sorted.Mean() != want
	}
	if !orderMatters {
		t.Fatal("no band's mean depends on summation order: the samples cannot tell insertion order from sorted")
	}
	if len(r.JobResponseByUser) != len(tenants) {
		t.Errorf("%d tenant means, %d tenants finished jobs", len(r.JobResponseByUser), len(tenants))
	}
	for name, d := range tenants {
		if got, want := r.JobResponseByUser[name], d.Mean(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("tenant %s: mean %v (%x), Dist.Mean %v (%x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
