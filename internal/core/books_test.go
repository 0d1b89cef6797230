package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/energy"
	"preemptsched/internal/sim"
)

// vectorBooks is the trace simulator's node books as they stood before
// they moved into Ledger: capacity, use and reservations as vectors, the
// availability rule with the claimant's own reservation, and the meter
// settled at every allocation change. It is the executable definition of
// what Ledger must reproduce on vector demand.
type vectorBooks struct {
	cap, used, reserved cluster.Resources
	meter               *energy.Meter
	lastChange          sim.Time
}

func (n *vectorBooks) free() cluster.Resources { return n.cap.Sub(n.used) }

func (n *vectorBooks) availableFor(ownDemand cluster.Resources, ownsReservation bool) cluster.Resources {
	avail := n.free().Sub(n.reserved)
	if ownsReservation {
		avail = avail.Add(ownDemand)
	}
	free := n.free()
	if avail.CPUMillis > free.CPUMillis {
		avail.CPUMillis = free.CPUMillis
	}
	if avail.MemBytes > free.MemBytes {
		avail.MemBytes = free.MemBytes
	}
	if avail.CPUMillis < 0 {
		avail.CPUMillis = 0
	}
	if avail.MemBytes < 0 {
		avail.MemBytes = 0
	}
	return avail
}

func (n *vectorBooks) settleEnergy(now sim.Time) {
	if now > n.lastChange {
		util := float64(n.used.CPUMillis) / float64(n.cap.CPUMillis)
		n.meter.Accumulate(util, time.Duration(now-n.lastChange))
		n.lastChange = now
	}
}

func (n *vectorBooks) alloc(now sim.Time, r cluster.Resources) {
	n.settleEnergy(now)
	n.used = n.used.Add(r)
	if n.used.Negative() || !n.used.Fits(n.cap) {
		panic(fmt.Sprintf("node over-allocated: used %v cap %v", n.used, n.cap))
	}
}

func (n *vectorBooks) release(now sim.Time, r cluster.Resources) {
	n.settleEnergy(now)
	n.used = n.used.Sub(r)
	if n.used.Negative() {
		panic(fmt.Sprintf("node released into negative: %v", n.used))
	}
}

func (n *vectorBooks) reserve(r cluster.Resources) { n.reserved = n.reserved.Add(r) }

func (n *vectorBooks) unreserve(r cluster.Resources) {
	n.reserved = n.reserved.Sub(r)
	if n.reserved.Negative() {
		n.reserved = cluster.Resources{}
	}
}

// slotBooks is the framework's NodeManager books as they stood before they
// moved into Ledger: whole container slots, one per grant and per
// reservation, utilization as used over total slots.
type slotBooks struct {
	slots, usedSlots, reservedSlots int
	meter                           *energy.Meter
	lastChange                      sim.Time
}

func (nm *slotBooks) freeSlots() int { return nm.slots - nm.usedSlots }

func (nm *slotBooks) availableFor(ownsReservation bool) int {
	avail := nm.freeSlots() - nm.reservedSlots
	if ownsReservation {
		avail++
	}
	if avail > nm.freeSlots() {
		avail = nm.freeSlots()
	}
	if avail < 0 {
		avail = 0
	}
	return avail
}

func (nm *slotBooks) settleEnergy(now sim.Time) {
	if now > nm.lastChange {
		util := float64(nm.usedSlots) / float64(nm.slots)
		nm.meter.Accumulate(util, time.Duration(now-nm.lastChange))
		nm.lastChange = now
	}
}

func (nm *slotBooks) allocSlot(now sim.Time) {
	nm.settleEnergy(now)
	nm.usedSlots++
	if nm.usedSlots > nm.slots {
		panic(fmt.Sprintf("node over-allocated (%d/%d)", nm.usedSlots, nm.slots))
	}
}

func (nm *slotBooks) releaseSlot(now sim.Time) {
	nm.settleEnergy(now)
	nm.usedSlots--
	if nm.usedSlots < 0 {
		panic("node released into negative")
	}
}

func (nm *slotBooks) reserve() { nm.reservedSlots++ }

func (nm *slotBooks) unreserve() {
	nm.reservedSlots--
	if nm.reservedSlots < 0 {
		nm.reservedSlots = 0
	}
}

// slotUnit is the framework's container, the paper's 1 core + 2 GB.
var slotUnit = cluster.Resources{CPUMillis: 1000, MemBytes: 2 << 30}

func slots(k int) cluster.Resources {
	return cluster.Resources{CPUMillis: slotUnit.CPUMillis * int64(k), MemBytes: slotUnit.MemBytes * int64(k)}
}

// panics runs fn and reports whether it panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

type opStream []byte

func (s *opStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// ledgerCoverage counts what one op stream exercised.
type ledgerCoverage struct {
	allocPanics, releasePanics, clampedUnreserves, ownAboveReserved, settles int
}

// GIVEN one op stream — alloc, release (of a held grant or of anything),
// reserve, unreserve by a holder, a node death that clears reservations
// under their holders, and settles — at non-decreasing instants,
// WHEN it drives a vector Ledger beside vectorBooks and a container Ledger
// beside slotBooks,
// THEN after every op the ledgers hold what the references hold, answer
// every availability query alike with and without the claimant's own
// reservation, panic on the same over-allocations and negative releases,
// and their meters carry bit-equal joules.
func requireSameBooks(t *testing.T, data []byte, cov *ledgerCoverage) {
	in := opStream(data)
	model := energy.DefaultModel()
	capacity := cluster.Resources{CPUMillis: int64(1+in.next()%16) * 1000, MemBytes: int64(1+in.next()%64) << 30}
	n := 1 + in.next()%32
	vec := Ledger{Cap: capacity, Meter: energy.NewMeter(model)}
	vref := vectorBooks{cap: capacity, meter: energy.NewMeter(model)}
	ctr := Ledger{Cap: slots(n), Meter: energy.NewMeter(model)}
	sref := slotBooks{slots: n, meter: energy.NewMeter(model)}

	demand := func() cluster.Resources {
		return cluster.Resources{CPUMillis: int64(1+in.next()%8) * 500, MemBytes: int64(1+in.next()%16) << 29}
	}
	var (
		held    []cluster.Resources // vector grants outstanding
		holders []cluster.Resources // vector reservations whose holders still wait
		sHolder int                 // container reservations whose holders still wait
		now     sim.Time
	)
	same := func(op string, got, want bool) {
		if got != want {
			t.Fatalf("%s at %v: ledger panicked %v, reference %v", op, now, got, want)
		}
	}
	for step := 0; len(in) > 0; step++ {
		op := in.next() % 7
		now += sim.Time(in.next()) * sim.Time(time.Second)
		switch op {
		case 0:
			d := demand()
			vUsed, rUsed := vec.Used, vref.used
			p := panics(func() { vec.Alloc(now, d) })
			same("vector alloc", p, panics(func() { vref.alloc(now, d) }))
			if p {
				vec.Used, vref.used = vUsed, rUsed
				cov.allocPanics++
			} else {
				held = append(held, d)
			}
			cUsed, sUsed := ctr.Used, sref.usedSlots
			p = panics(func() { ctr.Alloc(now, slotUnit) })
			same("container alloc", p, panics(func() { sref.allocSlot(now) }))
			if p {
				ctr.Used, sref.usedSlots = cUsed, sUsed
				cov.allocPanics++
			}
		case 1:
			var d cluster.Resources
			if k := in.next(); len(held) > 0 && k%4 != 0 {
				i := k % len(held)
				d = held[i]
				held = append(held[:i], held[i+1:]...)
			} else {
				d = demand()
			}
			vUsed, rUsed := vec.Used, vref.used
			p := panics(func() { vec.Release(now, d) })
			same("vector release", p, panics(func() { vref.release(now, d) }))
			if p {
				vec.Used, vref.used = vUsed, rUsed
				cov.releasePanics++
			}
			cUsed, sUsed := ctr.Used, sref.usedSlots
			p = panics(func() { ctr.Release(now, slotUnit) })
			same("container release", p, panics(func() { sref.releaseSlot(now) }))
			if p {
				ctr.Used, sref.usedSlots = cUsed, sUsed
				cov.releasePanics++
			}
		case 2:
			d := demand()
			holders = append(holders, d)
			vec.Reserve(d)
			vref.reserve(d)
			sHolder++
			ctr.Reserve(slotUnit)
			sref.reserve()
		case 3:
			if len(holders) > 0 {
				i := in.next() % len(holders)
				d := holders[i]
				holders = append(holders[:i], holders[i+1:]...)
				if !d.Fits(vec.Reserved) {
					cov.clampedUnreserves++
				}
				vec.Unreserve(d)
				vref.unreserve(d)
			}
			if sHolder > 0 {
				sHolder--
				if ctr.Reserved.IsZero() {
					cov.clampedUnreserves++
				}
				ctr.Unreserve(slotUnit)
				sref.unreserve()
			}
		case 4:
			// The machine died: its reservations go, their holders stay.
			vec.Reserved, vref.reserved = cluster.Resources{}, cluster.Resources{}
			ctr.Reserved, sref.reservedSlots = cluster.Resources{}, 0
		case 5, 6:
			vec.Settle(now)
			vref.settleEnergy(now)
			ctr.Settle(now)
			sref.settleEnergy(now)
			cov.settles++
		}

		if vec.Used != vref.used || vec.Reserved != vref.reserved {
			t.Fatalf("step %d: vector ledger used %v reserved %v, reference %v %v", step, vec.Used, vec.Reserved, vref.used, vref.reserved)
		}
		if ctr.Used != slots(sref.usedSlots) || ctr.Reserved != slots(sref.reservedSlots) {
			t.Fatalf("step %d: container ledger used %v reserved %v, reference %d %d slots", step, ctr.Used, ctr.Reserved, sref.usedSlots, sref.reservedSlots)
		}
		if got, want := vec.AvailableFor(cluster.Resources{}), vref.availableFor(cluster.Resources{}, false); got != want {
			t.Fatalf("step %d: vector availability %v, reference %v", step, got, want)
		}
		for _, own := range holders {
			if !own.Fits(vec.Reserved) {
				cov.ownAboveReserved++
			}
			if got, want := vec.AvailableFor(own), vref.availableFor(own, true); got != want {
				t.Fatalf("step %d: vector availability with own %v: %v, reference %v", step, own, got, want)
			}
		}
		if got, want := ctr.AvailableFor(cluster.Resources{}), slots(sref.availableFor(false)); got != want {
			t.Fatalf("step %d: container availability %v, reference %v", step, got, want)
		}
		if sHolder > 0 {
			if got, want := ctr.AvailableFor(slotUnit), slots(sref.availableFor(true)); got != want {
				t.Fatalf("step %d: container availability with own: %v, reference %v", step, got, want)
			}
		}
		if g, w := vec.Meter.KWh(), vref.meter.KWh(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("step %d: vector meter %v kWh, reference %v kWh", step, g, w)
		}
		if g, w := ctr.Meter.KWh(), sref.meter.KWh(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("step %d: container meter %v kWh, reference %v kWh", step, g, w)
		}
	}
}

func ledgerSeeds() [][]byte {
	rng := rand.New(rand.NewSource(27))
	seeds := make([][]byte, 12)
	for i := range seeds {
		seeds[i] = make([]byte, 600)
		rng.Read(seeds[i])
	}
	return seeds
}

func FuzzLedger(f *testing.F) {
	for _, s := range ledgerSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { requireSameBooks(t, data, new(ledgerCoverage)) })
}

// The seed streams cover what the contract names; fuzzing only widens it.
func TestLedgerSeedsReachEveryRule(t *testing.T) {
	var sum ledgerCoverage
	for _, seed := range ledgerSeeds() {
		requireSameBooks(t, seed, &sum)
	}
	if sum.allocPanics < 10 || sum.releasePanics < 10 || sum.clampedUnreserves < 10 ||
		sum.ownAboveReserved < 10 || sum.settles < 100 {
		t.Errorf("seed streams are too tame: %+v", sum)
	}
}
