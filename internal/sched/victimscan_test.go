package sched

import (
	"math/rand"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// scanCoverage counts what a stream made the books and the scan do.
type scanCoverage struct {
	choiceCoverage
	seats, leaves, stops, starts, preCopies, chains, toggles int
}

// requireSameScan applies one decoded stream to a small cluster's books
// and, after every event, holds them to checkBooks; every choice event
// holds chooseVictims to the map-based reference. Four header bytes:
//
//	b0  policy: adaptive, adaptive with naive victims, basic (mod 3)
//	b1  discipline: priority, fair share, capacity (mod 3)
//	b2  1 + b2%4 nodes, odd ones on HDD when b2&4, eviction cap (b2>>3)%3,
//	    incremental dumps off when b2&32
//	b3  residents take priorities below 1 + b3%12 (few: crowded levels)
//
// then per event, first byte mod 12:
//
//	0     the clock advances; a node's checkpoint queue deepens, or the node
//	      goes down or comes back
//	1..3  a new task is seated, if it fits: running, checkpointing or
//	      restoring, with or without an image chain
//	4     a resident leaves — its chain given or taken first, as vacate and
//	      finishTask do
//	5     a resident stops running (it is being dumped or restored) or
//	      starts running
//	6     a running resident starts or stops a pre-copy
//	7     a resident gets or loses its chain and is seated again, on its node
//	      or another
//	8     incremental dumps are switched off or on and every resident
//	      re-seated
//	9..11 a waiter — maybe holding a reservation — chooses victims
func requireSameScan(t *testing.T, data []byte, cov *scanCoverage) {
	in := &queueStream{data}
	b0 := in.next() % 3
	cfg := DefaultConfig([]core.Policy{core.PolicyAdaptive, core.PolicyAdaptive, core.PolicyCheckpoint}[b0], storage.SSD)
	cfg.NaiveVictimSelection = b0 == 1
	cfg.Discipline = []Discipline{DisciplinePriority, DisciplineFairShare, DisciplineCapacity}[in.next()%3]
	b2 := in.next()
	cfg.Nodes = 1 + int(b2%4)
	cfg.MaxEvictionsPerTask = int(b2>>3) % 3
	cfg.DisableIncremental = b2&32 != 0
	cfg.NodeCapacity = cluster.Resources{CPUMillis: cluster.Cores(8), MemBytes: cluster.GiB(32)}
	spread := 1 + int(in.next()%12)
	s, err := newSimulator(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range s.nodes {
		if b2&4 != 0 && i%2 == 1 {
			if n.Device, err = storage.NewNodeDevice(storage.HDD, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	now := sim.Time(time.Hour)
	// Every event makes at most one task, so the stream's length bounds
	// made: the k-th task made is recs[2k-2] if seated, recs[2k-1] if a
	// waiter.
	ids := make([]cluster.TaskID, 0, 2*len(in.b))
	for made := 1; made <= len(in.b); made++ {
		ids = append(ids, cluster.TaskID{Job: cluster.JobID(made % 5), Index: int32(made)}, cluster.TaskID{Job: cluster.JobID(100_000 + made)})
	}
	recs := rankedSlab(ids)
	var seated []*taskRT
	pick := func() *taskRT { return seated[int(in.next())%len(seated)] }
	pickNode := func() *node { return s.nodes[int(in.next())%len(s.nodes)] }
	start := func(v *taskRT, b byte) {
		v.phase = phaseRunning
		v.attemptStart = now - sim.Time(int64(v.spec.Duration)*int64(b)/256)
		s.markRunning(v)
	}
	made := 0
	for len(in.b) > 0 {
		switch op := in.next() % 12; {
		case op == 0:
			c, n := in.next(), pickNode()
			now += sim.Time(c&63) * sim.Time(10*time.Second)
			if c&64 != 0 {
				n.Device.ReserveWrite(now, cluster.GiB(1))
			}
			if c&128 != 0 {
				n.down = !n.down
				n.touch()
			}
		case op <= 3:
			prio := cluster.Priority(int(in.next()) % spread)
			d := bookDemands[in.next()%3]
			user := bookUsers[in.next()%4]
			minutes, div, chain, phase := 1+int(in.next()%30), 1+int(in.next()%3), in.next(), in.next()
			n := pickNode()
			made++
			v := bookTask(s, &recs[2*made-2], prio, user, d, minutes, div)
			if !d.Fits(n.Cap.Sub(n.Used)) {
				continue
			}
			v.hasCheckpoint = chain&1 != 0
			v.evictions = int32(chain>>1) % 3
			s.seat(v, n, now)
			switch phase % 8 {
			case 0:
				v.phase = phaseCheckpointing
			case 1:
				v.phase = phaseRestoring
			default:
				start(v, phase)
			}
			seated = append(seated, v)
			cov.seats++
		case op == 8:
			s.cfg.DisableIncremental = !s.cfg.DisableIncremental
			reseatAll(s, now)
			cov.toggles++
		case op >= 9:
			prio := cluster.Priority(in.next() % 12)
			d := bookDemands[in.next()%3]
			user := bookUsers[in.next()%4]
			made++
			w := bookTask(s, &recs[2*made-1], prio, user, d, 10, 1)
			w.phase = phaseQueued
			if r := in.next(); r&1 != 0 {
				s.reserve(w, s.nodes[int(r>>1)%len(s.nodes)])
			}
			requireSameChoice(t, s, w, now, &cov.choiceCoverage)
			s.unreserve(w)
		case len(seated) == 0:
			continue
		case op == 4:
			i := int(in.next()) % len(seated)
			v := seated[i]
			if v.phase == phaseRunning {
				s.unmarkRunning(v)
			}
			if in.next()&1 != 0 {
				v.hasCheckpoint = !v.hasCheckpoint
			}
			s.unseat(v, now)
			v.phase, v.preCopying = phaseDone, false
			seated = append(seated[:i], seated[i+1:]...)
			cov.leaves++
		case op == 5:
			v, b := pick(), in.next()
			if v.phase != phaseRunning {
				start(v, b)
				cov.starts++
				continue
			}
			s.unmarkRunning(v)
			v.phase, v.preCopying = phaseCheckpointing, false
			if b&1 != 0 {
				v.phase = phaseRestoring
			}
			cov.stops++
		case op == 6:
			if v := pick(); v.phase == phaseRunning {
				v.preCopying = !v.preCopying
				cov.preCopies++
			}
		default: // op == 7
			v, to := pick(), pickNode()
			v.hasCheckpoint = !v.hasCheckpoint
			if to != v.node && !v.spec.Demand.Fits(to.Cap.Sub(to.Used)) {
				to = v.node
			}
			moveTask(s, v, to, now)
			cov.chains++
		}
		checkBooks(t, s)
	}
}

func victimScanSeeds() [][]byte {
	seeds := [][]byte{
		// Adaptive, priority discipline, one SSD node: three residents at
		// priority 0 — the middle one chained and restored long ago, so its
		// dump is small — then a waiter of priority 5 needing one 8 GiB slot.
		{0, 0, 0, 0,
			1, 0, 2, 0, 29, 0, 0, 202, 0,
			1, 0, 2, 0, 29, 0, 1, 2, 0,
			1, 0, 2, 0, 29, 0, 0, 202, 0,
			1, 0, 2, 0, 29, 0, 0, 2, 0,
			9, 5, 2, 0, 0},
		// One resident on a node with room to spare, and a waiter the node
		// covers already: no victims, but the node has an eligible
		// resident, so it is chosen.
		{0, 0, 0, 0,
			1, 0, 0, 0, 29, 0, 0, 202, 0,
			9, 5, 0, 3, 0},
		// Fair share, two HDD/SSD nodes, anonymous residents crowded into
		// one level, a waiter of the lowest priority.
		{0, 1, 5, 0,
			1, 0, 1, 3, 10, 0, 1, 100, 0, 2, 0, 1, 3, 10, 0, 0, 100, 1,
			1, 0, 2, 3, 10, 0, 1, 100, 1, 3, 0, 0, 3, 10, 0, 0, 100, 0,
			9, 0, 2, 1, 0, 9, 0, 2, 0, 0},
	}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 12; i++ {
		s := make([]byte, 1500)
		rng.Read(s)
		// Mostly cost-aware and few levels, where the walk has most to get
		// wrong.
		s[0], s[3] = byte(i%4), byte(i%4)
		seeds = append(seeds, s)
	}
	return seeds
}

// GIVEN a small cluster's books under any policy and discipline,
// WHEN one stream of book events — tasks seated and leaving, starting and
// stopping, pre-copies, chains given and taken, incremental dumps switched,
// nodes going down, queues deepening, the clock moving — is applied, and
// waiters choose victims between the events,
// THEN after every event the books hold (checkBooks), and every choice
// equals the map-based reference's: node, victims in eviction order and
// summed cost.
func FuzzVictimScan(f *testing.F) {
	for _, s := range victimScanSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { requireSameScan(t, data, new(scanCoverage)) })
}

// The seed streams cover what the contract names; fuzzing only widens it.
func TestVictimScanSeedsReachEveryEvent(t *testing.T) {
	var sum scanCoverage
	for _, seed := range victimScanSeeds() {
		requireSameScan(t, seed, &sum)
	}
	if sum.seats < 200 || sum.leaves < 100 || sum.stops < 100 || sum.starts < 50 || sum.preCopies < 50 ||
		sum.chains < 100 || sum.toggles < 100 || sum.chosen < 200 || sum.multi < 20 || sum.empty < 50 || sum.ranked < 20 {
		t.Errorf("seed streams are too tame: %+v", sum)
	}
}

// BenchmarkChooseVictims times one victim scan over 100 nodes of about 16
// residents each, spread over every priority, under cost-aware eviction
// (which scores every node) and the basic policy (which takes the first
// feasible one).
func BenchmarkChooseVictims(b *testing.B) {
	for _, bc := range []struct {
		name   string
		policy core.Policy
	}{{"adaptive", core.PolicyAdaptive}, {"basic", core.PolicyCheckpoint}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig(bc.policy, storage.SSD)
			cfg.Nodes = 100
			cfg.NodeCapacity = cluster.Resources{CPUMillis: cluster.Cores(64), MemBytes: cluster.GiB(256)}
			s, now, waiters := randomBook(rand.New(rand.NewSource(1)), cfg, bookShape{perNode: 33, levels: int(cluster.MaxPriority) + 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.chooseVictims(waiters[i%len(waiters)], now)
			}
		})
	}
}
