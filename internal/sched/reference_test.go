package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// This file keeps the victim scan as it stood while node.running was a
// map: walk the map, sort the survivors by task ID, and fork into a
// cost-aware branch (a TaskID->task map, a []core.Candidate,
// core.SelectVictims, a second CheckpointOverhead per victim) and a
// baseline branch (sort.SliceStable by priority, covering prefix). It is
// the executable definition of what chooseVictims must return.

func referencePreemptableOn(s *Simulator, n *node, t *taskRT) []*taskRT {
	running := make(map[cluster.TaskID]*taskRT, len(n.running))
	for _, v := range n.running {
		running[v.spec.ID] = v
	}
	var out []*taskRT
	for _, v := range running {
		if v.phase == phaseRunning && !v.preCopying && s.canPreempt(t, v) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].spec.ID, out[j].spec.ID
		if a.Job != b.Job {
			return a.Job < b.Job
		}
		return a.Index < b.Index
	})
	return out
}

func referenceSelectOn(s *Simulator, n *node, cands []*taskRT, need cluster.Resources, now sim.Time, adaptive bool) ([]*taskRT, time.Duration, bool) {
	if adaptive {
		byID := make(map[cluster.TaskID]*taskRT, len(cands))
		coreCands := make([]core.Candidate, len(cands))
		for i, v := range cands {
			byID[v.spec.ID] = v
			coreCands[i] = s.candidateFor(v, now)
		}
		sel, ok := core.SelectVictims(coreCands, need, now, func(core.Candidate) *storage.Device { return n.Device })
		if !ok {
			return nil, 0, false
		}
		var cost time.Duration
		set := make([]*taskRT, len(sel))
		for i, c := range sel {
			set[i] = byID[c.Task]
			cost += core.CheckpointOverhead(c, n.Device, now)
		}
		return set, cost, true
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].spec.Priority < cands[j].spec.Priority
	})
	var (
		freed cluster.Resources
		set   []*taskRT
	)
	for _, v := range cands {
		if need.Fits(freed) {
			break
		}
		set = append(set, v)
		freed = freed.Add(v.spec.Demand)
	}
	if !need.Fits(freed) {
		return nil, 0, false
	}
	return set, 0, true
}

func referenceChooseVictims(s *Simulator, t *taskRT, now sim.Time) (*node, []*taskRT, time.Duration) {
	adaptive := s.cfg.Policy == core.PolicyAdaptive && !s.cfg.NaiveVictimSelection
	var (
		bestNode *node
		bestSet  []*taskRT
		bestCost time.Duration
	)
	var belowMask uint16
	maskable := s.cfg.Discipline != DisciplineFairShare && s.cfg.Discipline != DisciplineCapacity
	if maskable {
		belowMask = 1<<uint(t.spec.Priority) - 1
	}
	for _, n := range s.nodes {
		if n.down {
			continue
		}
		if maskable && n.prioMask&belowMask == 0 {
			continue
		}
		cands := referencePreemptableOn(s, n, t)
		if len(cands) == 0 {
			continue
		}
		need := t.spec.Demand.Sub(n.availableFor(t))
		if need.CPUMillis < 0 {
			need.CPUMillis = 0
		}
		if need.MemBytes < 0 {
			need.MemBytes = 0
		}
		set, cost, ok := referenceSelectOn(s, n, cands, need, now, adaptive)
		if !ok {
			continue
		}
		if !adaptive {
			return n, set, 0
		}
		if bestNode == nil || cost < bestCost {
			bestNode, bestSet, bestCost = n, set, cost
		}
	}
	return bestNode, bestSet, bestCost
}

// referenceQueue is the pending queue as it stood before it became one FIFO
// per priority: a binary min-heap on (priority desc, queue entry asc, seq),
// where seq numbers the enqueue calls. A pass popped its batch off it and
// pushed back, under their old seq, the waiters it could not place. It is
// the executable definition of the order pendingQueue must present.
type referenceEntry struct {
	t   *taskRT
	seq uint64
}

type referenceQueue struct {
	heap []referenceEntry
	seq  uint64
}

func referenceBefore(a, b referenceEntry) bool {
	if a.t.spec.Priority != b.t.spec.Priority {
		return a.t.spec.Priority > b.t.spec.Priority
	}
	if a.t.queuedAt != b.t.queuedAt {
		return a.t.queuedAt < b.t.queuedAt
	}
	return a.seq < b.seq
}

// enqueue is Simulator.enqueue's half of the old contract: a fresh seq.
func (q *referenceQueue) enqueue(t *taskRT) {
	q.push(referenceEntry{t, q.seq})
	q.seq++
}

func (q *referenceQueue) push(e referenceEntry) {
	h := q.heap
	i := len(h)
	h = append(h, e)
	for i > 0 {
		parent := (i - 1) / 2
		if !referenceBefore(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	q.heap = h
}

func (q *referenceQueue) pop() referenceEntry {
	h := q.heap
	e := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.heap = h
	if n > 0 {
		i := 0
		for {
			kid := 2*i + 1
			if kid >= n {
				break
			}
			if r := kid + 1; r < n && referenceBefore(h[r], h[kid]) {
				kid = r
			}
			if !referenceBefore(h[kid], last) {
				break
			}
			h[i] = h[kid]
			i = kid
		}
		h[i] = last
	}
	return e
}

// randomBook fills a fresh simulator's node books the way a run in
// progress would have: tasks placed in arbitrary ID order, in every
// resource-holding phase, with checkpoint queues of different depths, a
// down node and a standing reservation. It returns the simulator, the
// instant the books describe, and waiting tasks to choose victims for.
func randomBook(rng *rand.Rand, cfg Config) (*Simulator, sim.Time, []*taskRT) {
	s, err := newSimulator(cfg.withDefaults())
	if err != nil {
		panic(err)
	}
	now := sim.Time(time.Hour)
	users := []string{"ada", "bob", "cy", ""}
	demands := []cluster.Resources{
		{CPUMillis: 500, MemBytes: cluster.GiB(2)},
		{CPUMillis: 1000, MemBytes: cluster.GiB(4)},
		{CPUMillis: 2000, MemBytes: cluster.GiB(8)},
	}
	newTask := func(id cluster.TaskID) *taskRT {
		d := demands[rng.Intn(len(demands))]
		spec := &cluster.TaskSpec{
			ID:       id,
			Priority: cluster.Priority(rng.Intn(int(cluster.MaxPriority) + 1)),
			User:     users[rng.Intn(len(users))],
			Demand:   d,
			Duration: time.Duration(1+rng.Intn(30)) * time.Minute,
			// A few distinct footprints, so equal checkpoint costs — and
			// with them the task-ID tie-break — occur on most nodes.
			MemFootprint: d.MemBytes / int64(1+rng.Intn(3)),
		}
		return &taskRT{spec: spec, remaining: spec.Duration}
	}
	idPool := rng.Perm(40 * cfg.Nodes)
	for _, n := range s.nodes {
		n.Device.ReserveWrite(now, cluster.GiB(float64(rng.Intn(3))))
		for k := rng.Intn(20); k > 0 && len(idPool) > 0; k-- {
			id := idPool[0]
			idPool = idPool[1:]
			t := newTask(cluster.TaskID{Job: cluster.JobID(id / 7), Index: int32(id % 7)})
			if !t.spec.Demand.Fits(n.Cap.Sub(n.Used)) {
				continue
			}
			s.seat(t, n, now)
			t.evictions = rng.Intn(3)
			t.hasCheckpoint = rng.Intn(3) == 0
			switch rng.Intn(8) {
			case 0:
				t.phase = phaseCheckpointing
			case 1:
				t.phase = phaseRestoring
			default:
				t.phase = phaseRunning
				t.attemptStart = now - sim.Time(rng.Int63n(int64(t.spec.Duration)))
				t.preCopying = rng.Intn(10) == 0
				s.markRunning(t)
			}
		}
	}
	if cfg.Nodes > 1 {
		down := s.nodes[rng.Intn(cfg.Nodes)]
		down.down = true
		down.touch()
	}
	waiters := make([]*taskRT, 12)
	for i := range waiters {
		waiters[i] = newTask(cluster.TaskID{Job: cluster.JobID(10_000 + i)})
		waiters[i].phase = phaseQueued
	}
	s.reserve(waiters[0], s.nodes[0])
	return s, now, waiters
}

func nodeName(n *node) string {
	if n == nil {
		return "no node"
	}
	return fmt.Sprintf("node %d", n.id)
}

func ids(ts []*taskRT) string {
	out := make([]cluster.TaskID, len(ts))
	for i, t := range ts {
		out[i] = t.spec.ID
	}
	return fmt.Sprint(out)
}

// GIVEN node books in any state a run can reach, under the adaptive,
// naive-victim and basic policies and the priority, fair-share and
// capacity disciplines,
// WHEN chooseVictims picks a node and victims for a waiting task,
// THEN node, victims in eviction order and summed cost equal the
// map-based reference's, and the provenance rescan scoreCandidates makes
// under a Recorder neither changes the returned victims nor disagrees
// with them about who was chosen.
func TestChooseVictimsMatchesReference(t *testing.T) {
	type variant struct {
		name       string
		policy     core.Policy
		discipline Discipline
		naive      bool
	}
	variants := []variant{
		{"adaptive", core.PolicyAdaptive, DisciplinePriority, false},
		{"naive-victim", core.PolicyAdaptive, DisciplinePriority, true},
		{"basic", core.PolicyCheckpoint, DisciplinePriority, false},
		{"kill", core.PolicyKill, DisciplinePriority, false},
		{"adaptive/fair-share", core.PolicyAdaptive, DisciplineFairShare, false},
		{"basic/fair-share", core.PolicyCheckpoint, DisciplineFairShare, false},
		{"adaptive/capacity", core.PolicyAdaptive, DisciplineCapacity, false},
		{"basic/capacity", core.PolicyCheckpoint, DisciplineCapacity, false},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(16))
			chosen, multi := 0, 0
			for round := 0; round < 60; round++ {
				cfg := DefaultConfig(v.policy, storage.SSD)
				cfg.Nodes = 1 + rng.Intn(12)
				cfg.Discipline = v.discipline
				cfg.NaiveVictimSelection = v.naive
				cfg.DisableIncremental = rng.Intn(4) == 0
				cfg.MaxEvictionsPerTask = rng.Intn(2) * 2
				s, now, waiters := randomBook(rng, cfg)
				for _, w := range waiters {
					wantNode, wantSet, wantCost := referenceChooseVictims(s, w, now)
					gotNode, gotSet := s.chooseVictims(w, now)
					if gotNode != wantNode || ids(gotSet) != ids(wantSet) {
						t.Fatalf("round %d waiter %v: chose %v on %s, reference %v on %s",
							round, w.spec.ID, ids(gotSet), nodeName(gotNode), ids(wantSet), nodeName(wantNode))
					}
					if gotNode == nil {
						continue
					}
					chosen++
					if len(gotSet) > 1 {
						multi++
					}
					var gotCost time.Duration
					if wantCost != 0 {
						for _, x := range gotSet {
							gotCost += core.CheckpointOverhead(s.candidateFor(x, now), gotNode.Device, now)
						}
					}
					if gotCost != wantCost {
						t.Fatalf("round %d waiter %v: cost %v, reference %v", round, w.spec.ID, gotCost, wantCost)
					}
					before := ids(gotSet)
					scores := s.scoreCandidates(gotNode, w, gotSet, now)
					if after := ids(gotSet); after != before {
						t.Fatalf("round %d waiter %v: scoreCandidates rewrote the victim set %v into %v", round, w.spec.ID, before, after)
					}
					flagged := 0
					for _, sc := range scores {
						if sc.Chosen {
							flagged++
						}
					}
					if flagged != len(gotSet) {
						t.Fatalf("round %d waiter %v: %d candidates flagged chosen, %d victims", round, w.spec.ID, flagged, len(gotSet))
					}
				}
			}
			if chosen == 0 || multi == 0 {
				t.Fatalf("books too tame: %d choices, %d with more than one victim", chosen, multi)
			}
		})
	}
}

// moveTask takes t off its node and seats it on to, the way a fence or a
// vacate followed by a placement would, keeping the running tallies.
func moveTask(s *Simulator, t *taskRT, to *node, now sim.Time) {
	running := t.phase == phaseRunning
	if running {
		s.unmarkRunning(t)
	}
	from := t.node
	from.Release(now, t.spec.Demand)
	from.touch()
	s.account(t, -1)
	from.removeRunning(t)
	s.seat(t, to, now)
	if running {
		s.markRunning(t)
	}
}

// GIVEN randomBook's books re-seated on a random mix of SSD and HDD nodes,
// under the adaptive policy,
// WHEN the books move between victim scans — the clock advances, checkpoint
// queues deepen, tasks are placed again on nodes with another device, image
// chains appear and vanish, incremental dumps are switched off and on —
// THEN after every step every task's victimCost on its node equals
// core.CheckpointOverhead of its candidate on that node's device, and
// chooseVictims chooses what the reference scan, which prices every
// candidate from scratch, chooses.
func TestVictimCostIsCheckpointOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var priced, chained, chosen int
	for round := 0; round < 40; round++ {
		cfg := DefaultConfig(core.PolicyAdaptive, storage.SSD)
		cfg.Nodes = 2 + rng.Intn(10)
		s, now, waiters := randomBook(rng, cfg)
		for _, n := range s.nodes {
			if rng.Intn(2) == 0 {
				hdd, err := storage.NewNodeDevice(storage.HDD, 0)
				if err != nil {
					t.Fatal(err)
				}
				hdd.ReserveWrite(now, cluster.GiB(float64(rng.Intn(3))))
				n.Device = hdd
			}
			for _, v := range append([]*taskRT(nil), n.running...) {
				moveTask(s, v, n, now)
			}
		}
		for step := 0; step < 10; step++ {
			for _, n := range s.nodes {
				q := n.Device.QueueDelay(now)
				for _, v := range n.running {
					want := core.CheckpointOverhead(s.candidateFor(v, now), n.Device, now)
					if got := s.victimCost(v, q, now); got != want {
						t.Fatalf("round %d step %d: task %v on %s node %d (chain %v, incremental off %v) costs %v, CheckpointOverhead %v",
							round, step, v.spec.ID, n.Device.Label(), n.id, v.hasCheckpoint, s.cfg.DisableIncremental, got, want)
					}
					priced++
					if v.hasCheckpoint && !s.cfg.DisableIncremental {
						chained++
					}
				}
			}
			for _, w := range waiters {
				wantNode, wantSet, _ := referenceChooseVictims(s, w, now)
				gotNode, gotSet := s.chooseVictims(w, now)
				if gotNode != wantNode || ids(gotSet) != ids(wantSet) {
					t.Fatalf("round %d step %d waiter %v: chose %v on %s, reference %v on %s",
						round, step, w.spec.ID, ids(gotSet), nodeName(gotNode), ids(wantSet), nodeName(wantNode))
				}
				if gotNode != nil {
					chosen++
				}
			}

			now += sim.Time(rng.Int63n(int64(10 * time.Minute)))
			for _, n := range s.nodes {
				if rng.Intn(3) == 0 {
					n.Device.ReserveWrite(now, cluster.GiB(float64(1+rng.Intn(4))))
				}
			}
			for _, n := range s.nodes {
				for _, v := range append([]*taskRT(nil), n.running...) {
					if rng.Intn(6) == 0 {
						v.hasCheckpoint = !v.hasCheckpoint
					}
					to := s.nodes[rng.Intn(len(s.nodes))]
					if rng.Intn(4) == 0 && to != n && !to.down && to.Device.Kind() != n.Device.Kind() && v.spec.Demand.Fits(to.Cap.Sub(to.Used)) {
						moveTask(s, v, to, now)
					}
				}
			}
			if rng.Intn(4) == 0 {
				s.cfg.DisableIncremental = !s.cfg.DisableIncremental
			}
		}
	}
	if priced == 0 || chained == 0 || chained == priced || chosen == 0 {
		t.Fatalf("books too tame: %d tasks priced, %d with a chain, %d victim choices", priced, chained, chosen)
	}
}

// GIVEN an adaptive simulator whose scratch buffers have seen the books
// once,
// WHEN chooseVictims scans every node again,
// THEN it allocates nothing.
func TestChooseVictimsAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultConfig(core.PolicyAdaptive, storage.SSD)
	cfg.Nodes = 32
	s, now, waiters := randomBook(rng, cfg)
	found := 0
	for _, w := range waiters {
		if n, _ := s.chooseVictims(w, now); n != nil {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no waiter had victims; the scan under test never ran to a choice")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		for _, w := range waiters {
			s.chooseVictims(w, now)
		}
	}); allocs != 0 {
		t.Errorf("steady-state chooseVictims allocated %v times per run, want 0", allocs)
	}
}

// GIVEN a node's running set,
// WHEN tasks are added and removed in any order, absent removals included,
// THEN the set is exactly the ID-sorted list of the tasks present.
func TestRunningSetStaysIDSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := make([]*taskRT, 64)
	for i, id := range rng.Perm(len(pool)) {
		pool[i] = &taskRT{spec: &cluster.TaskSpec{ID: cluster.TaskID{Job: cluster.JobID(id / 5), Index: int32(id % 5)}}}
	}
	n := &node{}
	present := map[*taskRT]bool{}
	for step := 0; step < 5000; step++ {
		x := pool[rng.Intn(len(pool))]
		if present[x] || rng.Intn(8) == 0 {
			n.removeRunning(x)
			delete(present, x)
		} else {
			n.addRunning(x)
			present[x] = true
		}
		want := make([]*taskRT, 0, len(present))
		for p := range present {
			want = append(want, p)
		}
		sort.Slice(want, func(i, j int) bool { return taskIDLess(want[i].spec.ID, want[j].spec.ID) })
		if ids(n.running) != ids(want) {
			t.Fatalf("step %d: running set %v, want %v", step, ids(n.running), ids(want))
		}
	}
}
