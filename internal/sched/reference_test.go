package sched

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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
	for _, v := range residents(n) {
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

// bookUsers and bookDemands are what randomBook's and FuzzVictimScan's
// tasks draw from; "" is an anonymous job, its own tenant.
var (
	bookUsers   = []string{"ada", "bob", "cy", ""}
	bookDemands = []cluster.Resources{
		{CPUMillis: 500, MemBytes: cluster.GiB(2)},
		{CPUMillis: 1000, MemBytes: cluster.GiB(4)},
		{CPUMillis: 2000, MemBytes: cluster.GiB(8)},
	}
)

// rankedSlab is a harness's task records made up front, one per id, each
// with a spec that holds only its ID, and ranked as load ranks a run's slab
// (rankByTaskID). A harness fills a record in with bookTask before it seats
// it, so that the record carries the eviction key a run would give it.
func rankedSlab(ids []cluster.TaskID) []taskRT {
	slab := make([]taskRT, len(ids))
	for i, id := range ids {
		slab[i].spec = &cluster.TaskSpec{ID: id}
	}
	rankByTaskID(slab)
	return slab
}

// bookTask fills in rec, a record of rankedSlab, as a task of its own job on
// s, as the scheduler holds one.
func bookTask(s *Simulator, rec *taskRT, prio cluster.Priority, user string, d cluster.Resources, minutes int, footprintDiv int) *taskRT {
	spec := rec.spec
	spec.Priority = prio
	spec.User = user
	spec.Demand = d
	spec.Duration = time.Duration(minutes) * time.Minute
	spec.MemFootprint = d.MemBytes / int64(footprintDiv)
	rec.job = newJobRT(&cluster.JobSpec{ID: spec.ID.Job, User: user}, s)
	rec.remaining = spec.Duration
	return rec
}

// residents lists n's running set in its order.
func residents(n *node) []*taskRT {
	out := make([]*taskRT, len(n.running))
	for i, e := range n.running {
		out[i] = e.t
	}
	return out
}

// bookShape is what randomBook's callers vary.
type bookShape struct {
	// perNode bounds the residents tried per node: uniform in [0, perNode).
	perNode int
	// levels is how many distinct priorities the residents share. Few
	// levels crowd each one with chained and chainless residents alike.
	levels int
}

// everyLevel spreads about ten residents per node over all priorities.
var everyLevel = bookShape{perNode: 20, levels: int(cluster.MaxPriority) + 1}

// randomBook fills a fresh simulator's node books the way a run in
// progress would have: tasks placed in arbitrary ID order, in every
// resource-holding phase, a third of them with an image chain — known, as
// in a run, before they are seated — with checkpoint queues of different
// depths, a down node and a standing reservation. It returns the
// simulator, the instant the books describe, and waiting tasks to choose
// victims for; the last waiter is small and of top priority, so that some
// node usually covers it without evicting anyone.
func randomBook(rng *rand.Rand, cfg Config, shape bookShape) (*Simulator, sim.Time, []*taskRT) {
	s, err := newSimulator(cfg.withDefaults())
	if err != nil {
		panic(err)
	}
	now := sim.Time(time.Hour)
	newTask := func(rec *taskRT, prio cluster.Priority) *taskRT {
		// A few distinct footprints, so equal checkpoint costs — and with
		// them the task-ID tie-break — occur on most nodes.
		return bookTask(s, rec, prio, bookUsers[rng.Intn(len(bookUsers))], bookDemands[rng.Intn(len(bookDemands))], 1+rng.Intn(30), 1+rng.Intn(3))
	}
	levels := rng.Perm(int(cluster.MaxPriority) + 1)[:shape.levels]
	idPool := rng.Perm(2 * shape.perNode * cfg.Nodes)
	const numWaiters = 13
	ids := make([]cluster.TaskID, 0, len(idPool)+numWaiters)
	for _, id := range idPool {
		ids = append(ids, cluster.TaskID{Job: cluster.JobID(id / 7), Index: int32(id % 7)})
	}
	for i := 0; i < numWaiters; i++ {
		ids = append(ids, cluster.TaskID{Job: cluster.JobID(10_000 + i)})
	}
	recs := rankedSlab(ids)
	residentRecs, waiterRecs := recs[:len(idPool)], recs[len(idPool):]
	for _, n := range s.nodes {
		n.Device.ReserveWrite(now, cluster.GiB(float64(rng.Intn(3))))
		for k := rng.Intn(shape.perNode); k > 0 && len(residentRecs) > 0; k-- {
			rec := &residentRecs[0]
			residentRecs = residentRecs[1:]
			t := newTask(rec, cluster.Priority(levels[rng.Intn(len(levels))]))
			if !t.spec.Demand.Fits(n.Cap.Sub(n.Used)) {
				continue
			}
			t.hasCheckpoint = rng.Intn(3) == 0
			s.seat(t, n, now)
			t.evictions = int32(rng.Intn(3))
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
	waiters := make([]*taskRT, numWaiters-1)
	for i := range waiters {
		waiters[i] = newTask(&waiterRecs[i], cluster.Priority(rng.Intn(int(cluster.MaxPriority)+1)))
	}
	waiters = append(waiters, bookTask(s, &waiterRecs[numWaiters-1], cluster.MaxPriority, "", bookDemands[0], 10, 1))
	for _, w := range waiters {
		w.phase = phaseQueued
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

// taskIDLess is the deterministic task order: job, then index.
func taskIDLess(a, b cluster.TaskID) bool {
	if a.Job != b.Job {
		return a.Job < b.Job
	}
	return a.Index < b.Index
}

// evictsBefore is the eviction order of a node's running set, written out:
// priority ascending, then under cost-aware eviction the chainless
// checkpoint price ascending, then task ID.
func evictsBefore(a, b *taskRT, byCost bool) bool {
	if a.spec.Priority != b.spec.Priority {
		return a.spec.Priority < b.spec.Priority
	}
	if byCost && a.fixedCost != b.fixedCost {
		return a.fixedCost < b.fixedCost
	}
	return taskIDLess(a.spec.ID, b.spec.ID)
}

// evictionOrder and referenceAddRunning are the running set's insertion as
// it stood before its entries carried their key: a binary search that
// loads both records' priority, price and task ID at every comparison, and
// an insert ahead of every resident t ties with.
func evictionOrder(a, b *taskRT, byCost bool) int {
	if c := cmp.Compare(a.spec.Priority, b.spec.Priority); c != 0 {
		return c
	}
	if byCost {
		if c := cmp.Compare(a.fixedCost, b.fixedCost); c != 0 {
			return c
		}
	}
	return byTaskID(a, b)
}

func referenceAddRunning(run []*taskRT, t *taskRT, byCost bool) []*taskRT {
	i, _ := slices.BinarySearchFunc(run, t, func(r, t *taskRT) int { return evictionOrder(r, t, byCost) })
	return slices.Insert(run, i, t)
}

// checkBooks fails t unless every node's running set is in eviction order
// (residents with equal task IDs may stand in either order) and the books
// equal a recount from scratch: every resident's key is its priority and a
// rank that orders it against every other resident of the cluster as
// byTaskID does, equal IDs equal; the node's tallies — chained residents
// and running tasks per priority, the running-priority mask — match its
// residents; and every tenant's usage is the sum of its residents'
// demands, live exactly when that sum is non-zero, with liveTenants
// counting the live ones. A resident counts as chained when it has an image
// chain, incremental dumps are on and eviction is cost-aware.
func checkBooks(t testing.TB, s *Simulator) {
	t.Helper()
	var all []*taskRT
	usage := make(map[*tenant]cluster.Resources)
	for _, n := range s.nodes {
		var chained, running [int(cluster.MaxPriority) + 1]uint16
		var mask uint16
		for i, e := range n.running {
			v := e.t
			if v.node != n {
				t.Fatalf("node %d lists task %v, which is on %v", n.id, v.spec.ID, v.node)
			}
			if want := levelKey(v.spec.Priority) | uint64(v.rank); e.key != want {
				t.Fatalf("node %d: task %v has key %#x, want %#x", n.id, v.spec.ID, e.key, want)
			}
			if i > 0 && evictsBefore(v, n.running[i-1].t, s.costAware) {
				t.Fatalf("node %d: running set %v is not in eviction order at %d", n.id, ids(residents(n)), i)
			}
			all = append(all, v)
			usage[tenantOf(v)] = usage[tenantOf(v)].Add(v.spec.Demand)
			p := v.spec.Priority
			want := s.costAware && v.hasCheckpoint && !s.cfg.DisableIncremental
			if v.chained != want {
				t.Fatalf("node %d: task %v chained %v, want %v", n.id, v.spec.ID, v.chained, want)
			}
			if want {
				chained[p]++
			}
			if v.phase == phaseRunning {
				running[p]++
				mask |= 1 << uint(p)
			}
		}
		if chained != n.chained || running != n.byPrio || mask != n.prioMask {
			t.Fatalf("node %d: chained %v, running %v, mask %012b; a recount gives %v, %v, %012b",
				n.id, n.chained, n.byPrio, n.prioMask, chained, running, mask)
		}
	}
	slices.SortFunc(all, byTaskID)
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if (a.rank < b.rank) != (byTaskID(a, b) < 0) || (a.rank == b.rank) != (byTaskID(a, b) == 0) {
			t.Fatalf("task %v has rank %d and task %v rank %d", a.spec.ID, a.rank, b.spec.ID, b.rank)
		}
	}
	live := 0
	for name, tn := range s.tenants {
		if tn.name != name || tn.usage != usage[tn] || tn.live != !usage[tn].IsZero() {
			t.Fatalf("tenant %q: usage %v, live %v; its residents hold %v", name, tn.usage, tn.live, usage[tn])
		}
		if tn.live {
			live++
		}
	}
	if live != s.liveTenants {
		t.Fatalf("%d tenants live, a recount gives %d", s.liveTenants, live)
	}
}

// choiceCoverage counts what victim choices a test saw.
type choiceCoverage struct {
	// chosen choices found a node; multi took more than one victim, empty
	// none (the node covered the need already), and ranked took a victim
	// from a level holding a chained resident.
	chosen, multi, empty, ranked int
}

// requireSameChoice fails t unless chooseVictims picks for w the node, the
// victims in order and the summed cost the map-based reference does, and
// tallies the choice in seen.
func requireSameChoice(t testing.TB, s *Simulator, w *taskRT, now sim.Time, seen *choiceCoverage) (*node, []*taskRT) {
	t.Helper()
	wantNode, wantSet, wantCost := referenceChooseVictims(s, w, now)
	gotNode, gotSet := s.chooseVictims(w, now)
	if gotNode != wantNode || ids(gotSet) != ids(wantSet) {
		t.Fatalf("waiter %v at %v: chose %v on %s, reference %v on %s",
			w.spec.ID, now, ids(gotSet), nodeName(gotNode), ids(wantSet), nodeName(wantNode))
	}
	if gotNode == nil {
		return nil, nil
	}
	var gotCost time.Duration
	if s.costAware {
		for _, x := range gotSet {
			gotCost += core.CheckpointOverhead(s.candidateFor(x, now), gotNode.Device, now)
		}
	}
	if gotCost != wantCost {
		t.Fatalf("waiter %v at %v: cost %v, reference %v", w.spec.ID, now, gotCost, wantCost)
	}
	seen.chosen++
	switch {
	case len(gotSet) == 0:
		seen.empty++
	case len(gotSet) > 1:
		seen.multi++
	}
	for _, x := range gotSet {
		if gotNode.chained[x.spec.Priority] > 0 {
			seen.ranked++
			break
		}
	}
	return gotNode, gotSet
}

// crowded packs the residents of every node into three priorities.
var crowded = bookShape{perNode: 20, levels: 3}

// GIVEN node books in any state a run can reach — residents spread over
// every priority, or crowded into three levels that mix chained and
// chainless residents — under the adaptive, naive-victim and basic policies
// and the priority, fair-share and capacity disciplines,
// WHEN chooseVictims picks a node and victims for a waiting task, one of
// them a waiter some node covers without evicting anyone,
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
			var seen choiceCoverage
			for round := 0; round < 60; round++ {
				cfg := DefaultConfig(v.policy, storage.SSD)
				cfg.Nodes = 1 + rng.Intn(12)
				cfg.Discipline = v.discipline
				cfg.NaiveVictimSelection = v.naive
				cfg.DisableIncremental = rng.Intn(4) == 0
				cfg.MaxEvictionsPerTask = rng.Intn(2) * 2
				shape := everyLevel
				if round%2 == 1 {
					shape = crowded
				}
				s, now, waiters := randomBook(rng, cfg, shape)
				checkBooks(t, s)
				for _, w := range waiters {
					gotNode, gotSet := requireSameChoice(t, s, w, now, &seen)
					if gotNode == nil {
						continue
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
			costAware := v.policy == core.PolicyAdaptive && !v.naive
			if seen.chosen == 0 || seen.multi == 0 || seen.empty == 0 || costAware && seen.ranked == 0 {
				t.Fatalf("books too tame: %+v", seen)
			}
		})
	}
}

// moveTask takes t off its node and seats it on to, the way a fence or a
// vacate followed by a placement would, keeping the running tallies. A
// task's chain changes only while it is off a node, so a test that gives
// or takes one re-seats the task through here.
func moveTask(s *Simulator, t *taskRT, to *node, now sim.Time) {
	running := t.phase == phaseRunning
	if running {
		s.unmarkRunning(t)
	}
	s.unseat(t, now)
	s.seat(t, to, now)
	if running {
		s.markRunning(t)
	}
}

// reseatAll re-seats every resident where it is, as a run would have
// seated it under the current configuration.
func reseatAll(s *Simulator, now sim.Time) {
	for _, n := range s.nodes {
		for _, v := range residents(n) {
			moveTask(s, v, n, now)
		}
	}
}

// GIVEN randomBook's books — spread over every priority or crowded into
// three — re-seated on a random mix of SSD and HDD nodes, under the
// adaptive policy,
// WHEN the books move between victim scans — the clock advances, checkpoint
// queues deepen, tasks are placed again on nodes with another device, image
// chains appear and vanish, incremental dumps are switched off and on, each
// change re-seating the tasks it touches as a run would —
// THEN after every step every task's victimCost on its node equals
// core.CheckpointOverhead of its candidate on that node's device, the books
// hold (checkBooks), and chooseVictims chooses what the reference scan,
// which prices every candidate from scratch, chooses.
func TestVictimCostIsCheckpointOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var priced, chained int
	var seen choiceCoverage
	for round := 0; round < 40; round++ {
		cfg := DefaultConfig(core.PolicyAdaptive, storage.SSD)
		cfg.Nodes = 2 + rng.Intn(10)
		shape := everyLevel
		if round%2 == 1 {
			shape = crowded
		}
		s, now, waiters := randomBook(rng, cfg, shape)
		for _, n := range s.nodes {
			if rng.Intn(2) == 0 {
				hdd, err := storage.NewNodeDevice(storage.HDD, 0)
				if err != nil {
					t.Fatal(err)
				}
				hdd.ReserveWrite(now, cluster.GiB(float64(rng.Intn(3))))
				n.Device = hdd
			}
		}
		reseatAll(s, now)
		for step := 0; step < 10; step++ {
			checkBooks(t, s)
			for _, n := range s.nodes {
				q := n.Device.QueueDelay(now)
				for _, v := range residents(n) {
					want := core.CheckpointOverhead(s.candidateFor(v, now), n.Device, now)
					if got := s.victimCost(v, q, now); got != want {
						t.Fatalf("round %d step %d: task %v on %s node %d (chain %v, incremental off %v) costs %v, CheckpointOverhead %v",
							round, step, v.spec.ID, n.Device.Label(), n.id, v.hasCheckpoint, s.cfg.DisableIncremental, got, want)
					}
					priced++
					if v.chained {
						chained++
					}
				}
			}
			for _, w := range waiters {
				requireSameChoice(t, s, w, now, &seen)
			}

			now += sim.Time(rng.Int63n(int64(10 * time.Minute)))
			for _, n := range s.nodes {
				if rng.Intn(3) == 0 {
					n.Device.ReserveWrite(now, cluster.GiB(float64(1+rng.Intn(4))))
				}
			}
			for _, n := range s.nodes {
				for _, v := range residents(n) {
					flip := rng.Intn(6) == 0
					if flip {
						v.hasCheckpoint = !v.hasCheckpoint
					}
					to := s.nodes[rng.Intn(len(s.nodes))]
					if rng.Intn(4) != 0 || to == n || to.down || to.Device.Kind() == n.Device.Kind() || !v.spec.Demand.Fits(to.Cap.Sub(to.Used)) {
						to = n
					}
					if flip || to != n {
						moveTask(s, v, to, now)
					}
				}
			}
			if rng.Intn(4) == 0 {
				s.cfg.DisableIncremental = !s.cfg.DisableIncremental
				reseatAll(s, now)
			}
		}
	}
	if priced == 0 || chained == 0 || chained == priced || seen.chosen == 0 || seen.ranked == 0 {
		t.Fatalf("books too tame: %d tasks priced, %d chained, choices %+v", priced, chained, seen)
	}
}

// GIVEN an adaptive simulator whose scratch buffers have seen the books
// once, under the priority, fair-share and capacity disciplines, with
// anonymous jobs among the residents and the waiters,
// WHEN chooseVictims scans every node again,
// THEN it allocates nothing.
func TestChooseVictimsAllocatesNothing(t *testing.T) {
	for _, discipline := range []Discipline{DisciplinePriority, DisciplineFairShare, DisciplineCapacity} {
		t.Run(discipline.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			cfg := DefaultConfig(core.PolicyAdaptive, storage.SSD)
			cfg.Nodes = 32
			cfg.Discipline = discipline
			s, now, waiters := randomBook(rng, cfg, everyLevel)
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
		})
	}
}

// GIVEN a node's running set in either order — cost-aware or not — and
// tasks whose priorities, chainless prices and task IDs collide, ranked as
// load ranks a run's tasks,
// WHEN tasks are added and removed in any order, absent removals included,
// THEN the set is exactly the sequence the pointer-compare insertion
// (referenceAddRunning) builds from the same steps, ties included.
func TestRunningSetStaysInEvictionOrder(t *testing.T) {
	for _, byCost := range []bool{false, true} {
		rng := rand.New(rand.NewSource(5))
		pool := make([]cluster.TaskID, 64)
		for i := range pool {
			id := rng.Intn(48)
			pool[i] = cluster.TaskID{Job: cluster.JobID(id / 5), Index: int32(id % 5)}
		}
		slab := rankedSlab(pool)
		for i := range slab {
			slab[i].spec.Priority = cluster.Priority(rng.Intn(4))
			slab[i].fixedCost = time.Duration(rng.Intn(3)) * time.Second
		}
		n := &node{}
		var want []*taskRT
		for step := 0; step < 5000; step++ {
			x := &slab[rng.Intn(len(slab))]
			if i := slices.Index(want, x); i >= 0 || rng.Intn(8) == 0 {
				n.removeRunning(x)
				if i >= 0 {
					want = slices.Delete(want, i, i+1)
				}
			} else {
				n.addRunning(x, byCost)
				want = referenceAddRunning(want, x, byCost)
			}
			if !slices.Equal(residents(n), want) {
				t.Fatalf("by cost %v, step %d: running set %v, want %v", byCost, step, ids(residents(n)), ids(want))
			}
		}
	}
}
