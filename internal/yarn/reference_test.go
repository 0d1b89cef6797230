package yarn

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/faults"
	"preemptsched/internal/kmeans"
	"preemptsched/internal/obs"
	"preemptsched/internal/proc"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// This file keeps the RM's victim choice and the NM's fencing order as
// they stood while NodeManager.running was a map: walk the map, sort the
// IDs, look every task up again, collect every candidate, sort.SliceStable
// by (priority, cost under the adaptive policy, seq) and take the head. It
// is the executable definition of what chooseVictim must return and
// journal, and of the order crashNM and declareNodeDead must visit tasks in.
//
// It also keeps the RM's request queue as it stood before the per-priority
// FIFOs: a heap ordered by (priority descending, queuedAt, seq), popped one
// request at a time for at most scanLimit per pass, with every request the
// pass could not serve pushed back once the pass is over. It is the
// executable definition of the order pass must serve requests in.

// referenceRequest is a request under the heap's arrival stamp.
type referenceRequest struct {
	*request
	seq uint64
}

type requestQueue []referenceRequest

func (q requestQueue) Len() int { return len(q) }
func (q requestQueue) Less(i, j int) bool {
	if q[i].task.spec.Priority != q[j].task.spec.Priority {
		return q[i].task.spec.Priority > q[j].task.spec.Priority
	}
	if q[i].queuedAt != q[j].queuedAt {
		return q[i].queuedAt < q[j].queuedAt
	}
	return q[i].seq < q[j].seq
}
func (q requestQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *requestQueue) Push(x any)   { *q = append(*q, x.(referenceRequest)) }
func (q *requestQueue) Pop() any {
	old := *q
	n := len(old)
	r := old[n-1]
	old[n-1] = referenceRequest{}
	*q = old[:n-1]
	return r
}

// referenceRM serves rm's requests from the heap, placing and preempting
// through rm. A request an AM makes, mid-pass or not, lands in rm's FIFOs;
// adopt moves it into the heap before the next pop, which is when the heap
// used to receive it.
type referenceRM struct {
	rm    *ResourceManager
	queue requestQueue
	seq   uint64
}

func (r *referenceRM) adopt() {
	for p := range r.rm.waiting {
		for _, req := range r.rm.waiting[p] {
			heap.Push(&r.queue, referenceRequest{req, r.seq})
			r.seq++
		}
		r.rm.waiting[p] = r.rm.waiting[p][:0]
	}
}

func (r *referenceRM) pass(now sim.Time) {
	rm := r.rm
	scanned := 0
	var skipped []referenceRequest
	for len(r.queue) > 0 && scanned < scanLimit {
		req := heap.Pop(&r.queue).(referenceRequest)
		scanned++
		served := rm.place(req.request, now)
		if !served && req.reservedOn == nil && rm.c.cfg.Policy != core.PolicyWait && rm.preemptFor(req.request, now) {
			served = rm.place(req.request, now)
		}
		r.adopt()
		if !served {
			skipped = append(skipped, req)
		}
	}
	for _, req := range skipped {
		heap.Push(&r.queue, req)
	}
}

// order lists the heap's requests in the order it pops them.
func (r *referenceRM) order() []*request {
	q := slices.Clone(r.queue)
	sort.Sort(q)
	order := make([]*request, len(q))
	for i, req := range q {
		order[i] = req.request
	}
	return order
}

// waitingOrder lists rm's requests in the order its next pass examines
// them: priority descending, then arrival.
func waitingOrder(rm *ResourceManager) []*request {
	var order []*request
	for p := len(rm.waiting) - 1; p >= 0; p-- {
		order = append(order, rm.waiting[p]...)
	}
	return order
}

func referenceRunningMap(n *NodeManager) map[cluster.TaskID]*taskRun {
	running := make(map[cluster.TaskID]*taskRun, len(n.running))
	for _, t := range n.running {
		running[t.spec.ID] = t
	}
	return running
}

func referenceSortedRunning(running map[cluster.TaskID]*taskRun) []cluster.TaskID {
	ids := make([]cluster.TaskID, 0, len(running))
	for id := range running {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Job != ids[j].Job {
			return ids[i].Job < ids[j].Job
		}
		return ids[i].Index < ids[j].Index
	})
	return ids
}

func referenceChooseVictim(rm *ResourceManager, req *request, now sim.Time) (*taskRun, *NodeManager, bool) {
	type scored struct {
		t    *taskRun
		n    *NodeManager
		cost time.Duration
	}
	adaptive := rm.c.cfg.Policy == core.PolicyAdaptive
	var cands []scored
	prio := req.task.spec.Priority
	for _, n := range rm.c.nodes {
		if n.crashed || n.deadDeclared {
			continue
		}
		running := referenceRunningMap(n)
		for _, id := range referenceSortedRunning(running) {
			v := running[id]
			if v.state != stateRunning || v.preCopying || v.spec.Priority >= prio {
				continue
			}
			var cost time.Duration
			if adaptive {
				cost = core.CheckpointOverhead(v.candidate(now), n.Device, now)
			}
			cands = append(cands, scored{t: v, n: n, cost: cost})
		}
	}
	if len(cands) == 0 {
		return nil, nil, false
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].t.spec.Priority != cands[j].t.spec.Priority {
			return cands[i].t.spec.Priority < cands[j].t.spec.Priority
		}
		if adaptive && cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].t.seq < cands[j].t.seq
	})
	victim := cands[0]
	if rm.c.events.On() {
		scores := make([]obs.CandidateScore, len(cands))
		for i, sc := range cands {
			scores[i] = obs.CandidateScore{
				Task:     sc.t.spec.ID.String(),
				Priority: int(sc.t.spec.Priority),
				Cost:     sc.cost,
				Unsaved:  sc.t.unsavedProgress(now),
				Chosen:   i == 0,
			}
		}
		rm.c.events.Emit(obs.Event{Kind: obs.EvSelection, At: now, Task: req.task.spec.ID, Node: victim.n.id, Priority: req.task.spec.Priority,
			Candidates: scores})
	}
	return victim.t, victim.n, true
}

// testBooks is a framework instance whose node books a test fills by hand.
type testBooks struct {
	c  *Cluster
	am *AppMaster
}

func newTestBooks(t *testing.T, cfg Config) testBooks {
	t.Helper()
	c, err := newCluster(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.close)
	return testBooks{c: c, am: &AppMaster{c: c}}
}

// task builds a runtime record the way newAppMaster does, with a seq from
// the cluster's own counter.
func (b testBooks) task(id cluster.TaskID, prio cluster.Priority, footprint int64) *taskRun {
	return &taskRun{
		spec: &cluster.TaskSpec{
			ID:           id,
			Priority:     prio,
			Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
			MemFootprint: footprint,
			Duration:     10 * time.Minute,
		},
		am:         b.am,
		seq:        b.c.nextTaskSeq(),
		state:      statePending,
		totalSteps: b.c.programSteps(),
		imageNode:  -1,
	}
}

// run places t on n as a running container.
func (b testBooks) run(t *taskRun, n *NodeManager, since sim.Time) {
	n.allocSlot(since, t)
	t.node = n
	t.state = stateRunning
	t.attemptStart = since
}

func journalBytes(t *testing.T, r *obs.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// GIVEN node books filled at random — crashed and declared-dead nodes,
// checkpointing, restoring and pre-copying containers, a handful of
// priorities and footprints so that priorities and estimated costs tie,
// devices with work already queued, images with differing dirty sets —
// WHEN the RM chooses a victim for a request, with and without a flight
// recorder, under the adaptive, checkpoint and kill policies,
// THEN the one-scan argmin names the victim and the node the map-and-sort
// implementation named (or agrees there is none), and journals the
// byte-identical victim-selection record: same candidates, same order,
// same scores, same Chosen.
func TestChooseVictimMatchesReference(t *testing.T) {
	// A few live processes with different soft-dirty sets: a candidate with
	// an image prices its dump from the process's real dirty pages.
	var procs []*proc.Process
	for i := 0; i < 4; i++ {
		p, err := kmeans.NewProcess(fmt.Sprintf("dirty-%d", i), 600, 4, 3, 8, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		p.Memory().ClearSoftDirty()
		for pg := 0; pg < i*2; pg++ {
			if err := p.Memory().WriteU64(int64(pg)*proc.PageSize, 1); err != nil {
				t.Fatal(err)
			}
		}
		procs = append(procs, p)
	}
	footprints := []int64{cluster.GiB(1), cluster.GiB(2), cluster.GiB(5)}
	kinds := []storage.Kind{storage.HDD, storage.SSD, storage.NVM}
	states := []taskState{stateRunning, stateRunning, stateRunning, stateRunning, stateCheckpointing, stateRestoring}

	for _, policy := range []core.Policy{core.PolicyAdaptive, core.PolicyCheckpoint, core.PolicyKill} {
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(policy) + 18))
			var found, none int
			for trial := 0; trial < 300; trial++ {
				cfg := DefaultConfig(policy, kinds[rng.Intn(len(kinds))])
				cfg.Nodes = 1 + rng.Intn(6)
				cfg.ContainersPerNode = 1 + rng.Intn(8)
				b := newTestBooks(t, cfg)
				now := sim.Time(time.Duration(1+rng.Intn(600)) * time.Second)

				// IDs are dealt in shuffled order so insertion order, ID order
				// and seq order all differ.
				ids := rng.Perm(cfg.Nodes * cfg.ContainersPerNode)
				maxPrio := 1 + rng.Intn(4)
				for _, n := range b.c.nodes {
					switch rng.Intn(8) {
					case 0:
						n.crashed = true
					case 1:
						n.deadDeclared = true
					}
					if rng.Intn(3) == 0 {
						n.Device.ReserveWrite(now, footprints[rng.Intn(len(footprints))])
					}
					for s := rng.Intn(cfg.ContainersPerNode + 1); s > 0; s-- {
						id := ids[len(ids)-1]
						ids = ids[:len(ids)-1]
						v := b.task(cluster.TaskID{Job: cluster.JobID(id % 3), Index: int32(id)},
							cluster.Priority(rng.Intn(maxPrio)), footprints[rng.Intn(len(footprints))])
						b.run(v, n, now-sim.Time(time.Duration(rng.Intn(300))*time.Second))
						v.state = states[rng.Intn(len(states))]
						v.preCopying = v.state == stateRunning && rng.Intn(6) == 0
						if rng.Intn(3) == 0 {
							v.chain = []imageLink{{name: "/ckpt/" + v.spec.ID.String() + "/0"}}
							v.process = procs[rng.Intn(len(procs))]
						}
					}
				}
				claimant := b.task(cluster.TaskID{Job: 9, Index: int32(trial)}, cluster.Priority(rng.Intn(maxPrio+1)), cluster.GiB(1))
				req := &request{task: claimant, preferred: -1, queuedAt: now}

				// Recorder off: the verdict alone.
				b.c.events = obs.Emitter{}
				wantT, wantN, wantOK := referenceChooseVictim(b.c.rm, req, now)
				got, ok := b.c.rm.chooseVictim(req, now)
				if ok != wantOK || got.t != wantT || got.n != wantN {
					t.Fatalf("trial %d, recorder off: victim %v on %v (%v), reference %v on %v (%v)",
						trial, taskName(got.t), nodeName(got.n), ok, taskName(wantT), nodeName(wantN), wantOK)
				}
				if !ok {
					none++
				} else {
					found++
				}

				// Recorder on: the same verdict and the same record.
				refRec, newRec := obs.NewRecorder(1<<16, 4), obs.NewRecorder(1<<16, 4)
				b.c.events = obs.NewEmitter(refRec, "yarn")
				referenceChooseVictim(b.c.rm, req, now)
				b.c.events = obs.NewEmitter(newRec, "yarn")
				got, ok = b.c.rm.chooseVictim(req, now)
				if ok != wantOK || got.t != wantT || got.n != wantN {
					t.Fatalf("trial %d, recorder on: victim %v on %v (%v), reference %v on %v (%v)",
						trial, taskName(got.t), nodeName(got.n), ok, taskName(wantT), nodeName(wantN), wantOK)
				}
				if !ok && newRec.Seq() != 0 {
					t.Fatalf("trial %d: %d records journaled for a fruitless call", trial, newRec.Seq())
				}
				if !bytes.Equal(journalBytes(t, newRec), journalBytes(t, refRec)) {
					t.Fatalf("trial %d: victim-selection record differs from the reference's", trial)
				}
			}
			if found < 50 || none < 20 {
				t.Fatalf("corpus too thin: %d calls found a victim, %d found none", found, none)
			}
		})
	}
}

func taskName(t *taskRun) string {
	if t == nil {
		return "none"
	}
	return t.spec.ID.String()
}

func nodeName(n *NodeManager) string {
	if n == nil {
		return "none"
	}
	return obs.NodeName(n.id)
}

// GIVEN a node whose slots are granted and released in random order,
// including the release of a task that holds no slot there,
// WHEN the books are read after every step,
// THEN NodeManager.running is exactly the ID-sorted walk of the map the
// books used to be, and the ledger holds one container per grant
// outstanding.
func TestRunningStaysIDOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.SSD)
	cfg.Nodes = 1
	cfg.ContainersPerNode = 12
	b := newTestBooks(t, cfg)
	n := b.c.nodes[0]

	pool := make([]*taskRun, 40)
	for i := range pool {
		pool[i] = b.task(cluster.TaskID{Job: cluster.JobID(rng.Intn(4)), Index: int32(i)}, 0, cluster.GiB(1))
	}
	want := make(map[cluster.TaskID]*taskRun)
	for step := 0; step < 4000; step++ {
		v := pool[rng.Intn(len(pool))]
		_, held := want[v.spec.ID]
		switch {
		case !held && len(want) < cfg.ContainersPerNode && rng.Intn(2) == 0:
			n.allocSlot(sim.Time(step), v)
			want[v.spec.ID] = v
		case held:
			n.releaseSlot(sim.Time(step), v)
			delete(want, v.spec.ID)
		case !n.Used.IsZero() && rng.Intn(4) == 0:
			// The map's delete of an absent key was a no-op on the books;
			// the ledger moves regardless, as it always did. Put it back so
			// the run can continue.
			n.releaseSlot(sim.Time(step), v)
			n.Used = n.Used.Add(container)
		}
		got := make([]cluster.TaskID, 0, len(n.running))
		for _, r := range n.running {
			got = append(got, r.spec.ID)
			if want[r.spec.ID] != r {
				t.Fatalf("step %d: running holds %v, which the reference does not", step, r.spec.ID)
			}
		}
		if ids := referenceSortedRunning(want); !reflect.DeepEqual(got, ids) {
			t.Fatalf("step %d: running %v, want %v", step, got, ids)
		}
		if held := container.Scale(float64(len(want))); n.Used != held {
			t.Fatalf("step %d: ledger holds %v with %d grants outstanding (%v)", step, n.Used, len(want), held)
		}
	}
}

// GIVEN a node holding running, pre-copying, restoring and checkpointing
// containers that were granted in shuffled order,
// WHEN the machine crashes and the liveness sweep then declares it dead,
// THEN crashNM stops exactly the running containers at the crash instant,
// and declareNodeDead fences tasks in the order sortedRunning produced —
// ascending task ID — as the task-rescheduled records and the order the
// RM's next pass examines the re-requests in both show; checkpointing
// containers stay on the books for their dump-drain closure to release.
func TestNodeFencingVisitsInIDOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.SSD)
	cfg.Nodes = 2
	cfg.ContainersPerNode = 16
	cfg.NMLivenessTimeout = 30 * time.Second
	cfg.Faults = &faults.Plan{Seed: 1, NMCrashNode: 1, NMCrashAt: time.Minute}
	rec := obs.NewRecorder(1<<16, 4)
	cfg.Observer = rec
	b := newTestBooks(t, cfg)
	n := b.c.nodes[1]

	const crashAt, sweepAt = sim.Time(time.Minute), sim.Time(2 * time.Minute)
	states := []taskState{stateRunning, stateRunning, stateRestoring, stateCheckpointing}
	for _, id := range rng.Perm(cfg.ContainersPerNode) {
		v := b.task(cluster.TaskID{Job: cluster.JobID(id % 3), Index: int32(id)}, 0, cluster.GiB(1))
		b.run(v, n, sim.Time(time.Duration(id)*time.Second))
		v.state = states[rng.Intn(len(states))]
		v.preCopying = v.state == stateRunning && rng.Intn(3) == 0
	}
	before := referenceRunningMap(n)
	order := referenceSortedRunning(before)

	b.c.crashNM(crashAt)
	if !n.crashed {
		t.Fatal("node not crashed")
	}
	for _, id := range order {
		v := before[id]
		if stopped := v.failedAt == crashAt; stopped != (v.state == stateRunning) {
			t.Errorf("task %v in state %d: failedAt %v after a crash at %v", id, v.state, v.failedAt, crashAt)
		}
		if v.preCopying {
			t.Errorf("task %v still pre-copying on a crashed node", id)
		}
	}

	var wantFenced, wantLeft []string
	for _, id := range order {
		if before[id].state == stateCheckpointing {
			wantLeft = append(wantLeft, id.String())
		} else {
			wantFenced = append(wantFenced, id.String())
		}
	}
	b.c.declareNodeDead(n, sweepAt)

	j, err := obs.ReadJournal(bytes.NewReader(journalBytes(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	var journaled []string
	for _, r := range j.Records {
		if r.Name == "task-rescheduled" {
			journaled = append(journaled, r.Task)
		}
	}
	if !reflect.DeepEqual(journaled, wantFenced) {
		t.Errorf("task-rescheduled records in order %v, want %v", journaled, wantFenced)
	}
	var requested []string
	for _, req := range waitingOrder(b.c.rm) {
		requested = append(requested, req.task.spec.ID.String())
	}
	if !reflect.DeepEqual(requested, wantFenced) {
		t.Errorf("containers re-requested in order %v, want %v", requested, wantFenced)
	}
	var left []string
	for _, v := range n.running {
		left = append(left, v.spec.ID.String())
	}
	if !reflect.DeepEqual(left, wantLeft) {
		t.Errorf("containers left on the dead node %v, want the checkpointing ones %v", left, wantLeft)
	}
	if len(wantFenced) < 4 || len(wantLeft) < 2 {
		t.Fatalf("corpus too thin: %d fenced, %d left", len(wantFenced), len(wantLeft))
	}
}

// GIVEN a full cluster whose queue holds only requests that can neither be
// placed nor preempt anything (nothing running has lower priority),
// WHEN the RM runs an allocation pass, with the flight recorder off and on,
// THEN the pass allocates nothing: it keeps what it cannot serve in place in
// the FIFOs it walks, the victim scan keeps one incumbent, and the journal
// is consulted only once a victim exists.
func TestFruitlessPassAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  *obs.Recorder
	}{{"recorder off", nil}, {"recorder on", obs.NewRecorder(1<<16, 4)}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(core.PolicyAdaptive, storage.SSD)
			cfg.Nodes = 4
			cfg.ContainersPerNode = 6
			cfg.Observer = tc.rec
			b := newTestBooks(t, cfg)
			id := int32(0)
			for _, n := range b.c.nodes {
				for s := 0; s < cfg.ContainersPerNode; s++ {
					b.run(b.task(cluster.TaskID{Job: 1, Index: id}, 5, cluster.GiB(2)), n, 0)
					id++
				}
			}
			const now = sim.Time(time.Minute)
			for i := 0; i < 40; i++ {
				b.c.rm.RequestContainer(b.task(cluster.TaskID{Job: 2, Index: int32(i)}, cluster.Priority(i%6), cluster.GiB(1)), i%5-1, now)
			}
			if allocs := testing.AllocsPerRun(50, func() { b.c.rm.pass(now) }); allocs != 0 {
				t.Errorf("a pass that places and preempts nothing allocates %.0f objects", allocs)
			}
			if n := len(waitingOrder(b.c.rm)); n != 40 || b.c.res.Preemptions != 0 {
				t.Errorf("pass moved the books: %d queued, %d preemptions", n, b.c.res.Preemptions)
			}
			if tc.rec != nil && tc.rec.Seq() != 0 {
				t.Errorf("%d records journaled by fruitless passes", tc.rec.Seq())
			}
		})
	}
}
