package yarn

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// requestTwin is one of the two framework instances a request stream
// drives: the RM's own FIFOs, or the retired heap over the same books.
type requestTwin struct {
	b     testBooks
	ref   *referenceRM // nil for the FIFOs
	rec   *obs.Recorder
	trace *obs.Tracer
	tasks map[cluster.TaskID]*taskRun
}

func newRequestTwin(t *testing.T, cfg Config, reference bool) *requestTwin {
	tw := &requestTwin{rec: obs.NewRecorder(1<<16, 4), trace: obs.NewTracer(1 << 12), tasks: make(map[cluster.TaskID]*taskRun)}
	cfg.Observer, cfg.Tracer = tw.rec, tw.trace
	tw.b = newTestBooks(t, cfg)
	if reference {
		tw.ref = &referenceRM{rm: tw.b.c.rm}
	}
	return tw
}

func (tw *requestTwin) request(id cluster.TaskID, prio cluster.Priority, preferred int, now sim.Time) {
	task := tw.b.task(id, prio, cluster.GiB(1))
	// The engine never fires, so no container completes on its own: the
	// clock must not run past the end of one either.
	task.spec.Duration = 1000 * time.Hour
	tw.tasks[id] = task
	tw.b.c.rm.RequestContainer(task, preferred, now)
	if tw.ref != nil {
		tw.ref.adopt()
	}
}

func (tw *requestTwin) pass(now sim.Time) {
	if tw.ref != nil {
		tw.ref.pass(now)
		return
	}
	tw.b.c.rm.pass(now)
}

func (tw *requestTwin) waiting() []*request {
	if tw.ref != nil {
		return tw.ref.order()
	}
	return waitingOrder(tw.b.c.rm)
}

// running lists the containers a release may end, in node then ID order:
// running, not pre-copying.
func (tw *requestTwin) running() []*taskRun {
	var rs []*taskRun
	for _, n := range tw.b.c.nodes {
		for _, v := range n.running {
			if v.state == stateRunning && !v.preCopying {
				rs = append(rs, v)
			}
		}
	}
	return rs
}

// release ends task id's container as its completion would: the slot frees
// and the task leaves the books.
func (tw *requestTwin) release(id cluster.TaskID, now sim.Time) {
	v := tw.tasks[id]
	tw.b.c.engine.Cancel(v.completion)
	v.completion = nil
	v.node.releaseSlot(now, v)
	v.node = nil
	v.state = stateDone
}

// books renders what a pass decided: the journal (preemptions, in order,
// with their claimants and verdicts), the queue-wait spans (grants, in
// order), every node's containers and ledger, and the counters.
func (tw *requestTwin) books(t *testing.T) string {
	var b bytes.Buffer
	b.Write(journalBytes(t, tw.rec))
	for _, sp := range tw.trace.Snapshot() {
		fmt.Fprintf(&b, "\nspan %s %s %s %s %v %v", sp.Cat, sp.Name, sp.PID, sp.TID, sp.Start, sp.End)
	}
	for _, n := range tw.b.c.nodes {
		fmt.Fprintf(&b, "\nnode %d used %v reserved %v:", n.id, n.Used, n.Reserved)
		for _, v := range n.running {
			fmt.Fprintf(&b, " %v/%d@%v", v.spec.ID, v.state, v.attemptStart)
		}
	}
	fmt.Fprintf(&b, "\npreemptions %d kills %d checkpoints %d", tw.b.c.res.Preemptions, tw.b.c.res.Kills, tw.b.c.res.Checkpoints)
	return b.String()
}

// byteStream hands out a fuzz input a byte at a time, zeros once it ends.
type byteStream struct{ b []byte }

func (s *byteStream) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// requestCoverage counts what streams made the two queues do.
type requestCoverage struct {
	passes, placed, limited, reserved, midPassRequests int
}

// requireSameRequests applies one decoded stream to the RM's FIFOs and to
// the heap they replaced, each over a cluster of its own. The first byte
// picks the cluster — 1-4 nodes of 1-4 containers — and the policy: kill,
// so a victim re-requests in the middle of the pass that preempted it, or
// checkpoint, so the preemptor holds a reservation while the victim's dump
// drains (the engine never fires, so it drains forever). Then, per
// operation, first byte mod 4:
//
//	0  the clock advances by the next byte
//	1  one request of priority (next byte mod 6) that prefers node
//	   (next byte mod nodes+2) - 1: none, a node, or one that does not exist
//	2  a burst of (next byte) + 1 requests of priority (next byte mod 6),
//	   their preferences cycling through none, every node and one past
//	   the end
//	3  a pass at the next tick; then, if the next byte is odd, the
//	   (byte / 2)-th running container in node order completes
//
// After every pass both must hold the same books (requestTwin.books).
func requireSameRequests(t *testing.T, data []byte, cov *requestCoverage) {
	if len(data) == 0 {
		return
	}
	head := data[0]
	policy := core.PolicyKill
	if head&16 != 0 {
		policy = core.PolicyCheckpoint
	}
	cfg := DefaultConfig(policy, storage.SSD)
	cfg.Nodes = 1 + int(head&3)
	cfg.ContainersPerNode = 1 + int(head>>2&3)
	fifo, ref := newRequestTwin(t, cfg, false), newRequestTwin(t, cfg, true)
	twins := []*requestTwin{fifo, ref}

	var (
		now  sim.Time
		next int32
	)
	request := func(prio byte, pref int) {
		id := cluster.TaskID{Job: 1, Index: next}
		next++
		p := cluster.Priority(prio % 6)
		preferred := pref%(cfg.Nodes+2) - 1
		for _, tw := range twins {
			tw.request(id, p, preferred, now)
		}
	}
	for s := (&byteStream{data[1:]}); len(s.b) > 0; {
		switch s.next() % 4 {
		case 0:
			now += sim.Time(time.Duration(s.next()) * time.Second)
		case 1:
			request(s.next(), int(s.next()))
		case 2:
			k, prio := int(s.next())+1, s.next()
			for i := 0; i < k; i++ {
				request(prio, i)
			}
		case 3:
			now += sim.Time(time.Second)
			before := len(fifo.waiting())
			kills := fifo.b.c.res.Kills
			for _, tw := range twins {
				tw.pass(now)
			}
			if got, want := fifo.books(t), ref.books(t); got != want {
				t.Fatalf("pass at %v over %d waiting: the FIFOs' books differ from the heap's\n--- FIFOs\n%s\n--- heap\n%s", now, before, got, want)
			}
			// The waiting requests, in the order the next pass examines
			// them, with their reservations.
			got, want := fifo.waiting(), ref.waiting()
			if len(got) != len(want) {
				t.Fatalf("pass at %v: %d requests wait at the FIFOs, %d at the heap", now, len(got), len(want))
			}
			for i, g := range got {
				w := want[i]
				if g.task.spec.ID != w.task.spec.ID || g.preferred != w.preferred || g.queuedAt != w.queuedAt || nodeName(g.reservedOn) != nodeName(w.reservedOn) {
					t.Fatalf("pass at %v: waiting[%d] is %v (pref %d, at %v, on %s), the heap's is %v (pref %d, at %v, on %s)", now, i,
						g.task.spec.ID, g.preferred, g.queuedAt, nodeName(g.reservedOn), w.task.spec.ID, w.preferred, w.queuedAt, nodeName(w.reservedOn))
				}
			}
			cov.passes++
			if before > scanLimit {
				cov.limited++
			}
			requeued := fifo.b.c.res.Kills - kills
			cov.midPassRequests += requeued
			cov.placed += before + requeued - len(got)
			for _, req := range got {
				if req.reservedOn != nil {
					cov.reserved++
					break
				}
			}
			if c := s.next(); c&1 != 0 {
				if rs := fifo.running(); len(rs) > 0 {
					id := rs[int(c>>1)%len(rs)].spec.ID
					for _, tw := range twins {
						tw.release(id, now)
					}
				}
			}
		}
	}
}

func requestSeeds() [][]byte {
	return [][]byte{
		// 2 nodes x 2, kill: five 0s arrive and four run; a 5 and a 3
		// arrive, each kills a 0, and both victims queue behind the 0 that
		// never ran.
		{0b0101, 2, 4, 0, 3, 0, 1, 5, 0, 1, 3, 1, 3, 0},
		// 1 node x 2, kill: a 1 and a 0 run; a 4 kills the 0 and then a 2
		// kills the 1, whose re-request lands at level 1 — below the 2,
		// above the 0 — and is examined in the same pass.
		{0b0100, 1, 1, 0, 1, 0, 0, 3, 0, 1, 4, 0, 1, 2, 0, 3, 0},
		// 1 node x 4, checkpoint: four 0s fill the node; 256 3s arrive,
		// preempt all four and hold four reservations through passes that
		// can serve nothing while the dumps drain.
		{0b11100, 2, 3, 0, 3, 0, 2, 255, 9, 3, 1, 3, 3, 3, 5, 3, 0, 0, 30, 3, 7},
		// 1 node x 2, checkpoint: a 0 and a 5 run; a 1 preempts the 0 and
		// holds the node's reservation while the 0's dump drains. 255 5s
		// arrive and the 5 completes: the next pass examines the 255, none
		// of which may take the reserved slot, and reaches the 1 as its
		// 256th and last request.
		{0b10100, 1, 0, 0, 1, 5, 0, 3, 0, 1, 1, 0, 3, 0, 2, 254, 5, 3, 1, 3, 0},
		// The same with 256 5s: the pass stops one request short of the 1.
		{0b10100, 1, 0, 0, 1, 5, 0, 3, 0, 1, 1, 0, 3, 0, 2, 255, 5, 3, 1, 3, 0},
		// 4 nodes x 4, kill: 201 1s, then 201 4s five seconds later, far
		// past the scan limit; passes and completions in between.
		{0b1111, 2, 200, 1, 0, 5, 2, 200, 4, 3, 0, 3, 1, 3, 3, 3, 5, 0, 2, 3, 9, 3, 11},
		// 3 nodes x 1, checkpoint: preferences name no node, every node
		// and one past the end.
		{0b10010, 1, 0, 0, 1, 0, 1, 1, 0, 2, 3, 0, 1, 5, 3, 1, 4, 4, 3, 1, 2, 2, 3, 1, 3, 3, 3, 0},
	}
}

// GIVEN the request streams of requestSeeds and 200 drawn at random,
// WHEN each drives the RM's per-priority FIFOs and the heap they replaced,
// THEN after every pass both show the same grants in the same order, the
// same preemptions, the same reservations and the same waiting order; and
// the streams between them exercise what the rewrite had to keep: passes
// over more requests than scanLimit, reservations held across passes, and
// kill victims re-granted in the pass that killed them.
func TestRequestQueueMatchesReference(t *testing.T) {
	var cov requestCoverage
	for _, seed := range requestSeeds() {
		requireSameRequests(t, seed, &cov)
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 200; i++ {
		data := make([]byte, 40+rng.Intn(80))
		rng.Read(data)
		requireSameRequests(t, data, &cov)
	}
	t.Logf("coverage %+v", cov)
	if cov.limited < 10 || cov.reserved < 10 || cov.midPassRequests < 20 || cov.placed < 100 {
		t.Fatalf("corpus too thin: %+v", cov)
	}
}

// FuzzRequestQueue checks the FIFOs against the heap on arbitrary streams.
func FuzzRequestQueue(f *testing.F) {
	for _, seed := range requestSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		requireSameRequests(t, data, &requestCoverage{})
	})
}
