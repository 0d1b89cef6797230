package yarn

import (
	"cmp"
	"container/heap"
	"slices"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
)

// request is one outstanding container request from an AM.
type request struct {
	task *taskRun
	// preferred names the node the AM would like (the checkpoint image's
	// home); -1 means no preference.
	preferred int
	queuedAt  sim.Time
	seq       uint64
	// reservedOn holds the node where victims are vacating for this
	// request.
	reservedOn *NodeManager
}

type requestQueue []*request

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
func (q *requestQueue) Push(x any)   { *q = append(*q, x.(*request)) }
func (q *requestQueue) Pop() any {
	old := *q
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return r
}

// ResourceManager arbitrates container slots across NodeManagers: it
// grants free slots to the highest-priority pending requests and, under
// contention, dispatches ContainerPreemptEvents for lower-priority
// containers (cost-aware under the adaptive policy).
type ResourceManager struct {
	c           *Cluster
	queue       requestQueue
	seq         uint64
	passPending bool
	// scanLimit bounds requests examined per allocation pass.
	scanLimit int
	// skipScratch backs pass's list of requests it could not serve.
	skipScratch []*request
}

func newResourceManager(c *Cluster) *ResourceManager {
	return &ResourceManager{c: c, scanLimit: 256}
}

// RequestContainer enqueues a container request (step 1/5 of the paper's
// Fig. 7 protocol).
func (rm *ResourceManager) RequestContainer(t *taskRun, preferred int, now sim.Time) {
	req := &request{task: t, preferred: preferred, queuedAt: now, seq: rm.seq}
	rm.seq++
	heap.Push(&rm.queue, req)
	rm.schedulePass(now)
}

// schedulePass coalesces allocation passes at one instant.
func (rm *ResourceManager) schedulePass(now sim.Time) {
	if rm.passPending {
		return
	}
	rm.passPending = true
	rm.c.engine.At(now, sim.Handler(func(at sim.Time) {
		rm.passPending = false
		rm.pass(at)
	}))
}

func (rm *ResourceManager) pass(now sim.Time) {
	scanned := 0
	skipped := rm.skipScratch[:0]
	for len(rm.queue) > 0 && scanned < rm.scanLimit {
		req := heap.Pop(&rm.queue).(*request)
		scanned++
		if rm.place(req, now) {
			continue
		}
		if req.reservedOn == nil && rm.c.cfg.Policy != core.PolicyWait && rm.preemptFor(req, now) {
			if rm.place(req, now) {
				continue
			}
		}
		skipped = append(skipped, req)
	}
	for _, req := range skipped {
		heap.Push(&rm.queue, req)
	}
	rm.skipScratch = skipped[:0]
}

// place grants a slot to req if one is available, honoring the AM's node
// preference first (restore locality).
func (rm *ResourceManager) place(req *request, now sim.Time) bool {
	var target *NodeManager
	if req.preferred >= 0 && req.preferred < len(rm.c.nodes) {
		if n := rm.c.nodes[req.preferred]; n.fits(req) {
			target = n
		}
	}
	if target == nil {
		for _, n := range rm.c.nodes {
			if n.fits(req) {
				target = n
				break
			}
		}
	}
	if target == nil {
		return false
	}
	rm.unreserve(req)
	rm.c.recordContainerWait(req, target, now)
	target.allocSlot(now, req.task)
	req.task.am.onAllocated(req.task, target, now)
	return true
}

// dropReservations clears every reservation held on n. When a node is
// declared dead its draining victims died with it, so the preemptors
// waiting on those slots must compete for placement elsewhere.
func (rm *ResourceManager) dropReservations(n *NodeManager) {
	for _, req := range rm.queue {
		if req.reservedOn == n {
			rm.unreserve(req)
		}
	}
	n.Reserved = cluster.Resources{}
}

func (rm *ResourceManager) unreserve(req *request) {
	if req.reservedOn == nil {
		return
	}
	req.reservedOn.Unreserve(container)
	req.reservedOn = nil
}

// scored is one preemption candidate: a running container, its node, and
// its estimated checkpoint cost (zero unless the policy is adaptive).
type scored struct {
	t    *taskRun
	n    *NodeManager
	cost time.Duration
}

// compare is the eviction order: lowest priority, then lowest estimated
// checkpoint cost (Section 5.2.2), then oldest task, mirroring stock YARN.
// Task seq is unique, so the order is total: its minimum is the head of a
// stable sort whatever order candidates are visited in.
func (a scored) compare(b scored) int {
	return cmp.Or(cmp.Compare(a.t.spec.Priority, b.t.spec.Priority),
		cmp.Compare(a.cost, b.cost), cmp.Compare(a.t.seq, b.t.seq))
}

// eachCandidate visits every container req may preempt: running, not
// mid-pre-copy, of strictly lower priority, on a live node.
func (rm *ResourceManager) eachCandidate(req *request, now sim.Time, visit func(scored)) {
	adaptive := rm.c.cfg.Policy == core.PolicyAdaptive
	prio := req.task.spec.Priority
	for _, n := range rm.c.nodes {
		if n.crashed || n.deadDeclared {
			// A dead node's containers are already lost; preempting them
			// frees nothing.
			continue
		}
		for _, v := range n.running {
			if v.state != stateRunning || v.preCopying || v.spec.Priority >= prio {
				continue
			}
			var cost time.Duration
			if adaptive {
				cost = core.CheckpointOverhead(v.candidate(now), n.Device, now)
			}
			visit(scored{t: v, n: n, cost: cost})
		}
	}
}

// preemptFor picks a victim container for req, reserves the victim's node
// for req and dispatches a ContainerPreemptEvent to the victim's AM.
func (rm *ResourceManager) preemptFor(req *request, now sim.Time) bool {
	victim, ok := rm.chooseVictim(req, now)
	if !ok {
		return false
	}
	req.reservedOn = victim.n
	victim.n.Reserve(container)
	rm.c.res.Preemptions++
	victim.t.am.onPreempt(victim.t, now)
	return true
}

// chooseVictim returns the candidate first in eviction order: one scan
// keeping the minimum. Only a call that finds one journals (and allocates):
// every candidate weighed, in eviction order, the victim at the head.
func (rm *ResourceManager) chooseVictim(req *request, now sim.Time) (victim scored, ok bool) {
	rm.eachCandidate(req, now, func(c scored) {
		if !ok || c.compare(victim) < 0 {
			victim, ok = c, true
		}
	})
	if !ok || !rm.c.events.On() {
		return victim, ok
	}
	var cands []scored
	rm.eachCandidate(req, now, func(c scored) { cands = append(cands, c) })
	slices.SortFunc(cands, scored.compare)
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
	return victim, ok
}
