package yarn

import (
	"container/heap"
	"sort"
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
	index     int
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
func (q requestQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *requestQueue) Push(x any) {
	r := x.(*request)
	r.index = len(*q)
	*q = append(*q, r)
}
func (q *requestQueue) Pop() any {
	old := *q
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	r.index = -1
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
}

func newResourceManager(c *Cluster) *ResourceManager {
	return &ResourceManager{c: c, scanLimit: 256}
}

// RequestContainer enqueues a container request (step 1/5 of the paper's
// Fig. 7 protocol).
func (rm *ResourceManager) RequestContainer(t *taskRun, preferred int, now sim.Time) {
	req := &request{task: t, preferred: preferred, queuedAt: now, seq: rm.seq, index: -1}
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
	rm.c.engine.At(now, func(at sim.Time) {
		rm.passPending = false
		rm.pass(at)
	})
}

func (rm *ResourceManager) pass(now sim.Time) {
	scanned := 0
	var skipped []*request
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
}

// place grants a slot to req if one is available, honoring the AM's node
// preference first (restore locality).
func (rm *ResourceManager) place(req *request, now sim.Time) bool {
	var target *NodeManager
	if req.preferred >= 0 && req.preferred < len(rm.c.nodes) {
		if n := rm.c.nodes[req.preferred]; n.availableFor(req) > 0 {
			target = n
		}
	}
	if target == nil {
		for _, n := range rm.c.nodes {
			if n.availableFor(req) > 0 {
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

func (rm *ResourceManager) reserve(req *request, n *NodeManager) {
	req.reservedOn = n
	n.reservedSlots++
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
	n.reservedSlots = 0
}

func (rm *ResourceManager) unreserve(req *request) {
	if req.reservedOn == nil {
		return
	}
	req.reservedOn.reservedSlots--
	if req.reservedOn.reservedSlots < 0 {
		req.reservedOn.reservedSlots = 0
	}
	req.reservedOn = nil
}

// preemptFor selects one victim container with strictly lower priority
// than req and dispatches a ContainerPreemptEvent to its AM. Under the
// adaptive policy victims are chosen cost-aware (lowest estimated
// checkpoint time first, Section 5.2.2); otherwise lowest priority and
// oldest first, mirroring stock YARN.
func (rm *ResourceManager) preemptFor(req *request, now sim.Time) bool {
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
			// A dead node's containers are already lost; preempting them
			// frees nothing.
			continue
		}
		ids := make([]cluster.TaskID, 0, len(n.running))
		for id := range n.running {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			if ids[i].Job != ids[j].Job {
				return ids[i].Job < ids[j].Job
			}
			return ids[i].Index < ids[j].Index
		})
		for _, id := range ids {
			v := n.running[id]
			if v.state != stateRunning || v.preCopying || v.spec.Priority >= prio {
				continue
			}
			var cost time.Duration
			if adaptive {
				cost = core.CheckpointOverhead(v.candidate(now), n.device, now)
			}
			cands = append(cands, scored{t: v, n: n, cost: cost})
		}
	}
	if len(cands) == 0 {
		return false
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
	if rm.c.jrn.On() {
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
		rm.c.jrn.Selection(now, req.task.spec.ID, victim.n.id, req.task.spec.Priority, scores)
	}
	rm.reserve(req, victim.n)
	rm.c.res.Preemptions++
	victim.t.am.onPreempt(victim.t, now)
	return true
}
