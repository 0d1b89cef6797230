package yarn

import (
	"cmp"
	"fmt"
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
	// reservedOn holds the node where victims are vacating for this
	// request.
	reservedOn *NodeManager
}

// scanLimit bounds the requests one allocation pass examines.
const scanLimit = 256

// ResourceManager arbitrates container slots across NodeManagers: it
// grants free slots to the highest-priority pending requests and, under
// contention, dispatches ContainerPreemptEvents for lower-priority
// containers (cost-aware under the adaptive policy).
type ResourceManager struct {
	c *Cluster
	// waiting holds one FIFO of outstanding requests per priority. Every
	// request is stamped with its handler's clock, which never runs
	// backwards, so each FIFO is in queuedAt order.
	waiting     [cluster.MaxPriority + 1][]*request
	passPending bool
}

func newResourceManager(c *Cluster) *ResourceManager {
	return &ResourceManager{c: c}
}

// RequestContainer enqueues a container request (step 1/5 of the paper's
// Fig. 7 protocol) at the tail of its priority's FIFO. One stamped before
// that tail would belong in the middle, so it panics instead.
func (rm *ResourceManager) RequestContainer(t *taskRun, preferred int, now sim.Time) {
	q := &rm.waiting[t.spec.Priority]
	if n := len(*q); n > 0 && now < (*q)[n-1].queuedAt {
		panic(fmt.Sprintf("yarn: task %v requested at %v, before its FIFO's tail at %v", t.spec.ID, now, (*q)[n-1].queuedAt))
	}
	*q = append(*q, &request{task: t, preferred: preferred, queuedAt: now})
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

// pass examines at most scanLimit waiting requests, from the highest
// priority down, oldest first. It reads each FIFO live: a kill's
// re-request has lower priority than the request that caused it, so it
// joins a FIFO the pass has yet to reach. A served request leaves its
// FIFO; the rest keep their order and slide up against the part not
// reached, so the upkeep costs the requests visited, not the queue.
func (rm *ResourceManager) pass(now sim.Time) {
	budget := scanLimit
	for p := len(rm.waiting) - 1; p >= 0 && budget > 0; p-- {
		kept, i := 0, 0
		for ; i < len(rm.waiting[p]) && budget > 0; i++ {
			budget--
			req := rm.waiting[p][i]
			served := rm.place(req, now) ||
				req.reservedOn == nil && rm.c.cfg.Policy != core.PolicyWait && rm.preemptFor(req, now) && rm.place(req, now)
			if !served {
				rm.waiting[p][kept] = req
				kept++
			}
		}
		if q := rm.waiting[p]; i < len(q) {
			copy(q[i-kept:], q[:kept])
			clear(q[:i-kept])
			rm.waiting[p] = q[i-kept:]
		} else {
			clear(q[kept:]) // walked to the end: the kept ones stand in front
			rm.waiting[p] = q[:kept]
		}
	}
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
	for _, q := range rm.waiting {
		for _, req := range q {
			if req.reservedOn == n {
				rm.unreserve(req)
			}
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
	rm.c.emit(obs.Event{Kind: obs.EvSelection, At: now, Task: req.task.spec.ID, Node: victim.n.id, Priority: req.task.spec.Priority,
		Candidates: scores})
	return victim, ok
}
