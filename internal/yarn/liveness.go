package yarn

import (
	"time"

	"preemptsched/internal/sim"
)

// This file is the compute-node fault domain: NMs heartbeat the RM on the
// virtual clock, the RM's sweep declares silent nodes dead after
// Config.NMLivenessTimeout, and the seeded fault plan can crash an NM or
// partition it from the RM. Everything runs on the engine goroutine.
//
// One periodic tick carries the whole loop: each firing beats every live
// NM in node order and then sweeps. The tick re-arms only while
// livenessShouldRun() holds (liveness configured, work outstanding, at
// least one survivable node). When the workload drains it stops and
// cancels the pending NM-crash event — otherwise a perpetual tick would
// keep engine.Run (and the service drain) from ever running dry, and a
// far-future crash time would inflate the makespan of a run whose work
// finished early.

// nmHeartbeatEvery is the NodeManager heartbeat period on the virtual
// clock, and so the liveness tick's.
const nmHeartbeatEvery = 10 * time.Second

// livenessShouldRun reports whether the liveness tick has a reason to
// stay armed.
func (c *Cluster) livenessShouldRun() bool {
	if c.cfg.NMLivenessTimeout <= 0 || c.res.TasksCompleted >= c.tasksSubmitted {
		return false
	}
	for _, n := range c.nodes {
		if !n.crashed {
			return true
		}
	}
	return false
}

// ensureLiveness arms the liveness tick (and the seeded NM-crash event) if
// liveness is configured and work is outstanding. Called from every job
// submission, so service mode re-arms after an idle drain.
func (c *Cluster) ensureLiveness(now sim.Time) {
	if c.cfg.NMLivenessTimeout <= 0 {
		return
	}
	c.armNMCrash(now)
	if c.livenessOn || !c.livenessShouldRun() {
		return
	}
	c.livenessOn = true
	for _, n := range c.nodes {
		if !n.crashed {
			n.lastBeat = now
		}
	}
	c.engine.At(now+sim.Time(nmHeartbeatEvery), sim.Handler(c.tick))
}

// armNMCrash schedules the fault plan's seeded NM crash, clamped to the
// current instant when re-armed after its configured time already passed.
func (c *Cluster) armNMCrash(now sim.Time) {
	p := c.cfg.Faults
	if p == nil || p.NMCrashAt <= 0 || c.nmCrashTimer != nil {
		return
	}
	if p.NMCrashNode >= len(c.nodes) || c.nodes[p.NMCrashNode].crashed {
		return
	}
	at := sim.Time(p.NMCrashAt)
	if at < now {
		at = now
	}
	c.nmCrashTimer = c.engine.ScheduleAt(at, sim.Handler(c.crashNM))
}

// tick is one liveness period. A crashed machine's beats have stopped; a
// partitioned or fault-dropped beat never reaches the RM; a delivered beat
// refreshes lastBeat and re-registers a node the sweep had declared dead
// (partition heal). The sweep then declares any node silent longer than
// the timeout dead and fences its containers.
func (c *Cluster) tick(at sim.Time) {
	if !c.livenessShouldRun() {
		c.livenessOn = false
		if c.nmCrashTimer != nil {
			c.engine.Cancel(c.nmCrashTimer)
			c.nmCrashTimer = nil
		}
		return
	}
	for _, n := range c.nodes {
		switch {
		case n.crashed:
		case c.nmPartitioned(n, at):
			if c.injector != nil {
				c.injector.NotePartitionDrop()
			}
		case c.injector != nil && c.injector.DropHeartbeat():
			// Dropped on the wire; the injector counted it.
		default:
			n.lastBeat = at
			if n.deadDeclared {
				c.nodeRecovered(n, at)
			}
		}
	}
	timeout := sim.Time(c.cfg.NMLivenessTimeout)
	for _, n := range c.nodes {
		if !n.deadDeclared && at-n.lastBeat > timeout {
			c.declareNodeDead(n, at)
		}
	}
	c.engine.At(at+sim.Time(nmHeartbeatEvery), sim.Handler(c.tick))
}

// nmPartitioned reports whether the fault plan has node n unreachable
// from the RM at instant now. The window is pure plan state, so a healed
// partition needs no bookkeeping: beats simply start arriving again.
func (c *Cluster) nmPartitioned(n *NodeManager, now sim.Time) bool {
	p := c.cfg.Faults
	if p == nil || p.NMPartitionAt <= 0 || n.id != p.NMPartitionNode {
		return false
	}
	if now < sim.Time(p.NMPartitionAt) {
		return false
	}
	if p.NMPartitionFor > 0 && now >= sim.Time(p.NMPartitionAt+p.NMPartitionFor) {
		return false
	}
	return true
}

// crashNM is the seeded machine death: container processes die on the
// spot, but slots stay held and the RM's books do not move until the
// liveness sweep notices the silence — that detection delay is the point.
func (c *Cluster) crashNM(now sim.Time) {
	c.nmCrashTimer = nil
	p := c.cfg.Faults
	if p == nil || p.NMCrashNode >= len(c.nodes) {
		return
	}
	n := c.nodes[p.NMCrashNode]
	if n.crashed {
		return
	}
	n.crashed = true
	n.Settle(now)
	if c.injector != nil {
		c.injector.NoteNMCrash()
	}
	for _, t := range n.running {
		if t.state != stateRunning {
			continue
		}
		c.engine.Cancel(t.completion)
		t.completion = nil
		t.preCopying = false
		t.killProcess()
		t.failedAt = now
	}
}

// declareNodeDead is the sweep's verdict: release the node's containers,
// fence its tasks through their AMs, drop reservations held on it, and
// kick an allocation pass so the displaced work lands elsewhere.
func (c *Cluster) declareNodeDead(n *NodeManager, now sim.Time) {
	n.deadDeclared = true
	c.recordNodeDown(n, now)
	// Fencing releases slots, which edits n.running: walk a snapshot.
	for _, t := range append([]*taskRun(nil), n.running...) {
		t.am.onNodeFailure(t, n, now)
	}
	c.rm.dropReservations(n)
	c.rm.schedulePass(now)
}

// nodeRecovered re-registers a declared-dead node whose heartbeat came
// back (a healed partition; a crashed machine never beats again).
func (c *Cluster) nodeRecovered(n *NodeManager, now sim.Time) {
	n.deadDeclared = false
	c.recordNodeRecovered(n, now)
	c.rm.schedulePass(now)
}
