package yarn

import (
	"fmt"
	"sync"

	"preemptsched/internal/cluster"
	"preemptsched/internal/proc"
	"preemptsched/internal/sim"
)

// outcome is what running task t out found: its checksum, or why it
// failed.
type outcome struct {
	t   *taskRun
	sum uint64
	err error
}

// runOut is a completed task's remaining real work: its process p, built
// here if nothing needed it before, runs to its last step, must then have
// exited, and is checksummed and released. It reads only what no one
// writes after a task completes — t's AM, spec and step count — so it may
// run beside the engine goroutine. A failure never panics here, where no
// caller could recover it: finish raises it on the engine goroutine.
func runOut(t *taskRun, p *proc.Process) outcome {
	o := outcome{t: t}
	if p == nil {
		var err error
		if p, err = t.am.newProcess(t); err != nil {
			o.err = fmt.Errorf("yarn: create process for %v: %w", t.spec.ID, err)
			return o
		}
	}
	switch err := stepTo(p, t.totalSteps); {
	case err != nil:
		o.err = fmt.Errorf("yarn: finish %v: %w", t.spec.ID, err)
	case p.State() != proc.Exited:
		o.err = fmt.Errorf("yarn: task %v finished at %d/%d steps but process is %v",
			t.spec.ID, p.Steps(), t.totalSteps, p.State())
	default:
		o.sum = checksumProcess(p)
	}
	p.Kill() // a no-op on the exited process; a failed one may still run
	p.Release()
	return o
}

// finishJob is one task handed to the pool with the process taken from it.
type finishJob struct {
	t *taskRun
	p *proc.Process
}

// finishers is the pool batch runs hand completed tasks to, so that the
// programs run out on the other cores while the engine goroutine goes on.
// A finisher writes a task's outcome at out[t.seq] and nowhere else; the
// engine goroutine reads out once the pool is joined.
type finishers struct {
	work chan finishJob
	wg   sync.WaitGroup
	out  []outcome
}

// finishBacklog is how many handed-over tasks may wait for a finisher
// before the engine goroutine waits for one: deep enough that a burst of
// completions at one instant does not stall the engine, shallow enough
// that a lagging pool holds few built processes. On 2 vCPUs a backlog of
// the pool's width ran yarn-batch about 10 % slower than 64 or 1024 did.
const finishBacklog = 128

// startFinishers starts a pool of n finishers for the tasks that exist
// now: Run creates every task before it starts the pool, so each task's
// seq indexes the pool's outcomes. With n at most 1 a task runs out inline
// at its completion instead.
func (c *Cluster) startFinishers(n int) {
	if n <= 1 {
		return
	}
	f := &finishers{work: make(chan finishJob, finishBacklog), out: make([]outcome, c.taskSeq+1)}
	f.wg.Add(n)
	for range n {
		go func() {
			defer f.wg.Done()
			for j := range f.work {
				f.out[j.t.seq] = runOut(j.t, j.p)
			}
		}()
	}
	c.fin = f
}

// handOver takes t's process from it and has t run out, by a finisher or
// inline.
func (c *Cluster) handOver(t *taskRun) {
	p := t.process
	t.process = nil
	if c.fin == nil {
		c.settle(runOut(t, p))
		return
	}
	c.fin.work <- finishJob{t, p}
}

// joinFinishers stops the pool once every handed-over task has run out and
// settles the outcomes in seq order. A no-op without a pool.
func (c *Cluster) joinFinishers() {
	f := c.fin
	if f == nil {
		return
	}
	c.fin = nil
	close(f.work)
	f.wg.Wait()
	for _, o := range f.out {
		if o.t != nil {
			c.settle(o)
		}
	}
}

// settle books a task that has run out: its checksum, folded into the
// digest and, in a batch run, kept in the per-task map; or its error if it
// is the lowest-seq failure so far.
func (c *Cluster) settle(o outcome) {
	if o.err == nil {
		c.res.TaskChecksumDigest += checksumTerm(o.t.spec.ID, o.sum)
		if c.res.TaskChecksums != nil {
			c.res.TaskChecksums[o.t.spec.ID] = o.sum
		}
		return
	}
	if c.failed.err == nil || o.t.seq < c.failed.t.seq {
		c.failed = o
	}
}

// checksumTerm is task id's addend to Result.TaskChecksumDigest: the
// task's mixed ID xor its checksum, mixed again. The mix is a bijection, so
// for a given task every checksum gives a different term, and the digest,
// a wrapping sum of terms, moves whenever any one task's checksum does, in
// whatever order the tasks settle.
func checksumTerm(id cluster.TaskID, sum uint64) uint64 {
	return sim.Mix64((sim.Mix64(uint64(id.Job)) + uint64(uint32(id.Index))) ^ sum)
}
