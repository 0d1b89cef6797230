package yarn

import (
	"fmt"
	"hash/crc32"
	"time"

	"preemptsched/internal/checkpoint"
	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/kmeans"
	"preemptsched/internal/mapreduce"
	"preemptsched/internal/obs"
	"preemptsched/internal/proc"
	"preemptsched/internal/sim"
)

// taskState is a task's lifecycle within the framework.
type taskState int

const (
	statePending taskState = iota + 1
	stateRunning
	stateCheckpointing
	stateRestoring
	stateDone
)

// taskRun is one task's runtime record, owned by its AM.
type taskRun struct {
	spec *cluster.TaskSpec
	am   *AppMaster
	seq  uint64

	state taskState
	node  *NodeManager
	// banked is compute already saved by checkpoints, quantized to whole
	// program steps so virtual progress and real process state agree.
	banked       time.Duration
	attemptStart sim.Time
	completion   *sim.Timer

	// process is the task's real program instance, nil until something
	// needs it: a fresh task's process is built at the first preemption
	// that dumps it (advance), or else when it runs out (runOut).
	process    *proc.Process
	totalSteps uint64

	// chain lists the images of the current checkpoint chain, oldest
	// first; the last entry is the restore tip. It is the task's only
	// record of its images. Keeping every link lets a failed restore fall
	// back to the parent image instead of giving up the whole chain.
	chain []imageLink
	// imageNode is the node that booked the chain's latest image, -1 with
	// no chain; dropping a tip leaves it, so a fallback restore still
	// prefers that node.
	imageNode  int
	imageSeq   int
	imageBytes int64
	// preCopying marks a running task whose pages are being pre-dumped;
	// it is not eligible for further preemption until frozen.
	preCopying bool

	// trip pairs the Algorithm 1 estimate of the task's open checkpoint
	// round trip with its measured dump and restore windows, and remembers
	// the newest dump span, which parents the queue-wait and restore spans
	// of the same lifecycle.
	trip obs.RoundTrip

	// failedAt is when the task's container actually died in an NM crash;
	// the RM only learns (and charges the loss) at the liveness sweep.
	// failedOver marks a task requeued by a node failure until its next
	// attempt starts, attributing that restore/restart to the failure
	// rather than to a preemption.
	failedAt   sim.Time
	failedOver bool
}

// imageLink is one image of a checkpoint chain together with the logical
// bytes it contributed to the footprint accounting.
type imageLink struct {
	name  string
	bytes int64
}

// hasImage reports whether t has a checkpoint image to restore from.
func (t *taskRun) hasImage() bool { return len(t.chain) > 0 }

// tip is the name of t's restore tip, "" with no chain.
func (t *taskRun) tip() string {
	if len(t.chain) == 0 {
		return ""
	}
	return t.chain[len(t.chain)-1].name
}

// nextImageName names t's next image; no name is ever reused.
func (t *taskRun) nextImageName() string {
	name := fmt.Sprintf("/ckpt/%s/%d", t.spec.ID, t.imageSeq)
	t.imageSeq++
	return name
}

// bankedAt is the compute banked by a process that has run steps of the
// program's totalSteps.
func (t *taskRun) bankedAt(steps uint64) time.Duration {
	return time.Duration(float64(t.spec.Duration) * float64(steps) / float64(t.totalSteps))
}

// remaining is the compute time still owed.
func (t *taskRun) remaining() time.Duration { return t.spec.Duration - t.banked }

// progressFrac is the fraction of total compute done at virtual time now.
func (t *taskRun) progressFrac(now sim.Time) float64 {
	done := t.banked
	if t.state == stateRunning {
		done += time.Duration(now - t.attemptStart)
	}
	f := float64(done) / float64(t.spec.Duration)
	if f > 1 {
		f = 1
	}
	return f
}

func (t *taskRun) unsavedProgress(now sim.Time) time.Duration {
	if t.state != stateRunning {
		return 0
	}
	return time.Duration(now - t.attemptStart)
}

// candidate builds the Algorithm 1 input for this task. DirtyBytes comes
// from the live process's real soft-dirty page count when an image exists.
func (t *taskRun) candidate(now sim.Time) core.Candidate {
	dirty := t.spec.MemFootprint
	if t.hasImage() && t.process != nil {
		dirty = t.process.Memory().LogicalDirtyBytes()
	}
	return core.Candidate{
		Task:            t.spec.ID,
		Priority:        t.spec.Priority,
		Demand:          t.spec.Demand,
		UnsavedProgress: t.unsavedProgress(now),
		FootprintBytes:  t.spec.MemFootprint,
		DirtyBytes:      dirty,
		HasCheckpoint:   t.hasImage(),
	}
}

// dropProcess gives the pages of t's process back once it has stopped:
// every caller has read what it needed of them, and no image aliases them.
// A process still running makes Release panic, so killers kill first.
func (t *taskRun) dropProcess() {
	t.process.Release()
	t.process = nil
}

// killProcess kills t's process, if one was ever built, and drops it.
func (t *taskRun) killProcess() {
	if t.process != nil {
		t.process.Kill()
		t.dropProcess()
	}
}

// advanceTo steps the real process until its step counter reaches target.
func (t *taskRun) advanceTo(target uint64) error {
	return stepTo(t.process, min(target, t.totalSteps))
}

// stepTo steps p until its step counter reaches target.
func stepTo(p *proc.Process, target uint64) error {
	for p.Steps() < target {
		if _, err := p.Step(); err != nil {
			return err
		}
	}
	return nil
}

// AppMaster manages one job's tasks: it requests containers, runs the
// per-container programs, and — as the paper's Preemption Manager — decides
// per ContainerPreemptEvent whether to checkpoint or kill (Algorithm 1),
// performs dumps/restores through the DFS, and re-requests containers for
// preempted tasks.
type AppMaster struct {
	c     *Cluster
	job   *cluster.JobSpec
	tasks []*taskRun
	left  int
}

func newAppMaster(c *Cluster, job *cluster.JobSpec) *AppMaster {
	am := &AppMaster{c: c, job: job, left: len(job.Tasks)}
	for i := range job.Tasks {
		spec := &job.Tasks[i]
		am.tasks = append(am.tasks, &taskRun{
			spec:       spec,
			am:         am,
			seq:        c.nextTaskSeq(),
			state:      statePending,
			totalSteps: c.programSteps(),
			imageNode:  -1,
		})
	}
	return am
}

// submit requests one container per task (Fig. 7 step 1).
func (am *AppMaster) submit(now sim.Time) {
	am.c.tasksSubmitted += len(am.tasks)
	am.c.ensureLiveness(now)
	for _, t := range am.tasks {
		am.c.rm.RequestContainer(t, -1, now)
	}
}

// newProcess builds the task's real program instance.
func (am *AppMaster) newProcess(t *taskRun) (*proc.Process, error) {
	cfg := am.c.cfg
	seed := int64(t.spec.ID.Job)*1_000_003 + int64(t.spec.ID.Index)
	switch cfg.Program {
	case "wordcount":
		return mapreduce.NewProcessScaled(
			t.spec.ID.String(),
			cfg.WordCountInput, cfg.WordCountChunk, seed,
			t.spec.MemFootprint,
		)
	default:
		return kmeans.NewProcessScaled(
			t.spec.ID.String(),
			cfg.KMeansPoints, cfg.KMeansDims, cfg.KMeansK,
			uint64(cfg.KMeansIters), seed,
			t.spec.MemFootprint,
		)
	}
}

// onAllocated receives a granted container (Fig. 7 step 6): fresh tasks
// start executing, their processes built where first needed (see
// advance); checkpointed tasks restore first (locally or remotely).
func (am *AppMaster) onAllocated(t *taskRun, n *NodeManager, now sim.Time) {
	t.node = n
	if !t.hasImage() {
		if t.failedOver {
			// A node failure took the task and it had no image to resume
			// from — this fresh start is failure-attributed lost work.
			am.c.res.FailureRestarts++
		}
		am.startRun(t, now)
		return
	}

	// Restore path: charge network transfer when the image is remote,
	// then the device read, then rebuild the real process.
	t.state = stateRestoring
	remote := n.id != t.imageNode
	var transfer time.Duration
	if remote {
		transfer = time.Duration(float64(t.spec.MemFootprint) / core.DefaultNetBandwidth * float64(time.Second))
	}
	start, done := n.Device.ReserveRead(now+transfer, t.spec.MemFootprint)
	am.c.recordRestore(t, n, remote, transfer, now, start, done)
	am.c.chargeOverhead(t, time.Duration(done-now))
	am.c.engine.At(done, sim.Handler(func(at sim.Time) {
		am.restoreOrFallback(t, n, at)
	}))
}

// restoreOrFallback rebuilds the task's process from its checkpoint
// chain, walking the degradation ladder on failure: a corrupt or
// unreadable tip image falls back to its parent, re-running only the work
// the dropped link had banked, and an exhausted chain restarts the task
// from scratch — exactly what a kill-based scheduler would have done.
func (am *AppMaster) restoreOrFallback(t *taskRun, n *NodeManager, at sim.Time) {
	if t.state != stateRestoring || t.node != n {
		// The node failed mid-restore and the liveness sweep already
		// requeued the task; this is the stale device-read completion.
		return
	}
	if n.crashed || n.deadDeclared {
		// The node died under the restore but the sweep has not fenced the
		// task yet; leave it for declareNodeDead, which requeues restoring
		// tasks losslessly.
		return
	}
	for t.hasImage() {
		p, info, err := am.c.ckpt.Restore(n.store, t.tip())
		if err == nil {
			if t.failedOver {
				am.c.res.FailureRestores++
			}
			// The restored image may be older than the tip the bank was
			// computed from; re-derive banked progress from the step
			// counter actually restored and charge the difference as
			// waste.
			restored := t.bankedAt(info.Steps)
			if restored < t.banked {
				am.c.chargeWaste(t, t.banked-restored)
				t.banked = restored
			}
			t.process = p
			am.startRun(t, at)
			return
		}
		am.c.res.RestoreFailures++
		am.dropTipImage(t, n)
		if t.hasImage() {
			am.c.res.RestoreFallbacks++
		}
	}
	// Every image of the chain was unusable: restart from scratch.
	am.c.res.RestoreRestarts++
	if t.failedOver {
		am.c.res.FailureRestarts++
	}
	am.discardImages(t, n)
	am.c.chargeWaste(t, t.banked)
	t.banked = 0
	am.startRun(t, at)
}

// dropTipImage removes the newest link of t's non-empty chain, leaving
// its parent image, if any, as the restore tip.
func (am *AppMaster) dropTipImage(t *taskRun, n *NodeManager) {
	tip := t.chain[len(t.chain)-1]
	t.chain = t.chain[:len(t.chain)-1]
	_ = n.store.Remove(tip.name)
	_ = n.store.Remove(checkpoint.ManifestName(tip.name))
	t.imageBytes -= tip.bytes
	am.c.res.AddImageBytes(-tip.bytes)
	if len(t.chain) == 0 {
		t.imageNode = -1
	}
}

// discardImages drops a task's checkpoint chain, best effort: corrupt
// chains may be partially unreadable.
func (am *AppMaster) discardImages(t *taskRun, n *NodeManager) {
	if !t.hasImage() {
		return
	}
	if tip := t.tip(); checkpoint.RemoveChain(n.store, tip) != nil {
		// Chain walking requires readable images; remove at least the tip
		// and its manifest.
		_ = n.store.Remove(tip)
		_ = n.store.Remove(checkpoint.ManifestName(tip))
	}
	am.c.res.AddImageBytes(-t.imageBytes)
	t.imageBytes = 0
	t.imageNode = -1
	t.chain = nil
}

// recordFullImage books a freshly written full image as the task's whole
// chain.
func (am *AppMaster) recordFullImage(t *taskRun, name string, bytes int64) {
	am.c.res.AddImageBytes(bytes - t.imageBytes)
	t.imageBytes = bytes
	t.chain = []imageLink{{name: name, bytes: bytes}}
}

// recordDeltaImage books an incremental image appended to the chain.
func (am *AppMaster) recordDeltaImage(t *taskRun, name string, bytes int64) {
	t.imageBytes += bytes
	am.c.res.AddImageBytes(bytes)
	t.chain = append(t.chain, imageLink{name: name, bytes: bytes})
}

// killFallback degrades a failed checkpoint to a kill-based preemption:
// the victim dies, lost compute is charged as waste, and the task
// re-queues like any killed victim — it still restores from its last
// intact image if one exists. The event names the degraded verdict, which
// Count moves over to the kills.
func (am *AppMaster) killFallback(t *taskRun, n *NodeManager, verdict core.PreemptAction, lost time.Duration, now sim.Time) {
	am.c.res.DumpFailures++
	am.c.res.FallbackKills++
	am.c.slo.CountFallbackKill()
	am.c.emit(obs.Event{Kind: obs.EvKillFallback, At: now, Task: t.spec.ID, Node: n.id, Priority: t.spec.Priority,
		Name: verdict.String(), Unsaved: lost})
	t.trip.Abandon()
	am.kill(t, n, lost, now)
}

// kill is the kill-based preemption itself: the victim's process dies,
// the compute it had not banked is charged as waste, its slot frees at
// once, and it re-queues preferring the node that holds its last image.
func (am *AppMaster) kill(t *taskRun, n *NodeManager, lost time.Duration, now sim.Time) {
	am.c.engine.Cancel(t.completion)
	t.completion = nil
	am.c.chargeWaste(t, lost)
	t.killProcess()
	n.releaseSlot(now, t)
	t.node = nil
	t.state = statePending
	am.c.rm.RequestContainer(t, t.imageNode, now)
}

// onNodeFailure fences one of this AM's tasks off a node the RM has just
// declared dead. What is lost depends on where the task's lifecycle stood:
//
//   - checkpointing: the frozen image already landed in the (replicated)
//     DFS; the pending dump-drain closure will release the slot and
//     re-request a container, so nothing to do here.
//   - restoring: no progress had resumed yet; requeue losslessly — the
//     image chain survives the node because it lives in the DFS.
//   - running: progress since the attempt started is gone. On a crashed
//     node the container died at the crash instant (failedAt); on a
//     partitioned node the NM fences its containers on losing RM contact,
//     so the kill lands now.
func (am *AppMaster) onNodeFailure(t *taskRun, n *NodeManager, now sim.Time) {
	switch t.state {
	case stateCheckpointing:
		return
	case stateRestoring:
		n.releaseSlot(now, t)
		am.requeueAfterFailure(t, n, 0, now)
	case stateRunning:
		failed := now
		if t.failedAt > 0 {
			failed = t.failedAt
		}
		lost := time.Duration(failed - t.attemptStart)
		if lost < 0 {
			lost = 0
		}
		am.c.engine.Cancel(t.completion)
		t.completion = nil
		// Partition fence: the machine is alive but unreachable, so its NM
		// kills the container rather than risk a double completion the RM
		// can no longer see.
		t.killProcess()
		n.releaseSlot(now, t)
		am.c.slo.AddFailureWaste(am.c.res.ChargeFailureWaste(t.spec, lost))
		am.requeueAfterFailure(t, n, lost, now)
	}
}

// requeueAfterFailure puts a fenced task back in the RM queue, preferring
// its image's home node unless that is the node that just died.
func (am *AppMaster) requeueAfterFailure(t *taskRun, n *NodeManager, lost time.Duration, now sim.Time) {
	t.node = nil
	t.state = statePending
	t.preCopying = false
	t.failedOver = true
	t.failedAt = 0
	am.c.emit(obs.Event{Kind: obs.EvTaskRescheduled, At: now, Task: t.spec.ID, Node: n.id, Priority: t.spec.Priority,
		Unsaved: lost})
	t.trip.Abandon()
	pref := t.imageNode
	if pref == n.id {
		pref = -1
	}
	am.c.rm.RequestContainer(t, pref, now)
}

func (am *AppMaster) startRun(t *taskRun, now sim.Time) {
	t.state = stateRunning
	t.attemptStart = now
	t.failedOver = false
	t.failedAt = 0
	t.completion = am.c.engine.Schedule(t.remaining(), sim.Handler(func(end sim.Time) {
		am.onComplete(t, end)
	}))
}

// onPreempt is the Preemption Manager servicing a ContainerPreemptEvent
// (Fig. 7 steps 2-4).
func (am *AppMaster) onPreempt(t *taskRun, now sim.Time) {
	if t.state != stateRunning {
		return
	}
	n := t.node

	// Advance a live process to the preemption point before anything else,
	// so the dirty-page estimate reads the actual progress. A process
	// nothing has needed yet is built only for a verdict that dumps it.
	target := uint64(t.progressFrac(now) * float64(t.totalSteps))
	if t.process != nil {
		am.advance(t, target)
	}

	cand := t.candidate(now)
	action := core.DecidePreemption(am.c.cfg.Policy, cand, n.Device, now)
	// The Algorithm 1 estimate the verdict weighed: a checkpoint opens a
	// round trip with it so its error against the actual dump + restore is
	// measurable, and the verdict carries it for kills too, to answer "why
	// kill instead of checkpoint".
	est := core.CheckpointOverhead(cand, n.Device, now)
	if action.IsCheckpoint() {
		t.trip.Open(est)
	} else {
		t.trip.Abandon()
	}
	span := am.c.observeDecision(t, n, action, now)
	am.c.emit(obs.Event{Kind: obs.EvDecision, At: now, Task: t.spec.ID, Node: n.id, Priority: t.spec.Priority,
		Name: action.String(), Unsaved: t.unsavedProgress(now), Est: est, Span: span})

	switch {
	case !action.IsCheckpoint():
		// Progress since the last checkpoint is lost.
		am.kill(t, n, t.unsavedProgress(now), now)
	case am.c.cfg.PreCopy:
		am.advance(t, target)
		am.startPreCopyCheckpoint(t, n, action, now)
	default:
		am.advance(t, target)
		prevBanked, unsaved := t.banked, t.unsavedProgress(now)
		if err := am.freezeAndDump(t, n, t.tip(), now); err != nil {
			// The dump failed against the store: degrade to kill-based
			// preemption. The bank rolls back to the last restorable image;
			// this attempt's progress is lost, as under a kill-only policy.
			t.banked = prevBanked
			am.killFallback(t, n, action, unsaved, now)
		}
	}
}

// advance brings t's process to step target, building it first if nothing
// has needed it yet: a fresh process starts at step 0 whenever it is
// built, so building it late changes no byte of it.
func (am *AppMaster) advance(t *taskRun, target uint64) {
	if t.process == nil {
		p, err := am.newProcess(t)
		if err != nil {
			panic(fmt.Sprintf("yarn: create process for %v: %v", t.spec.ID, err))
		}
		t.process = p
	}
	if err := t.advanceTo(target); err != nil {
		panic(fmt.Sprintf("yarn: advance %v: %v", t.spec.ID, err))
	}
}

// freezeAndDump stops t at the step its process has reached, banks that
// step, and dumps it for real into the DFS: a full image, or a delta on
// parent when parent is set. The image becomes the chain's tip at once;
// the write is charged to t's cores as overhead, and when it drains
// through the node's checkpoint queue t vacates n and re-queues there. A
// failed dump leaves t frozen on n with the new bank, for the caller to
// roll back and degrade to a kill.
func (am *AppMaster) freezeAndDump(t *taskRun, n *NodeManager, parent string, now sim.Time) error {
	am.c.engine.Cancel(t.completion)
	t.completion = nil
	t.state = stateCheckpointing
	t.banked = t.bankedAt(t.process.Steps())
	if err := t.process.Suspend(); err != nil {
		panic(fmt.Sprintf("yarn: suspend %v: %v", t.spec.ID, err))
	}
	opts := checkpoint.DumpOpts{Incremental: parent != "", Parent: parent}
	name := t.nextImageName()
	info, err := am.c.ckpt.Dump(t.process, n.store, name, opts)
	if err != nil {
		return err
	}
	t.dropProcess() // the frozen process lives on only as the image
	done := am.bookDump(t, n, name, info.LogicalBytes, opts.Incremental, false, now)
	am.c.engine.At(done, sim.Handler(func(at sim.Time) {
		n.releaseSlot(at, t)
		t.node = nil
		t.state = statePending
		am.maybeCompact(t, n, at)
		am.c.rm.RequestContainer(t, n.id, at)
	}))
	return nil
}

// bookDump books an image that was just written for real: the dump counts
// toward the scrub cadence, the image joins t's chain and the footprint
// accounting, and the write is queued on the node's checkpoint device.
// preCopy says the victim keeps executing through the write window;
// otherwise it is frozen and the window is charged to its cores as
// overhead. It returns when the write drains.
func (am *AppMaster) bookDump(t *taskRun, n *NodeManager, name string, bytes int64, incremental, preCopy bool, now sim.Time) sim.Time {
	am.c.afterDump()
	if incremental {
		am.recordDeltaImage(t, name, bytes)
	} else {
		am.recordFullImage(t, name, bytes)
	}
	t.imageNode = n.id
	am.c.sampleDFSUsage()
	start, done := n.Device.ReserveWrite(now, bytes)
	am.c.recordDump(t, n, name, bytes, incremental, preCopy, now, start, done)
	if !preCopy {
		am.c.chargeOverhead(t, time.Duration(done-now))
	}
	return done
}

// maybeCompact merges a long incremental chain into one full image,
// bounding restore-time chain walks. It runs after the slot is released,
// so only device time (not container time) is consumed.
func (am *AppMaster) maybeCompact(t *taskRun, n *NodeManager, now sim.Time) {
	k := am.c.cfg.CompactChainAfter
	if k <= 0 || len(t.chain) <= k {
		return
	}
	old, dst := t.tip(), t.nextImageName()
	info, err := checkpoint.Compact(n.store, old, dst)
	if err != nil {
		// Best effort: an uncompactable chain still restores link by link.
		return
	}
	am.recordFullImage(t, dst, info.LogicalBytes)
	am.c.res.Compactions++
	if err := checkpoint.RemoveChain(n.store, old); err != nil {
		// Cleanup is best effort: a failed removal leaks the old chain
		// but must not fail the task.
		_ = n.store.Remove(old)
		_ = n.store.Remove(checkpoint.ManifestName(old))
	}
	n.Device.ReserveWrite(now, info.LogicalBytes)
	am.c.sampleDFSUsage()
}

// startPreCopyCheckpoint services a ContainerPreemptEvent with the
// pre-copy optimization: the victim's pages are dumped for real while it
// keeps executing; at the end of the write window it freezes and dumps
// only the pages its continued execution dirtied.
func (am *AppMaster) startPreCopyCheckpoint(t *taskRun, n *NodeManager, action core.PreemptAction, now sim.Time) {
	opts := checkpoint.DumpOpts{Incremental: t.hasImage(), Parent: t.tip()}
	preName := t.nextImageName()
	preSteps := t.process.Steps()
	info, err := am.c.ckpt.PreDump(t.process, n.store, preName, opts)
	if err != nil {
		// The pre-dump failed while the victim still ran: degrade to a
		// kill. Everything since the attempt started is lost.
		am.killFallback(t, n, action, t.unsavedProgress(now), now)
		return
	}
	t.preCopying = true
	preDone := am.bookDump(t, n, preName, info.LogicalBytes, opts.Incremental, true, now)
	am.c.engine.At(preDone, sim.Handler(func(at sim.Time) {
		if t.state != stateRunning || !t.preCopying || t.tip() != preName {
			// Completed during the window, its images reclaimed by
			// onComplete; or fenced off n, and what runs now — perhaps
			// pre-copying again, under a newer image name — is a later
			// attempt this timer must not freeze.
			return
		}
		t.preCopying = false
		// Freeze at the current virtual progress; the steps executed
		// since the pre-dump are exactly the real dirty delta.
		target := uint64(t.progressFrac(at) * float64(t.totalSteps))
		if err := t.advanceTo(target); err != nil {
			panic(fmt.Sprintf("yarn: advance %v during pre-copy: %v", t.spec.ID, err))
		}
		if err := am.freezeAndDump(t, n, preName, at); err != nil {
			// The delta dump failed, but the pre-copy image already
			// landed: roll the bank back to the pre-dump's step boundary
			// and degrade to a kill — only the window's progress is lost.
			preBanked := t.bankedAt(preSteps)
			lost := max(t.banked-preBanked, 0)
			t.banked = preBanked
			am.killFallback(t, n, action, lost, at)
		}
	}))
}

// onComplete finishes a task: its process goes to a finisher, which runs
// the real program to its final step and checksums the result, proving
// transparency end to end; the books close here.
func (am *AppMaster) onComplete(t *taskRun, now sim.Time) {
	am.c.handOver(t)
	am.c.slo.AddUseful(am.c.res.ChargeUseful(t.spec))

	t.state = stateDone
	t.completion = nil
	n := t.node
	n.releaseSlot(now, t)
	t.node = nil
	am.discardImages(t, n)
	am.c.emit(obs.Event{Kind: obs.EvTaskDone, At: now, Task: t.spec.ID, Node: n.id, Priority: t.spec.Priority})

	am.left--
	if am.left == 0 {
		am.c.res.JobsCompleted++
		resp := am.c.res.JobDone(am.job, now)
		am.c.slo.ObserveResponse(am.job.Band().String(), resp)
		if am.c.onJobDone != nil {
			am.c.onJobDone(JobDone{ID: am.job.ID, At: now, ResponseSec: resp, Tasks: len(am.job.Tasks)})
		}
	}
	am.c.rm.schedulePass(now)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumProcess digests the full real memory of a finished process: two
// hardware-assisted CRC-32s streamed over the pages, Castagnoli in the high
// word and IEEE in the low, so no two bit flips cancel.
func checksumProcess(p *proc.Process) uint64 {
	mem := p.Memory()
	var hi, lo uint32
	for i := 0; i < mem.NumPages(); i++ {
		hi = crc32.Update(hi, castagnoli, mem.Page(i))
		lo = crc32.Update(lo, crc32.IEEETable, mem.Page(i))
	}
	return uint64(hi)<<32 | uint64(lo)
}
