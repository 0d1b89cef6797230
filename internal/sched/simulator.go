package sched

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/metrics"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// taskPhase is a task's runtime state.
type taskPhase uint8

const (
	phaseQueued taskPhase = iota + 1
	phaseRunning
	phaseCheckpointing // frozen, dump in flight; resources still held
	phaseRestoring     // resources held on target, image read in flight
	phaseDone
)

// taskRT is the mutable runtime record of one task.
type taskRT struct {
	spec *cluster.TaskSpec
	job  *jobRT

	// remaining is the compute time still owed. It shrinks when progress
	// is banked: at completion, or at checkpoint time.
	remaining time.Duration
	// attemptStart is when the current attempt began useful execution.
	attemptStart sim.Time
	node         *node
	// fixedCost is WriteTime + ReadTime of the full footprint on node's
	// device, set by seat: the part of a chainless checkpoint's cost that
	// does not move while the task stays on the node.
	fixedCost time.Duration

	// ckptNode is where the image chain's blocks are local.
	ckptNode *node
	// imageBytes is the logical size of the stored image chain.
	imageBytes int64

	// queuedAt is when the task (re)entered the pending queue; qprev and
	// qnext link it into its priority's FIFO while it waits there.
	queuedAt     sim.Time
	qprev, qnext *taskRT
	// completion is the pending completion timer while running.
	completion *sim.Timer
	// evictions counts preemptions suffered, for the eviction-threshold
	// policy. rank is the task's place in task-ID order (rankByTaskID), the
	// low half of its eviction key (residentKey); the two share a word so
	// that taskRT stays in its size class.
	evictions int32
	rank      uint32
	// trip pairs the Algorithm 1 estimate of the task's open checkpoint
	// round trip with its measured dump and restore windows.
	trip obs.RoundTrip
	// reservedOn is the node holding a capacity reservation for this
	// waiting task while its preemption victims drain their checkpoint
	// dumps. It prevents backfilling work from stealing the vacated
	// resources and prevents issuing a second round of preemptions for
	// the same waiter.
	reservedOn *node
	// phase, preCopying, failedOver, hasCheckpoint and chained share one
	// word: there is one taskRT per task and at 144 bytes it exactly fills an
	// allocator size class, so a field that opened another word would cost
	// every task 16 bytes (TestTaskRTStaysInItsSizeClass).
	phase taskPhase
	// preCopying marks a running task whose state is being pre-dumped; it
	// is not eligible as a further preemption victim until frozen.
	preCopying bool
	// failedOver marks a task displaced by a node failure; its next
	// placement is attributed as a failure restore or restart.
	failedOver bool
	// hasCheckpoint marks a task with a stored image chain.
	hasCheckpoint bool
	// chained marks a resident whose eviction cost moves with the clock: it
	// has an image chain to extend, incremental dumps are on and eviction is
	// cost-aware. seat sets it and unseat clears it; it cannot be worked out
	// again on the way out, because vacate and finishTask change
	// hasCheckpoint before the task leaves.
	chained bool
}

// unsavedProgress is the compute a kill right now would lose.
func (t *taskRT) unsavedProgress(now sim.Time) time.Duration {
	if t.phase != phaseRunning {
		return 0
	}
	return time.Duration(now - t.attemptStart)
}

// dirtyBytes models soft-dirty growth: right after a restore roughly the
// dirtyFloor fraction is dirty, growing linearly with execution toward the
// full footprint.
func (t *taskRT) dirtyBytes(now sim.Time) int64 {
	frac := dirtyFloor + (1-dirtyFloor)*float64(t.unsavedProgress(now))/float64(t.spec.Duration)
	if frac > 1 {
		frac = 1
	}
	return int64(frac * float64(t.spec.MemFootprint))
}

func (t *taskRT) candidate(now sim.Time) core.Candidate {
	return core.Candidate{
		Task:            t.spec.ID,
		Priority:        t.spec.Priority,
		Demand:          t.spec.Demand,
		UnsavedProgress: t.unsavedProgress(now),
		FootprintBytes:  t.spec.MemFootprint,
		DirtyBytes:      t.dirtyBytes(now),
		HasCheckpoint:   t.hasCheckpoint,
	}
}

// jobRT tracks job-level aggregation.
type jobRT struct {
	spec *cluster.JobSpec
	// sim is the simulator running the job: the one pointer through which a
	// task's typed events (submitEvent, completionEvent) reach it.
	sim *Simulator
	// tenant is the job's accounting tenant: its User, or "job-<id>" for an
	// anonymous job, which is its own tenant.
	tenant    *tenant
	remaining int
	finish    sim.Time
}

func newJobRT(spec *cluster.JobSpec, s *Simulator) *jobRT {
	user := spec.User
	if user == "" {
		user = fmt.Sprintf("job-%d", spec.ID)
	}
	tn := s.tenants[user]
	if tn == nil {
		tn = &tenant{name: user}
		s.tenants[user] = tn
	}
	return &jobRT{spec: spec, sim: s, tenant: tn, remaining: len(spec.Tasks)}
}

// tenant is one accounting tenant's books for the fair-share discipline
// and for Result.JobResponseByUser, interned by name (Simulator.tenants)
// when its first job loads, so that booking and reading a share or a
// response never hash the name.
type tenant struct {
	name  string
	usage cluster.Resources
	// live marks a tenant the fair-share target counts (equalShare): an
	// allocation sets it, and a release clears it when usage is zero again.
	live bool
	// resp books the response times of the tenant's finished jobs.
	resp metrics.Tally
}

// submitEvent and completionEvent are a task's record viewed as the two
// events that fire once per task or once per run: its submission, and the
// end of its current attempt. The engine queues the record itself, so
// neither costs a closure.
type (
	submitEvent     taskRT
	completionEvent taskRT
)

func (e *submitEvent) Fire(now sim.Time) {
	t := (*taskRT)(e)
	t.job.sim.enqueue(t, now)
	t.job.sim.requestSchedule(now)
}

func (e *completionEvent) Fire(end sim.Time) {
	t := (*taskRT)(e)
	t.job.sim.finishTask(t, end)
}

// node is one simulated machine: its books (core.Ledger) plus what the
// simulator indexes about it.
type node struct {
	core.Ledger
	id cluster.NodeID
	// running holds every task occupying the node — running, checkpointing
	// or restoring — in eviction order (resident.evictsBefore), so a victim
	// scan takes a covering prefix and stops.
	running []resident
	// chained counts the chained residents per priority: a level that holds
	// one has no static order and is ranked at scan time.
	chained [int(cluster.MaxPriority) + 1]uint16
	// down marks a machine taken out by a seeded NodeFailure; it offers
	// no capacity until (and unless) its recovery event fires.
	down bool

	// idx is the cluster-wide first-fit index; every mutation of Used,
	// Reserved, or down must publish the new availability via touch.
	idx *nodeIndex
	// byPrio counts phaseRunning tasks per priority and prioMask keeps a
	// bit set per non-empty priority, so victim scans can reject a node
	// without iterating its running set.
	byPrio   [int(cluster.MaxPriority) + 1]uint16
	prioMask uint16
}

// touch publishes the node's generic availability — max(0, free-reserved)
// per dimension, zero while down — into the first-fit index. This equals
// availableFor(t) for every task without a reservation on this node,
// which is what pickNode's indexed query relies on.
func (n *node) touch() {
	if n.idx == nil {
		return
	}
	var avail cluster.Resources
	if !n.down {
		avail = n.AvailableFor(cluster.Resources{})
	}
	n.idx.set(int(n.id), avail.CPUMillis, avail.MemBytes)
}

// byTaskID is the deterministic task order: job, then index.
func byTaskID(a, b *taskRT) int {
	return cmp.Or(cmp.Compare(a.spec.ID.Job, b.spec.ID.Job), cmp.Compare(a.spec.ID.Index, b.spec.ID.Index))
}

// rankByTaskID gives every record of a run's slab its rank: the number of
// distinct task IDs in the slab that sort before its own, so that comparing
// two records' ranks is byTaskID, equal IDs included. A job's records are
// consecutive in the slab, so it sorts the runs of one job ID, and sorts
// records only where a job ID recurs or its indices do not strictly ascend.
func rankByTaskID(tasks []taskRT) {
	n := 0
	for i := range tasks {
		if i == 0 || tasks[i].spec.ID.Job != tasks[i-1].spec.ID.Job {
			n++
		}
	}
	runs := make([][]taskRT, 0, n)
	for lo, i := 0, 1; i <= len(tasks); i++ {
		if i == len(tasks) || tasks[i].spec.ID.Job != tasks[lo].spec.ID.Job {
			runs = append(runs, tasks[lo:i])
			lo = i
		}
	}
	slices.SortFunc(runs, func(a, b []taskRT) int { return cmp.Compare(a[0].spec.ID.Job, b[0].spec.ID.Job) })
	var (
		rank  uint32
		group []*taskRT
	)
	for g, h := 0, 0; g < len(runs); g = h {
		for h = g + 1; h < len(runs) && runs[h][0].spec.ID.Job == runs[g][0].spec.ID.Job; h++ {
		}
		if h == g+1 && indicesAscend(runs[g]) {
			for i := range runs[g] {
				runs[g][i].rank = rank
				rank++
			}
			continue
		}
		group = group[:0]
		for _, r := range runs[g:h] {
			for i := range r {
				group = append(group, &r[i])
			}
		}
		slices.SortFunc(group, byTaskID)
		for i, t := range group {
			if i > 0 && t.spec.ID.Index != group[i-1].spec.ID.Index {
				rank++
			}
			t.rank = rank
		}
		rank++
	}
}

// indicesAscend reports whether the task indices of tasks strictly ascend.
func indicesAscend(tasks []taskRT) bool {
	for i := 1; i < len(tasks); i++ {
		if tasks[i-1].spec.ID.Index >= tasks[i].spec.ID.Index {
			return false
		}
	}
	return true
}

// resident is one entry of a node's running set: a task and its eviction
// key, inline, so that ordering the set loads no task record.
type resident struct {
	t   *taskRT
	key uint64
}

// residentKey is t's eviction key: its priority in the high word and its
// rank in the low one, so that key order is priority, then task ID.
func residentKey(t *taskRT) uint64 {
	return levelKey(t.spec.Priority) | uint64(t.rank)
}

// levelKey is the least eviction key of priority p, and level the priority
// of a key.
func levelKey(p cluster.Priority) uint64 { return uint64(p) << 32 }

func level(key uint64) cluster.Priority { return cluster.Priority(key >> 32) }

// evictsBefore is the order a victim scan takes a node's residents in:
// priority ascending, then — under cost-aware eviction (byCost) — fixedCost
// ascending, then task ID. For a chainless resident the scan's cost is
// fixedCost plus the node's queue delay, the same for every resident, so
// this is the scan's (priority, cost, task ID) order without pricing
// anyone. A resident's key and fixedCost are fixed from seat to unseat, and
// only a priority tie under cost-aware eviction loads the records.
func (r resident) evictsBefore(e resident, byCost bool) bool {
	if byCost && level(r.key) == level(e.key) && r.t.fixedCost != e.t.fixedCost {
		return r.t.fixedCost < e.t.fixedCost
	}
	return r.key < e.key
}

// addRunning inserts t at its eviction-order position, ahead of any
// resident it ties with.
func (n *node) addRunning(t *taskRT, byCost bool) {
	e := resident{t, residentKey(t)}
	run := n.running
	lo, hi := 0, len(run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if run[m].evictsBefore(e, byCost) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	n.running = slices.Insert(run, lo, e)
}

// removeRunning drops t from the set; an absent t is a no-op.
func (n *node) removeRunning(t *taskRT) {
	if i := slices.IndexFunc(n.running, func(e resident) bool { return e.t == t }); i >= 0 {
		n.running = slices.Delete(n.running, i, i+1)
	}
}

// availableFor is the capacity task t may claim on n, the ledger's rule
// with t's reservation on n, if it holds one, as its own.
func (n *node) availableFor(t *taskRT) cluster.Resources {
	if n.down {
		return cluster.Resources{}
	}
	var own cluster.Resources
	if t.reservedOn == n {
		own = t.spec.Demand
	}
	return n.AvailableFor(own)
}

// pendingQueue holds the waiting tasks in the order a pass examines them:
// priority descending, then queue entry ascending, then enqueue order. It
// is one intrusive FIFO per priority, linked through taskRT.qprev/qnext.
// enqueue stamps queuedAt with the clock of the handler that calls it and
// the engine never runs backwards, so within one priority arrival order is
// key order: a push is an append, and a waiter a pass cannot place stays
// where it is without being touched.
type pendingQueue struct {
	head, tail [int(cluster.MaxPriority) + 1]*taskRT
	// floor[p] is the componentwise minimum demand pushed into priority p's
	// list since it was last empty: a lower bound on every demand waiting
	// there, which a remove leaves standing.
	floor [int(cluster.MaxPriority) + 1]cluster.Resources
	// mask has bit p set while priority p's list is non-empty.
	mask uint16
	n    int
}

// GIVEN the FIFO of t's priority, every waiter in it queued no later than
// its tail,
// WHEN t is pushed,
// THEN t becomes the tail; a t queued before the tail would have to go
// somewhere in the middle, which this queue cannot do, so it panics rather
// than examine waiters out of order from then on.
func (q *pendingQueue) push(t *taskRT) {
	p, d := t.spec.Priority, t.spec.Demand
	if tail := q.tail[p]; tail != nil {
		if t.queuedAt < tail.queuedAt {
			panic(fmt.Sprintf("sched: task %v queued at %v behind task %v queued at %v", t.spec.ID, t.queuedAt, tail.spec.ID, tail.queuedAt))
		}
		tail.qnext, t.qprev = t, tail
		f := &q.floor[p]
		f.CPUMillis, f.MemBytes = min(f.CPUMillis, d.CPUMillis), min(f.MemBytes, d.MemBytes)
	} else {
		q.head[p] = t
		q.mask |= 1 << uint(p)
		q.floor[p] = d
	}
	q.tail[p] = t
	q.n++
}

// remove unlinks a queued t from wherever it stands in its list.
func (q *pendingQueue) remove(t *taskRT) {
	p := t.spec.Priority
	if t.qprev != nil {
		t.qprev.qnext = t.qnext
	} else {
		q.head[p] = t.qnext
	}
	if t.qnext != nil {
		t.qnext.qprev = t.qprev
	} else {
		q.tail[p] = t.qprev
	}
	if q.head[p] == nil {
		q.mask &^= 1 << uint(p)
		q.floor[p] = cluster.Resources{}
	}
	t.qprev, t.qnext = nil, nil
	q.n--
}

// floorUpTo is a lower bound on the demand of every waiter at priority p or
// below: the componentwise minimum of those levels' floors.
func (q *pendingQueue) floorUpTo(p cluster.Priority) cluster.Resources {
	f := cluster.Resources{CPUMillis: math.MaxInt64, MemBytes: math.MaxInt64}
	for m := q.mask & (2<<uint(p) - 1); m != 0; m &= m - 1 {
		l := q.floor[bits.TrailingZeros16(m)]
		f.CPUMillis, f.MemBytes = min(f.CPUMillis, l.CPUMillis), min(f.MemBytes, l.MemBytes)
	}
	return f
}

// window appends the first limit waiters in queue order to dst without
// removing them.
func (q *pendingQueue) window(dst []*taskRT, limit int) []*taskRT {
	for m := q.mask; m != 0 && len(dst) < limit; {
		p := bits.Len16(m) - 1
		m &^= 1 << uint(p)
		for t := q.head[p]; t != nil && len(dst) < limit; t = t.qnext {
			dst = append(dst, t)
		}
	}
	return dst
}

// Simulator executes one run.
type Simulator struct {
	cfg Config
	// events reports each lifecycle edge to Config.Observer; without one
	// Emit is a no-op.
	events obs.Emitter
	engine *sim.Engine
	nodes  []*node
	// nodeIdx answers pickNode's first-fit query in O(log nodes).
	nodeIdx *nodeIndex
	queue   pendingQueue
	// costAware is cost-aware eviction (Section 5.2.2): the adaptive policy
	// without the naive-victim ablation.
	costAware bool
	// The scratch buffers below are reused across victim scans and
	// scheduling passes so the hot loop stays allocation-free. walkScratch
	// and levelScratch describe the node being scanned — every node visit of
	// chooseVictims overwrites the first, every ranked level the second;
	// victimScratch holds the scan's incumbent victim set, which only
	// chooseVictims writes, so it outlives later scans of other nodes and
	// scoreCandidates' rescan under an observer, which uses candScratch.
	candScratch   []*taskRT
	walkScratch   []*taskRT
	levelScratch  []pricedTask
	victimScratch []*taskRT
	batchScratch  []*taskRT
	failedScratch []cluster.Resources

	res *Result
	// schedulePending guards against redundant trySchedule passes at one
	// instant; runPass is the one event handler every trigger schedules.
	schedulePending bool
	runPass         sim.Handler
	// inFlight counts tasks holding node resources; it feeds the sampler
	// (sample.go) and Result.PeakInFlight.
	inFlight int
	// runningByPrio counts phaseRunning tasks per priority so preemption
	// feasibility is an O(12) check instead of a cluster scan.
	runningByPrio [int(cluster.MaxPriority) + 1]int
	// tenants interns the tenants' books by name, and liveTenants counts
	// the live ones; bandUsage tracks allocated resources per priority
	// band. They serve the fair-share and capacity disciplines.
	tenants     map[string]*tenant
	liveTenants int
	bandUsage   [cluster.NumBands]cluster.Resources
	totalCap    cluster.Resources
}

// tenantOf returns the accounting tenant of a task.
func tenantOf(t *taskRT) *tenant { return t.job.tenant }

// account books an allocation (+1) or release (-1) of t's demand against
// its tenant and band.
func (s *Simulator) account(t *taskRT, sign int) {
	tn, band, d := tenantOf(t), cluster.BandOf(t.spec.Priority), t.spec.Demand
	if sign < 0 {
		d = cluster.Resources{}.Sub(d)
	}
	tn.usage = tn.usage.Add(d)
	s.bandUsage[band] = s.bandUsage[band].Add(d)
	if tn.live {
		s.liveTenants--
	}
	if tn.live = sign > 0 || !tn.usage.IsZero(); tn.live {
		s.liveTenants++
	}
}

// shareOf is a tenant's dominant share of cluster capacity.
func (s *Simulator) shareOf(tn *tenant) float64 {
	return tn.usage.DominantShare(s.totalCap)
}

// bandShare is a band's dominant share of cluster capacity.
func (s *Simulator) bandShare(b cluster.Band) float64 {
	return s.bandUsage[b].DominantShare(s.totalCap)
}

// equalShare is the per-user fair share target: capacity divided across
// users with live allocations plus the prospective user.
func (s *Simulator) equalShare(prospective *tenant) float64 {
	n := s.liveTenants
	if !prospective.live {
		n++
	}
	if n == 0 {
		n = 1
	}
	return 1 / float64(n)
}

// canPreempt applies the active discipline's victim-eligibility rule: may
// waiting task t evict running task v?
//
// The fair-share and capacity rules are deliberately hysteretic: a
// transfer must not invert the relation that justified it, otherwise two
// users (or bands) on either side of the threshold could kill each other's
// tasks in an endless same-instant cycle. Fair share therefore requires
// the victim's user to remain at or above the claimant's share after the
// transfer, and capacity requires the victim's band to remain at or above
// its guarantee after the loss.
func (s *Simulator) canPreempt(t, v *taskRT) bool {
	if s.cfg.MaxEvictionsPerTask > 0 && int(v.evictions) >= s.cfg.MaxEvictionsPerTask {
		return false
	}
	switch s.cfg.Discipline {
	case DisciplineFairShare:
		vs := s.shareOf(tenantOf(v))
		ts := s.shareOf(tenantOf(t))
		cv := v.spec.Demand.DominantShare(s.totalCap)
		ct := t.spec.Demand.DominantShare(s.totalCap)
		return vs > s.equalShare(tenantOf(t)) && vs-cv >= ts+ct
	case DisciplineCapacity:
		tb := cluster.BandOf(t.spec.Priority)
		vb := cluster.BandOf(v.spec.Priority)
		if tb == vb {
			return false
		}
		cv := v.spec.Demand.DominantShare(s.totalCap)
		return s.bandShare(tb) < DefaultCapacityGuarantees[tb] &&
			s.bandShare(vb)-cv >= DefaultCapacityGuarantees[vb]
	default:
		return v.spec.Priority < t.spec.Priority
	}
}

// markRunning and unmarkRunning bracket a task's phaseRunning tenure,
// keeping the global and per-node running-priority tallies in sync.
// t.node must still be set when unmarking.
func (s *Simulator) markRunning(t *taskRT) {
	s.runningByPrio[t.spec.Priority]++
	n := t.node
	n.byPrio[t.spec.Priority]++
	n.prioMask |= 1 << uint(t.spec.Priority)
}

func (s *Simulator) unmarkRunning(t *taskRT) {
	s.runningByPrio[t.spec.Priority]--
	n := t.node
	n.byPrio[t.spec.Priority]--
	if n.byPrio[t.spec.Priority] == 0 {
		n.prioMask &^= 1 << uint(t.spec.Priority)
	}
}

// anyRunningBelow reports whether some task with priority strictly below p
// is currently running.
func (s *Simulator) anyRunningBelow(p cluster.Priority) bool {
	for i := cluster.Priority(0); i < p; i++ {
		if s.runningByPrio[i] > 0 {
			return true
		}
	}
	return false
}

// Run simulates jobs under cfg and returns aggregated results.
func Run(cfg Config, jobs []cluster.JobSpec) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s, err := newSimulator(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := s.load(jobs); err != nil {
		return nil, err
	}
	s.startSampler()
	return s.runToEnd(), nil
}

// load validates jobs and schedules every task's submission and every node
// failure. A run's task records are one slab, which it returns, and each
// submission is queued as its record: loading allocates a record per job,
// not per task.
func (s *Simulator) load(jobs []cluster.JobSpec) ([]taskRT, error) {
	n := 0
	for i := range jobs {
		n += len(jobs[i].Tasks)
	}
	// tasks never grows past its capacity, so a record's address, which its
	// events and the queues hold, is fixed.
	tasks := make([]taskRT, 0, n)
	for i := range jobs {
		spec := &jobs[i]
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
		j := newJobRT(spec, s)
		for k := range spec.Tasks {
			ts := &spec.Tasks[k]
			if !ts.Demand.Fits(s.cfg.NodeCapacity) {
				return nil, fmt.Errorf("sched: task %v demand %v exceeds node capacity %v", ts.ID, ts.Demand, s.cfg.NodeCapacity)
			}
			tasks = append(tasks, taskRT{spec: ts, job: j, remaining: ts.Duration})
			s.engine.At(ts.Submit, (*submitEvent)(&tasks[len(tasks)-1]))
		}
	}
	rankByTaskID(tasks)
	for _, f := range s.cfg.NodeFailures {
		s.engine.At(sim.Time(f.At), sim.Handler(func(now sim.Time) {
			s.failNode(f, now)
		}))
	}
	return tasks, nil
}

// runToEnd drives the loaded engine until no event is left and closes the
// books into the Result.
func (s *Simulator) runToEnd() *Result {
	end := s.engine.Run()
	s.res.Makespan = time.Duration(end)
	s.res.EventsFired = s.engine.Fired()
	for _, n := range s.nodes {
		s.res.CloseNode(&n.Ledger, end)
	}
	for _, tn := range s.tenants {
		if tn.resp.N > 0 {
			s.res.JobResponseByUser[tn.name] = tn.resp.Mean()
		}
	}
	return s.res
}

// newSimulator builds the cluster — nodes, devices, first-fit index — for
// a validated, defaulted cfg, with no work loaded.
func newSimulator(cfg Config) (*Simulator, error) {
	s := &Simulator{
		cfg:       cfg,
		events:    obs.NewEmitter(cfg.Observer, "sched"),
		engine:    sim.NewEngine(),
		costAware: cfg.Policy == core.PolicyAdaptive && !cfg.NaiveVictimSelection,
		tenants:   make(map[string]*tenant),
		totalCap:  cfg.NodeCapacity.Scale(float64(cfg.Nodes)),
	}
	s.runPass = func(now sim.Time) {
		s.schedulePending = false
		s.trySchedule(now)
	}

	for i := 0; i < cfg.Nodes; i++ {
		l, err := cfg.NewLedger(cfg.NodeCapacity)
		if err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
		s.nodes = append(s.nodes, &node{Ledger: l, id: cluster.NodeID(i)})
	}
	s.res = &Result{
		Outcome:           core.NewOutcome(cfg.Policy, s.nodes[0].Device.Label(), cfg.Nodes),
		JobResponseByUser: make(map[string]float64),
	}
	s.nodeIdx = newNodeIndex(cfg.Nodes)
	for _, n := range s.nodes {
		n.idx = s.nodeIdx
		n.touch()
	}
	return s, nil
}

func (s *Simulator) enqueue(t *taskRT, now sim.Time) {
	t.phase = phaseQueued
	t.queuedAt = now
	s.queue.push(t)
}

// requestSchedule coalesces multiple schedule triggers at one instant into
// a single pass.
func (s *Simulator) requestSchedule(now sim.Time) {
	if s.schedulePending {
		return
	}
	s.schedulePending = true
	s.engine.At(now, s.runPass)
}

// scanBatch snapshots the first scanLimit tasks of the pending queue, which
// stay queued, and orders them by the active discipline: most-underserved
// user first for fair share, largest band deficit first for capacity. The
// batch is fixed here, before the pass places anything: a task the pass
// itself sends back to the queue (a kill victim, possibly one the same pass
// placed a moment earlier) waits for the next pass.
func (s *Simulator) scanBatch() []*taskRT {
	batch := s.queue.window(s.batchScratch[:0], scanLimit)
	s.batchScratch = batch
	switch s.cfg.Discipline {
	case DisciplineFairShare:
		sort.SliceStable(batch, func(i, j int) bool {
			si, sj := s.shareOf(tenantOf(batch[i])), s.shareOf(tenantOf(batch[j]))
			return si < sj
		})
	case DisciplineCapacity:
		deficit := func(t *taskRT) float64 {
			b := cluster.BandOf(t.spec.Priority)
			return DefaultCapacityGuarantees[b] - s.bandShare(b)
		}
		sort.SliceStable(batch, func(i, j int) bool {
			return deficit(batch[i]) > deficit(batch[j])
		})
	}
	return batch
}

// trySchedule runs one scheduling pass: it examines up to scanLimit waiters
// in discipline order, placing what fits and preempting for what does not
// (policy permitting). batchScratch is left holding the waiters it examined.
func (s *Simulator) trySchedule(now sim.Time) {
	// failed holds demands that could not be placed this pass; any later
	// task dominating one of them cannot place either, so its node scan is
	// skipped. Capped small: membership tests must stay cheaper than the
	// scans they avoid.
	failed := s.failedScratch[:0]
	if s.cfg.Discipline == DisciplinePriority {
		failed = s.walkQueue(failed, now)
	} else {
		// Fair share and capacity order the batch by share, not by queue
		// position, so they need it whole before the first visit: they
		// snapshot it, and every waiter in it is visited.
		for _, t := range s.scanBatch() {
			failed, _ = s.visit(t, failed, now)
		}
	}
	s.failedScratch = failed[:0]
}

// walkQueue is the priority discipline's pass: it walks the queue in place,
// in queue order, and stops early once the rest of the pass is provably
// idle (passIdle). It keeps scanBatch's snapshot rule by recording every
// level's tail before the first visit and walking each level only from its
// head to that tail. A kill victim is strictly lower priority than the
// waiter that evicts it, so it joins a level the pass has not walked yet —
// behind the recorded tail, or in a level that was empty at the start — and
// this pass does not see it. Placement unlinks only the waiter in hand, so
// the levels still to walk hold exactly what they held at the start.
func (s *Simulator) walkQueue(failed []cluster.Resources, now sim.Time) []cluster.Resources {
	examined := s.batchScratch[:0]
	tails, mask := s.queue.tail, s.queue.mask
pass:
	for mask != 0 && len(examined) < scanLimit {
		p := bits.Len16(mask) - 1
		mask &^= 1 << uint(p)
		for t := s.queue.head[p]; len(examined) < scanLimit; {
			next, last := t.qnext, t == tails[p]
			examined = append(examined, t)
			var placed bool
			if failed, placed = s.visit(t, failed, now); !placed && s.passIdle(t, failed) {
				break pass
			}
			if last {
				break
			}
			t = next
		}
	}
	s.batchScratch = examined
	return failed
}

// passIdle reports whether a priority pass may stop after visiting t, which
// it did not place: every visit left would be a no-op. Every later waiter u
// has priority at most t's, so nothing runs below u's priority either (or
// the policy never preempts), and preemptFor is not tried for u. u's demand
// is at least floorUpTo(t's priority), which dominates a demand in failed,
// so place is skipped for u — a reservation holder included, as it is when
// the pass visits it. A visit that neither places nor preempts writes
// nothing: no event, no counter, no link. By induction the rest of the
// pass would change no state.
func (s *Simulator) passIdle(t *taskRT, failed []cluster.Resources) bool {
	if s.cfg.Policy != core.PolicyWait && s.anyRunningBelow(t.spec.Priority) {
		return false
	}
	return dominatesAny(s.queue.floorUpTo(t.spec.Priority), failed)
}

// visit examines one waiter: it places t if t fits, and otherwise preempts
// for it when the discipline and policy allow. It returns failed, extended
// by t's demand if t did not fit, and whether t was placed.
func (s *Simulator) visit(t *taskRT, failed []cluster.Resources, now sim.Time) ([]cluster.Resources, bool) {
	if !dominatesAny(t.spec.Demand, failed) {
		if s.place(t, now) {
			// Placement may have consumed capacity a previously failed
			// demand was measured against, but a successful placement
			// never invalidates a negative result, so `failed` stands.
			return failed, true
		}
		if len(failed) < 8 {
			failed = append(failed, t.spec.Demand)
		}
	}
	// A task with a standing reservation is already waiting for its
	// victims' dumps to drain; do not preempt more work for it. Under
	// priority scheduling the priority histogram rejects hopeless
	// preemption attempts without scanning nodes.
	feasible := s.cfg.Discipline != DisciplinePriority || s.anyRunningBelow(t.spec.Priority)
	if t.reservedOn == nil && s.cfg.Policy != core.PolicyWait &&
		feasible && s.preemptFor(t, now) {
		// Kill-based vacating frees resources synchronously; retry at
		// once so backfilling tasks cannot steal them.
		return failed, s.place(t, now)
	}
	return failed, false
}

// dominatesAny reports whether d is at least as large as some demand in
// failed in both dimensions.
func dominatesAny(d cluster.Resources, failed []cluster.Resources) bool {
	for _, f := range failed {
		if f.CPUMillis <= d.CPUMillis && f.MemBytes <= d.MemBytes {
			return true
		}
	}
	return false
}

// reserve parks t's demand on n until t is placed.
func (s *Simulator) reserve(t *taskRT, n *node) {
	t.reservedOn = n
	n.Reserve(t.spec.Demand)
	n.touch()
}

// unreserve drops t's reservation, if any.
func (s *Simulator) unreserve(t *taskRT) {
	n := t.reservedOn
	if n == nil {
		return
	}
	n.Unreserve(t.spec.Demand)
	t.reservedOn = nil
	n.touch()
}

// place starts the queued task t on a node with free capacity, restoring
// from its checkpoint when one exists. It reports whether placement
// happened. A placed t leaves the pending queue here and not in a sweep at
// the end of the pass: a later kill in the same pass may enqueue it again.
func (s *Simulator) place(t *taskRT, now sim.Time) bool {
	target := s.pickNode(t, now)
	if target == nil {
		return false
	}
	s.queue.remove(t)
	s.unreserve(t)
	s.seat(t, target, now)
	s.res.Decisions++
	// Outcome.Count ignores a placement, so only an observer needs it.
	if s.events.On() {
		s.emit(obs.Event{Kind: obs.EvPlace, At: now, Task: t.spec.ID, Node: int(target.id), Priority: t.spec.Priority})
	}

	if t.hasCheckpoint {
		s.startRestore(t, target, now)
		if t.failedOver {
			s.res.FailureRestores++
			t.failedOver = false
		}
		return true
	}
	if t.failedOver {
		s.res.FailureRestarts++
		t.failedOver = false
	}
	s.startRun(t, now)
	return true
}

// seat puts t on n — the node's books take its demand, its running set
// takes t, and t counts as in flight — and prices t's chainless checkpoint
// on n's device for the victim scans that may meet it there. The price is
// part of t's key in the running set, so it is set first.
func (s *Simulator) seat(t *taskRT, n *node, now sim.Time) {
	s.inFlight++
	s.res.PeakInFlight = max(s.res.PeakInFlight, s.inFlight)
	n.Alloc(now, t.spec.Demand)
	n.touch()
	s.account(t, +1)
	t.node = n
	t.fixedCost = n.Device.WriteTime(t.spec.MemFootprint) + n.Device.ReadTime(t.spec.MemFootprint)
	t.chained = s.costAware && t.hasCheckpoint && !s.cfg.DisableIncremental
	if t.chained {
		n.chained[t.spec.Priority]++
	}
	n.addRunning(t, s.costAware)
}

// unseat undoes seat: the resources return and the running set drops t.
// The caller has reported why t left: a completion, a kill verdict, a
// vacate or a fence.
func (s *Simulator) unseat(t *taskRT, now sim.Time) {
	s.inFlight--
	n := t.node
	n.Release(now, t.spec.Demand)
	n.touch()
	s.account(t, -1)
	n.removeRunning(t)
	if t.chained {
		n.chained[t.spec.Priority]--
		t.chained = false
	}
	t.node = nil
}

// pickNode chooses a node with capacity for t. Checkpointed tasks prefer
// their image's home node when Algorithm 2 says local is cheaper
// (adaptive policy only).
func (s *Simulator) pickNode(t *taskRT, now sim.Time) *node {
	// The index answers the first-fit query over generic availability; the
	// one node where a task sees more than that — the node holding its own
	// preemption reservation — is checked directly, and the lower ID wins,
	// exactly as the linear availableFor scan would have resolved it.
	var firstFit *node
	d := t.spec.Demand
	if i := s.nodeIdx.firstFit(d.CPUMillis, d.MemBytes); i >= 0 {
		firstFit = s.nodes[i]
	}
	if r := t.reservedOn; r != nil && (firstFit == nil || r.id < firstFit.id) && d.Fits(r.availableFor(t)) {
		firstFit = r
	}
	if firstFit == nil || !t.hasCheckpoint || s.cfg.Policy != core.PolicyAdaptive ||
		s.cfg.DisableRestorePlacement {
		return firstFit
	}
	local := t.ckptNode
	if local == nil || !t.spec.Demand.Fits(local.availableFor(t)) {
		return firstFit
	}
	if firstFit == local {
		return local
	}
	rc := core.RestoreCosts{
		FootprintBytes: t.spec.MemFootprint,
		LocalDev:       local.Device,
		RemoteDev:      firstFit.Device,
		NetBandwidth:   core.DefaultNetBandwidth,
	}
	if core.DecideRestore(rc, now) == core.RestoreLocal {
		return local
	}
	return firstFit
}

// startRun begins (or resumes) useful execution at now.
func (s *Simulator) startRun(t *taskRT, now sim.Time) {
	t.phase = phaseRunning
	s.markRunning(t)
	t.attemptStart = now
	t.completion = s.engine.Schedule(t.remaining, (*completionEvent)(t))
}

// startRestore charges the image read (plus network for remote) before the
// task resumes execution.
func (s *Simulator) startRestore(t *taskRT, target *node, now sim.Time) {
	t.phase = phaseRestoring
	remote := target != t.ckptNode
	var transfer time.Duration
	if remote {
		transfer = time.Duration(float64(t.spec.MemFootprint) / core.DefaultNetBandwidth * float64(time.Second))
	}
	var done sim.Time
	if !remote && target.Device.Kind() == storage.NVRAM {
		// Byte-addressable local resume: pages are remapped from
		// persistent memory, not read back through a file system.
		_, done = target.Device.Reserve(now, target.Device.ReadTime(0))
	} else {
		_, done = target.Device.ReserveRead(now+transfer, t.spec.MemFootprint)
	}
	overhead := time.Duration(done - now)
	var flags uint32
	if remote {
		flags |= obs.FlagRemote
	}
	if t.failedOver {
		flags |= obs.FlagFailure
	}
	est, actual := t.trip.Close(overhead)
	s.emit(obs.Event{Kind: obs.EvRestore, At: now, Task: t.spec.ID, Node: int(target.id), Priority: t.spec.Priority,
		Est: est, Actual: actual, Bytes: t.spec.MemFootprint, Flags: flags})
	s.res.ChargeOverhead(t.spec, overhead)
	s.engine.At(done, sim.Handler(func(at sim.Time) {
		// The target may have failed during the read; the fence already
		// requeued t, and this resume must not resurrect it there.
		if t.phase != phaseRestoring || t.node != target {
			return
		}
		s.startRun(t, at)
	}))
}

// finishTask completes t, releasing resources and recording metrics.
func (s *Simulator) finishTask(t *taskRT, now sim.Time) {
	s.res.ChargeUseful(t.spec)
	s.unmarkRunning(t)
	t.phase = phaseDone
	t.completion = nil
	s.emit(obs.Event{Kind: obs.EvTaskDone, At: now, Task: t.spec.ID, Node: int(t.node.id), Priority: t.spec.Priority})
	s.removeImages(t)
	s.unseat(t, now)

	t.job.remaining--
	if t.job.remaining == 0 {
		t.job.finish = now
		tenantOf(t).resp.Add(s.res.JobDone(t.job.spec, now))
	}
	s.requestSchedule(now)
}

// preemptFor vacates lower-priority work for t. It reports whether any
// preemption was initiated.
func (s *Simulator) preemptFor(t *taskRT, now sim.Time) bool {
	target, victims := s.chooseVictims(t, now)
	if target == nil {
		return false
	}
	if s.events.On() {
		s.emit(obs.Event{Kind: obs.EvSelection, At: now, Task: t.spec.ID, Node: int(target.id), Priority: t.spec.Priority,
			Candidates: s.scoreCandidates(target, t, victims, now)})
	}
	s.reserve(t, target)
	for _, v := range victims {
		s.preemptTask(v, now)
	}
	return true
}

// chooseVictims finds a node where evicting discipline-eligible tasks
// makes room for t, returning the victim set in eviction order. Under
// cost-aware eviction every eligible node is scored and the node and
// victims with the lowest summed checkpoint cost win, the first such node
// on a tie; otherwise costs are zero, which leaves a priority-ordered
// victim set, and the first feasible node is taken, mirroring stock YARN.
// The returned slice aliases victimScratch and is valid until the next
// call.
func (s *Simulator) chooseVictims(t *taskRT, now sim.Time) (*node, []*taskRT) {
	var (
		bestNode *node
		bestCost = time.Duration(math.MaxInt64)
		best     = s.victimScratch[:0]
		walk     = s.walkScratch[:0]
		w        victimWalk
	)
	// Under the priority discipline a node can only yield victims if some
	// task with priority strictly below t's is running there; the per-node
	// priority mask answers that in one AND, skipping the running-set walk
	// on (typically) almost every node.
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
		// need may stay negative in a dimension that is already free: the
		// walk only asks whether what it frees covers it.
		w.reset(t.spec.Demand.Sub(n.availableFor(t)), walk[:0], bestCost)
		s.walkNode(&w, n, t, maskable, now)
		walk = w.victims
		if !w.ok() {
			continue
		}
		bestNode, bestCost = n, w.cost
		best, walk = walk, best
		if !s.costAware {
			break
		}
	}
	s.victimScratch, s.walkScratch = best[:0], walk[:0]
	return bestNode, best
}

// victimWalk takes a node's eligible residents, offered in eviction order,
// until what they free covers need.
type victimWalk struct {
	need, freed cluster.Resources
	victims     []*taskRT
	cost        time.Duration
	// bound is the incumbent's cost: the walk looks for a strictly cheaper
	// victim set and stops once its victims cost as much.
	bound time.Duration
	// eligible records that the node has an eligible resident at all: a
	// node with none yields no victim set, not even an empty one.
	eligible bool
}

// reset readies w for the next node, in place: a fresh literal would be
// copied into w on every node a scan visits.
func (w *victimWalk) reset(need cluster.Resources, victims []*taskRT, bound time.Duration) {
	w.need, w.freed, w.victims, w.cost, w.bound, w.eligible = need, cluster.Resources{}, victims, 0, bound, false
}

// offer hands the walk the next eligible resident and its cost, and
// reports whether the walk is over: need was covered already, or the
// victims so far cost the bound.
func (w *victimWalk) offer(v *taskRT, cost time.Duration) bool {
	w.eligible = true
	if w.need.Fits(w.freed) {
		return true
	}
	w.victims = append(w.victims, v)
	w.freed = w.freed.Add(v.spec.Demand)
	w.cost += cost
	return w.cost >= w.bound
}

// ok reports whether the walk found a victim set that beats the bound. It
// may be empty: need was covered before the first eligible resident.
func (w *victimWalk) ok() bool {
	return w.eligible && w.need.Fits(w.freed) && w.cost < w.bound
}

// walkNode offers w n's residents that t may evict, in the order the scan
// takes them: priority ascending, then cost ascending, then task ID. The
// running set is in that order except at levels holding a chained resident,
// whose cost moves with the clock; walkNode ranks such a level at now
// before offering it. Under the priority discipline (byPriority) nothing at
// or above t's priority is eligible, so the walk stops there.
func (s *Simulator) walkNode(w *victimWalk, n *node, t *taskRT, byPriority bool, now sim.Time) {
	var q time.Duration
	if s.costAware {
		q = n.Device.QueueDelay(now)
	}
	run := n.running
	top := levelKey(t.spec.Priority)
	for i := 0; i < len(run); i++ {
		e := run[i]
		if byPriority && e.key >= top {
			return
		}
		if p := level(e.key); s.costAware && n.chained[p] > 0 {
			end := i + 1
			for end < len(run) && level(run[end].key) == p {
				end++
			}
			for _, pv := range s.rankLevel(run[i:end], t, q, now) {
				if w.offer(pv.t, pv.cost) {
					return
				}
			}
			i = end - 1
			continue
		}
		v := e.t
		if !s.mayEvict(t, v) {
			continue
		}
		var cost time.Duration
		if s.costAware {
			cost = v.fixedCost + q
		}
		if w.offer(v, cost) {
			return
		}
	}
}

// pricedTask is a resident with the cost a victim scan ranks it by.
type pricedTask struct {
	resident
	cost time.Duration
}

// rankLevel prices the residents of run — one priority's stretch of a
// running set — that t may evict, at now with q the node's queue delay, and
// returns them cost ascending, then by task ID. The slice aliases
// levelScratch and is valid until the next call.
func (s *Simulator) rankLevel(run []resident, t *taskRT, q time.Duration, now sim.Time) []pricedTask {
	out := s.levelScratch[:0]
	for _, e := range run {
		if !s.mayEvict(t, e.t) {
			continue
		}
		pv := pricedTask{e, s.victimCost(e.t, q, now)}
		j := len(out)
		out = append(out, pv)
		for ; j > 0 && cmp.Or(cmp.Compare(out[j-1].cost, pv.cost), cmp.Compare(out[j-1].key, pv.key)) > 0; j-- {
			out[j] = out[j-1]
		}
		out[j] = pv
	}
	s.levelScratch = out
	return out
}

// mayEvict reports whether t may take v as a victim: v is running, not
// mid pre-copy, and the active discipline allows it.
func (s *Simulator) mayEvict(t, v *taskRT) bool {
	return v.phase == phaseRunning && !v.preCopying && s.canPreempt(t, v)
}

// preemptableOn lists the running tasks on n that t may evict under the
// active discipline, in task-ID order. The returned slice aliases
// candScratch and is valid until the next call.
func (s *Simulator) preemptableOn(n *node, t *taskRT) []*taskRT {
	out := s.candScratch[:0]
	for _, e := range n.running {
		if s.mayEvict(t, e.t) {
			out = append(out, e.t)
		}
	}
	slices.SortFunc(out, byTaskID)
	s.candScratch = out[:0]
	return out
}

// candidateFor builds the Algorithm 1 input for a victim, honoring the
// incremental-checkpointing ablation flag.
func (s *Simulator) candidateFor(v *taskRT, now sim.Time) core.Candidate {
	c := v.candidate(now)
	if s.cfg.DisableIncremental {
		c.HasCheckpoint = false
	}
	return c
}

// victimCost is core.CheckpointOverhead of evicting v from its node at now,
// given q, that node's QueueDelay(now). Without an image chain to extend —
// or with incremental dumps disabled — the dump is the full footprint, and
// the sum is v's fixedCost plus q: the same int64 terms in the same order.
// Only a chain's dirty bytes grow with now and need the full evaluation.
func (s *Simulator) victimCost(v *taskRT, q time.Duration, now sim.Time) time.Duration {
	if !v.hasCheckpoint || s.cfg.DisableIncremental {
		return v.fixedCost + q
	}
	return core.CheckpointOverhead(s.candidateFor(v, now), v.node.Device, now)
}

// preemptTask applies Algorithm 1 to one victim.
func (s *Simulator) preemptTask(v *taskRT, now sim.Time) {
	n := v.node
	v.evictions++
	s.res.Decisions++
	cand := s.candidateFor(v, now)
	action := core.DecidePreemption(s.cfg.Policy, cand, n.Device, now)
	// The verdict carries the checkpoint cost it weighed even for a kill,
	// so explain can say what the kill avoided.
	est := core.CheckpointOverhead(cand, n.Device, now)
	s.emit(obs.Event{Kind: obs.EvDecision, At: now, Task: v.spec.ID, Node: int(n.id), Priority: v.spec.Priority,
		Name: action.String(), Unsaved: v.unsavedProgress(now), Est: est})

	if !action.IsCheckpoint() {
		// Kill: unsaved progress is lost; resources free immediately.
		v.trip.Abandon()
		s.engine.Cancel(v.completion)
		v.completion = nil
		s.unmarkRunning(v)
		s.res.ChargeWaste(v.spec, v.unsavedProgress(now))
		s.unseat(v, now)
		s.enqueue(v, now)
		s.requestSchedule(now)
		return
	}

	v.trip.Open(est)
	if s.cfg.PreCopy {
		s.startPreCopy(v, cand, now)
		return
	}

	// Stop-and-copy checkpoint.
	var dumpFlags uint32
	if action == core.ActionCheckpointIncremental {
		dumpFlags |= obs.FlagIncremental
	}
	s.freezeAndDump(v, action, cand.DumpBytes(), dumpFlags, now)
}

// freezeAndDump stops a running victim at now, banks the progress of its
// current attempt, and writes bytes of image through the node's sequential
// checkpoint queue, extending v's round trip by the dump window and
// journaling it. The victim holds its resources — and is charged the window
// as overhead — until the dump drains, then vacates.
func (s *Simulator) freezeAndDump(v *taskRT, action core.PreemptAction, bytes int64, flags uint32, now sim.Time) {
	n := v.node
	s.engine.Cancel(v.completion)
	v.completion = nil
	s.unmarkRunning(v)
	progress := v.unsavedProgress(now)
	v.phase = phaseCheckpointing
	v.remaining -= progress
	if v.remaining < 0 {
		v.remaining = 0
	}
	_, done := n.Device.ReserveWrite(now, bytes)
	window := time.Duration(done - now)
	v.trip.Dumped(window, 0)
	s.emit(obs.Event{Kind: obs.EvDump, At: now, Task: v.spec.ID, Node: int(n.id), Priority: v.spec.Priority,
		Est: v.trip.Est(), Actual: window, Bytes: bytes, Flags: flags})
	s.res.ChargeOverhead(v.spec, window)
	s.trackImage(v, action, bytes)
	s.engine.At(done, sim.Handler(func(at sim.Time) {
		s.vacate(v, n, at)
	}))
}

// vacate finalizes a checkpointed victim: its image is durable, its
// resources return to the node, and it re-enters the pending queue.
func (s *Simulator) vacate(v *taskRT, n *node, at sim.Time) {
	v.hasCheckpoint = true
	v.ckptNode = n
	if s.events.On() {
		s.emit(obs.Event{Kind: obs.EvVacate, At: at, Task: v.spec.ID, Node: int(n.id), Priority: v.spec.Priority})
	}
	s.unseat(v, at)
	s.enqueue(v, at)
	s.requestSchedule(at)
}

// startPreCopy implements pre-copy checkpointing: the bulk dump is written
// while the victim keeps running (its progress during the window is
// useful, not waste); at the end of the window the victim freezes and only
// the pages dirtied meanwhile are dumped.
func (s *Simulator) startPreCopy(v *taskRT, cand core.Candidate, now sim.Time) {
	n := v.node
	v.preCopying = true
	preBytes := cand.DumpBytes()
	_, preDone := n.Device.ReserveWrite(now, preBytes)
	v.trip.Dumped(time.Duration(preDone-now), 0)
	s.emit(obs.Event{Kind: obs.EvPreDump, At: now, Task: v.spec.ID, Node: int(n.id), Priority: v.spec.Priority,
		Est: v.trip.Est(), Actual: time.Duration(preDone - now), Bytes: preBytes})
	preAction := core.ActionCheckpointFull
	if cand.HasCheckpoint {
		preAction = core.ActionCheckpointIncremental
	}
	s.trackImage(v, preAction, preBytes)

	attempt := v.evictions
	s.engine.At(preDone, sim.Handler(func(at sim.Time) {
		if v.phase != phaseRunning || !v.preCopying || v.evictions != attempt {
			// The victim completed during the pre-copy window, its
			// resources free and its images reclaimed; or it was fenced,
			// and a later preemption — which raised evictions — owns
			// whatever pre-copy runs now.
			return
		}
		v.preCopying = false
		// The freeze dumps only the pages written during the window; all
		// progress up to it is banked — including the window's, which is
		// the whole point.
		frac := float64(at-now) / float64(v.spec.Duration)
		if frac > 1 {
			frac = 1
		}
		delta := int64(frac * float64(v.spec.MemFootprint))
		s.freezeAndDump(v, core.ActionCheckpointIncremental, delta, obs.FlagIncremental|obs.FlagPreCopy, at)
	}))
}

// trackImage books a dump into v's image chain: a full image replaces
// the chain, an incremental one extends it.
func (s *Simulator) trackImage(v *taskRT, action core.PreemptAction, dumpBytes int64) {
	if action == core.ActionCheckpointFull {
		s.res.AddImageBytes(dumpBytes - v.imageBytes)
		v.imageBytes = dumpBytes
	} else {
		s.res.AddImageBytes(dumpBytes)
		v.imageBytes += dumpBytes
	}
}

func (s *Simulator) removeImages(v *taskRT) {
	s.res.AddImageBytes(-v.imageBytes)
	v.imageBytes = 0
	v.hasCheckpoint = false
	v.ckptNode = nil
}
