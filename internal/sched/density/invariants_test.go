package density

import (
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sched"
	"preemptsched/internal/storage"
)

// invariantChecker observes the simulator's event stream with shadow
// bookkeeping and fails the moment any scheduling invariant breaks:
// capacity exceeded, placement on a down node, a preempted task resolved
// twice, or unbalanced lifecycle counters.
type invariantChecker struct {
	t   *testing.T
	cap cluster.Resources

	used map[int]cluster.Resources
	// residents tracks which node each placed task currently occupies.
	residents map[cluster.TaskID]int
	demand    map[cluster.TaskID]cluster.Resources
	down      map[int]bool
	// checkpointing marks tasks between their checkpoint verdict and the
	// matching vacate (or finish, when the task completes during a
	// pre-copy window).
	checkpointing map[cluster.TaskID]bool

	places, finishes, kills, checkpoints, vacates, fences int
	// peak is the high-water mark of len(residents).
	peak int
}

func newInvariantChecker(t *testing.T, nodeCap cluster.Resources) *invariantChecker {
	return &invariantChecker{
		t:             t,
		cap:           nodeCap,
		used:          make(map[int]cluster.Resources),
		residents:     make(map[cluster.TaskID]int),
		demand:        make(map[cluster.TaskID]cluster.Resources),
		checkpointing: make(map[cluster.TaskID]bool),
		down:          make(map[int]bool),
	}
}

func (c *invariantChecker) setDemands(jobs []cluster.JobSpec) {
	for i := range jobs {
		for k := range jobs[i].Tasks {
			ts := &jobs[i].Tasks[k]
			c.demand[ts.ID] = ts.Demand
		}
	}
}

func (c *invariantChecker) release(ev obs.Event, kind string) {
	node, ok := c.residents[ev.Task]
	if !ok {
		c.t.Fatalf("%s for task %v at %v: not resident anywhere", kind, ev.Task, ev.At)
	}
	if node != ev.Node {
		c.t.Fatalf("%s for task %v on node %d, but it resides on %d", kind, ev.Task, ev.Node, node)
	}
	c.used[node] = c.used[node].Sub(c.demand[ev.Task])
	if c.used[node].Negative() {
		c.t.Fatalf("%s drove node %d usage negative: %v", kind, node, c.used[node])
	}
	delete(c.residents, ev.Task)
}

// Observe checks one edge. A kill verdict frees the victim at once; a
// checkpoint verdict holds its resources until the vacate, or the
// completion of a task that finishes inside its pre-copy window.
func (c *invariantChecker) Observe(ev obs.Event) {
	if c.t.Failed() {
		return
	}
	switch ev.Kind {
	case obs.EvPlace:
		c.places++
		if c.down[ev.Node] {
			c.t.Fatalf("task %v placed on down node %d at %v", ev.Task, ev.Node, ev.At)
		}
		if prev, ok := c.residents[ev.Task]; ok {
			c.t.Fatalf("task %v placed on node %d while still resident on %d", ev.Task, ev.Node, prev)
		}
		c.used[ev.Node] = c.used[ev.Node].Add(c.demand[ev.Task])
		if !c.used[ev.Node].Fits(c.cap) {
			c.t.Fatalf("node %d capacity exceeded at %v: used %v cap %v", ev.Node, ev.At, c.used[ev.Node], c.cap)
		}
		c.residents[ev.Task] = ev.Node
		c.peak = max(c.peak, len(c.residents))
		// A placement resolves any outstanding checkpoint cycle (the task
		// was vacated and has now been restored somewhere).
	case obs.EvTaskDone:
		c.finishes++
		c.release(ev, "finish")
		// Completing during a pre-copy window resolves the outstanding
		// checkpoint verdict without a vacate.
		delete(c.checkpointing, ev.Task)
	case obs.EvDecision:
		if ev.Name != core.ActionKill.String() {
			c.checkpoints++
			if c.checkpointing[ev.Task] {
				c.t.Fatalf("task %v checkpointed twice without an intervening vacate", ev.Task)
			}
			c.checkpointing[ev.Task] = true
			return
		}
		c.kills++
		if c.checkpointing[ev.Task] {
			c.t.Fatalf("task %v killed while its checkpoint dump is outstanding", ev.Task)
		}
		c.release(ev, "kill")
	case obs.EvVacate:
		c.vacates++
		if !c.checkpointing[ev.Task] {
			c.t.Fatalf("task %v vacated without a preceding checkpoint verdict", ev.Task)
		}
		delete(c.checkpointing, ev.Task)
		c.release(ev, "vacate")
	case obs.EvTaskRescheduled:
		c.fences++
		c.release(ev, "fence")
	case obs.EvNodeDown:
		c.down[ev.Node] = true
	case obs.EvNodeRecovered:
		delete(c.down, ev.Node)
	}
}

// verify cross-checks the shadow state against the simulator's own result
// once the run has drained.
func (c *invariantChecker) verify(res *sched.Result, totalTasks int) {
	t := c.t
	if len(c.residents) != 0 {
		t.Errorf("%d tasks still resident after drain", len(c.residents))
	}
	for id, u := range c.used {
		if !u.IsZero() {
			t.Errorf("node %d usage nonzero after drain: %v", id, u)
		}
	}
	if len(c.checkpointing) != 0 {
		t.Errorf("%d checkpoint cycles never resolved", len(c.checkpointing))
	}
	if res.TasksCompleted != totalTasks {
		t.Errorf("completed %d of %d tasks", res.TasksCompleted, totalTasks)
	}
	if c.finishes != res.TasksCompleted {
		t.Errorf("observed completions %d != result completions %d", c.finishes, res.TasksCompleted)
	}
	// Every preemption verdict is exactly one kill or one checkpoint.
	if c.kills+c.checkpoints != res.Preemptions {
		t.Errorf("kills %d + checkpoints %d != preemptions %d", c.kills, c.checkpoints, res.Preemptions)
	}
	if c.kills != res.Kills || c.checkpoints != res.Checkpoints {
		t.Errorf("observed kill/checkpoint %d/%d != result %d/%d", c.kills, c.checkpoints, res.Kills, res.Checkpoints)
	}
	if c.peak != res.PeakInFlight {
		t.Errorf("observed peak in flight %d != result %d", c.peak, res.PeakInFlight)
	}
	// Every placement is balanced by exactly one release.
	if c.places != c.finishes+c.kills+c.vacates+c.fences {
		t.Errorf("placements %d != finishes %d + kills %d + vacates %d + fences %d",
			c.places, c.finishes, c.kills, c.vacates, c.fences)
	}
	// Decisions = placements + preemption verdicts (Algorithm 1 calls).
	if res.Decisions != uint64(c.places+res.Preemptions) {
		t.Errorf("decisions %d != placements %d + verdicts %d", res.Decisions, c.places, res.Preemptions)
	}
}

// TestDensityInvariants runs the full invariant pack over several seeds
// and policy/storage legs, including one with node failures in flight.
func TestDensityInvariants(t *testing.T) {
	legs := []struct {
		name     string
		seed     int64
		policy   core.Policy
		storage  storage.Kind
		failures []sched.NodeFailure
	}{
		{name: "checkpoint-ssd-seed1", seed: 1, policy: core.PolicyCheckpoint, storage: storage.SSD},
		{name: "kill-hdd-seed7", seed: 7, policy: core.PolicyKill, storage: storage.HDD},
		{name: "adaptive-nvm-seed42", seed: 42, policy: core.PolicyAdaptive, storage: storage.NVM},
		{name: "checkpoint-failures-seed9", seed: 9, policy: core.PolicyCheckpoint, storage: storage.SSD,
			failures: []sched.NodeFailure{
				{Node: 3, At: 2 * time.Minute, RecoverAfter: 10 * time.Minute},
				{Node: 11, At: 5 * time.Minute},
			}},
	}
	nodes, tasks := 60, 4000
	if testing.Short() {
		nodes, tasks = 30, 1200
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			sp := Spec{
				Seed:    leg.seed,
				Nodes:   nodes,
				Tasks:   tasks,
				Policy:  leg.policy,
				Storage: leg.storage,
			}.withDefaults()
			jobs, err := Generate(sp)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sched.DefaultConfig(sp.Policy, sp.Storage)
			cfg.Nodes = sp.Nodes
			cfg.NodeCapacity = nodeCapacity
			cfg.NodeFailures = leg.failures

			chk := newInvariantChecker(t, nodeCapacity)
			chk.setDemands(jobs)
			cfg.Observer = chk

			res, err := sched.Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(leg.failures) == 0 {
				chk.verify(res, sp.Tasks)
			} else {
				// With failures, fenced tasks are re-placed, so only the
				// stream-level invariants (checked inline) and the balance
				// equations apply.
				if chk.places != chk.finishes+chk.kills+chk.vacates+chk.fences {
					t.Errorf("placements %d unbalanced against releases %d/%d/%d/%d",
						chk.places, chk.finishes, chk.kills, chk.vacates, chk.fences)
				}
				if res.TasksCompleted != sp.Tasks {
					t.Errorf("completed %d of %d tasks despite recovery", res.TasksCompleted, sp.Tasks)
				}
			}
		})
	}
}
