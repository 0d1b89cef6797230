// Package density is the scheduler's scale harness: a seeded synthetic
// cluster/workload generator and a runner that measures sustained
// scheduling decisions/sec, tasks in flight, and rate-over-time samples
// at thousands of virtual nodes and up to millions of task events — the
// kubernetes scheduler_perf idea ("schedule 30k pods on 1000 fake nodes,
// print the scheduling rate every second") applied to the preemptive
// checkpoint/restore simulator.
//
// Everything the generator emits is a pure function of the Spec: two runs
// of the same cell produce byte-identical deterministic sections at any
// worker-pool parallelism, which keeps the §11 determinism contract
// enforceable on the density workload.
package density

import (
	"fmt"
	"math"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// The shape every density cell shares; Spec's doc comment spells it out.
var (
	nodeCapacity = cluster.Resources{CPUMillis: cluster.Cores(16), MemBytes: cluster.GiB(64)}
	taskDemand   = cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(4)}
)

const (
	taskDuration   = 3 * time.Minute
	meanFootprint  = 1.5 * (1 << 30)
	footprintSigma = 0.5
	maxSamples     = 256
)

// Spec configures one density cell. Every cell has the same shape:
// machines of 16 cores / 64 GiB; tasks that reserve 1 core / 4 GiB and run
// a bounded-Pareto duration around a 3-minute mean (a quarter of it in
// production jobs); lognormal checkpoint footprints of mean 1.5 GiB and
// log-space sigma 0.5, clamped to [64 MiB, 4 GiB]; and at most 256
// retained rate-over-time samples, kept by stride-doubling decimation. A
// Spec sets the cluster and workload size, the priority mix, the offered
// load, the policy and storage, and the sampling cadence. Zero values
// take scale-appropriate defaults from withDefaults.
type Spec struct {
	// Name labels the cell in reports ("10k-nodes").
	Name string
	// Seed drives every stochastic choice the generator makes.
	Seed int64
	// Nodes is the virtual machine count.
	Nodes int
	// Tasks is the total task-event count (~1M at the headline config).
	Tasks int
	// Jobs is the job count tasks are grouped into; sizes follow a Zipf
	// split so a few large jobs hold most tasks. Default Tasks/250.
	Jobs int
	// LoadFactor is offered load over cluster drain capacity; the
	// submission span is sized so the arrival rate sustains it. Values
	// above 1 keep a standing backlog and exercise preemption. Default
	// 1.2.
	LoadFactor float64
	// HighShare and MidShare are the fractions of tasks carried by
	// production (priority 10) and middle (priority 5) jobs; the rest is
	// free-band (priority 0). Defaults 0.10 and 0.30.
	HighShare, MidShare float64
	// Policy and Storage select the preemption policy (default basic
	// checkpoint) and the per-node checkpoint device (default SSD).
	Policy  core.Policy
	Storage storage.Kind
	// SampleEvery is the virtual-clock sampling period (default 30s).
	SampleEvery time.Duration
}

// withDefaults fills zero fields with the scale-appropriate defaults.
func (sp Spec) withDefaults() Spec {
	if sp.Nodes == 0 {
		sp.Nodes = 1000
	}
	if sp.Tasks == 0 {
		sp.Tasks = 50_000
	}
	if sp.Jobs == 0 {
		sp.Jobs = sp.Tasks / 250
		if sp.Jobs < 4 {
			sp.Jobs = 4
		}
	}
	if sp.LoadFactor == 0 {
		sp.LoadFactor = 1.2
	}
	if sp.HighShare == 0 && sp.MidShare == 0 {
		sp.HighShare, sp.MidShare = 0.10, 0.30
	}
	if sp.Policy == 0 {
		sp.Policy = core.PolicyCheckpoint
	}
	if sp.Storage == 0 {
		sp.Storage = storage.SSD
	}
	if sp.SampleEvery == 0 {
		sp.SampleEvery = 30 * time.Second
	}
	if sp.Name == "" {
		sp.Name = fmt.Sprintf("n%d-t%d", sp.Nodes, sp.Tasks)
	}
	return sp
}

// Validate rejects nonsensical cells.
func (sp Spec) Validate() error {
	sp = sp.withDefaults()
	if sp.Nodes <= 0 || sp.Tasks <= 0 || sp.Jobs <= 0 {
		return fmt.Errorf("density: non-positive nodes/tasks/jobs (%d/%d/%d)", sp.Nodes, sp.Tasks, sp.Jobs)
	}
	if sp.Jobs > sp.Tasks {
		return fmt.Errorf("density: Jobs=%d exceeds Tasks=%d", sp.Jobs, sp.Tasks)
	}
	if sp.HighShare < 0 || sp.MidShare < 0 || sp.HighShare+sp.MidShare > 1 {
		return fmt.Errorf("density: HighShare=%.2f, MidShare=%.2f: each must be non-negative and their sum at most 1", sp.HighShare, sp.MidShare)
	}
	if sp.LoadFactor <= 0 {
		return fmt.Errorf("density: LoadFactor=%v must be positive", sp.LoadFactor)
	}
	return nil
}

// span derives the submission window that sustains the configured load
// factor: offered rate = LoadFactor * slots / meanDuration, and
// span = Tasks / rate.
func (sp Spec) span() time.Duration {
	slotsCPU := sp.Nodes * int(nodeCapacity.CPUMillis/taskDemand.CPUMillis)
	slotsMem := sp.Nodes * int(nodeCapacity.MemBytes/taskDemand.MemBytes)
	slots := slotsCPU
	if slotsMem < slots {
		slots = slotsMem
	}
	if slots < 1 {
		slots = 1
	}
	rate := sp.LoadFactor * float64(slots) / taskDuration.Seconds()
	return time.Duration(float64(sp.Tasks) / rate * float64(time.Second))
}

// Generate expands the spec into the job list the simulator consumes.
// The same spec always yields the same jobs, bit for bit.
func Generate(sp Spec) ([]cluster.JobSpec, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	sp = sp.withDefaults()
	rng := sim.NewRNG(sp.Seed)
	span := sp.span()

	// Zipf job sizes: weight 1/k, scaled to the task total.
	sizes := make([]int, sp.Jobs)
	var wsum float64
	for k := range sizes {
		wsum += 1 / float64(k+1)
	}
	assigned := 0
	for k := range sizes {
		sizes[k] = 1 + int(float64(sp.Tasks-sp.Jobs)*(1/float64(k+1))/wsum)
		assigned += sizes[k]
	}
	for i := 0; assigned > sp.Tasks; i = (i + 1) % sp.Jobs {
		if sizes[i] > 1 {
			sizes[i]--
			assigned--
		}
	}
	sizes[0] += sp.Tasks - assigned

	// Priority assignment: fill each band's task budget walking the jobs
	// in a seeded shuffle, so large and small jobs land in every band.
	order := rng.Perm(sp.Jobs)
	highBudget := int(sp.HighShare * float64(sp.Tasks))
	midBudget := int(sp.MidShare * float64(sp.Tasks))
	prios := make([]cluster.Priority, sp.Jobs)
	for _, k := range order {
		switch {
		case highBudget > 0:
			prios[k] = 10
			highBudget -= sizes[k]
		case midBudget > 0:
			prios[k] = 5
			midBudget -= sizes[k]
		default:
			prios[k] = 0
		}
	}

	// Footprint lognormal: mean exp(mu + sigma^2/2) = meanFootprint.
	mu := logMean(meanFootprint, footprintSigma)
	minFoot := cluster.MiB(64)
	maxFoot := taskDemand.MemBytes

	jobs := make([]cluster.JobSpec, 0, sp.Jobs)
	for k := 0; k < sp.Jobs; k++ {
		prio := prios[k]
		submit := time.Duration(rng.Bounded(0, 0.9) * float64(span))
		user := fmt.Sprintf("tenant-%d", k%7)
		if prio == 10 {
			user = "production"
		}
		job := cluster.JobSpec{
			ID:       cluster.JobID(k),
			Priority: prio,
			User:     user,
			Submit:   submit,
		}
		// Production bursts arrive tightly; background jobs trickle their
		// tasks across what remains of the span.
		spread := span - submit
		if prio == 10 {
			spread = spread / 16
		}
		meanDur := taskDuration
		if prio == 10 {
			meanDur = taskDuration / 4
		}
		job.Tasks = make([]cluster.TaskSpec, sizes[k])
		for i := range job.Tasks {
			foot := int64(rng.LogNormal(mu, footprintSigma))
			if foot < minFoot {
				foot = minFoot
			}
			if foot > maxFoot {
				foot = maxFoot
			}
			dur := time.Duration(rng.Pareto(0.55*float64(meanDur), 2.0, 8*float64(meanDur)))
			job.Tasks[i] = cluster.TaskSpec{
				ID:           cluster.TaskID{Job: job.ID, Index: int32(i)},
				Priority:     prio,
				User:         user,
				Demand:       taskDemand,
				MemFootprint: foot,
				Duration:     dur,
				Submit:       submit + time.Duration(rng.Bounded(0, 1)*float64(spread)),
			}
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// logMean returns the lognormal location parameter for a target mean.
func logMean(mean, sigma float64) float64 {
	return math.Log(mean) - sigma*sigma/2
}
