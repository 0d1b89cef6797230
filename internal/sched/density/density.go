package density

import (
	"fmt"
	"io"
	"time"

	"preemptsched/internal/sched"
)

// CellResult is the outcome of one density cell. The fields above Timing
// are pure functions of the Spec — the determinism suite compares their
// rendering byte for byte across worker-pool parallelism levels. Timing
// is wall-clock measurement and varies run to run; renderers omit it in
// stable mode.
type CellResult struct {
	Name  string `json:"name"`
	Seed  int64  `json:"seed"`
	Nodes int    `json:"nodes"`
	Tasks int    `json:"tasks"`
	Jobs  int    `json:"jobs"`

	Makespan    time.Duration `json:"makespan"`
	Decisions   uint64        `json:"decisions"`
	EventsFired uint64        `json:"events_fired"`
	Completed   int           `json:"completed"`
	Preemptions int           `json:"preemptions"`
	Kills       int           `json:"kills"`
	Checkpoints int           `json:"checkpoints"`
	Restores    int           `json:"restores"`
	// PeakInFlight is the exact high-water mark of tasks holding node
	// resources (sched.Result.PeakInFlight); PeakQueued the sampled
	// pending-queue peak.
	PeakInFlight int `json:"peak_in_flight"`
	PeakQueued   int `json:"peak_queued"`
	// Samples is the decimated rate-over-time series on the virtual
	// clock; SampleEvery its (possibly stride-doubled) final period.
	SampleEvery time.Duration  `json:"sample_every"`
	Samples     []sched.Sample `json:"samples,omitempty"`

	Timing *Timing `json:"timing,omitempty"`
}

// Timing is the wall-clock half of a cell result.
type Timing struct {
	WallSeconds     float64 `json:"wall_seconds"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	EventsPerSec    float64 `json:"events_per_sec"`
	TasksPerSec     float64 `json:"tasks_per_sec"`
}

// Run executes one density cell: generate the workload, run the
// simulator with the sampler installed (and no observer), and fold the
// outcome into a CellResult.
func Run(sp Spec) (*CellResult, error) {
	sp = sp.withDefaults()
	jobs, err := Generate(sp)
	if err != nil {
		return nil, err
	}

	cfg := sched.DefaultConfig(sp.Policy, sp.Storage)
	cfg.Nodes = sp.Nodes
	cfg.NodeCapacity = nodeCapacity

	res := &CellResult{
		Name:        sp.Name,
		Seed:        sp.Seed,
		Nodes:       sp.Nodes,
		Tasks:       sp.Tasks,
		Jobs:        len(jobs),
		SampleEvery: sp.SampleEvery,
	}
	cfg.SampleEvery = sp.SampleEvery
	// Stride-doubling decimation: the sampler stays on the fine cadence
	// (so queue peaks are still observed), but the retained series halves
	// whenever it hits maxSamples, keeping a uniform spacing of
	// SampleEvery * stride throughout.
	tick, stride := 0, 1
	cfg.OnSample = func(s sched.Sample) {
		if s.Queued > res.PeakQueued {
			res.PeakQueued = s.Queued
		}
		if tick%stride == 0 {
			res.Samples = append(res.Samples, s)
			if len(res.Samples) >= maxSamples {
				kept := res.Samples[:0]
				for i := 0; i < len(res.Samples); i += 2 {
					kept = append(kept, res.Samples[i])
				}
				res.Samples = kept
				stride *= 2
				res.SampleEvery = sp.SampleEvery * time.Duration(stride)
			}
		}
		tick++
	}

	start := time.Now()
	r, err := sched.Run(cfg, jobs)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()

	res.Makespan = r.Makespan
	res.Decisions = r.Decisions
	res.EventsFired = r.EventsFired
	res.Completed = r.TasksCompleted
	res.Preemptions = r.Preemptions
	res.Kills = r.Kills
	res.Checkpoints = r.Checkpoints
	res.Restores = r.Restores
	res.PeakInFlight = r.PeakInFlight
	if wall > 0 {
		res.Timing = &Timing{
			WallSeconds:     wall,
			DecisionsPerSec: float64(r.Decisions) / wall,
			EventsPerSec:    float64(r.EventsFired) / wall,
			TasksPerSec:     float64(r.TasksCompleted) / wall,
		}
	}
	return res, nil
}

// Render writes the human-readable report. With timing=false only the
// deterministic fields appear — that form is the determinism contract's
// comparison unit.
func Render(w io.Writer, results []*CellResult, timing bool) {
	for _, r := range results {
		if r == nil {
			continue
		}
		fmt.Fprintf(w, "cell %s seed=%d nodes=%d tasks=%d jobs=%d\n", r.Name, r.Seed, r.Nodes, r.Tasks, r.Jobs)
		fmt.Fprintf(w, "  makespan=%s decisions=%d events=%d\n", r.Makespan, r.Decisions, r.EventsFired)
		fmt.Fprintf(w, "  completed=%d preemptions=%d kills=%d checkpoints=%d restores=%d\n",
			r.Completed, r.Preemptions, r.Kills, r.Checkpoints, r.Restores)
		fmt.Fprintf(w, "  peak_in_flight=%d peak_queued=%d\n", r.PeakInFlight, r.PeakQueued)
		if n := len(r.Samples); n > 0 {
			fmt.Fprintf(w, "  rate-over-time (every %s, %d samples):\n", r.SampleEvery, n)
			step := 1
			if n > 12 {
				step = n / 12
			}
			var prev sched.Sample
			for i := 0; i < n; i += step {
				s := r.Samples[i]
				dt := time.Duration(s.At - prev.At).Seconds()
				var rate float64
				if dt > 0 {
					rate = float64(s.Decisions-prev.Decisions) / dt
				}
				fmt.Fprintf(w, "    t=%-10s in_flight=%-7d queued=%-8d decisions=%-9d %8.1f dec/virt-s\n",
					time.Duration(s.At), s.InFlight, s.Queued, s.Decisions, rate)
				prev = s
			}
		}
		if timing && r.Timing != nil {
			fmt.Fprintf(w, "  wall=%.2fs decisions/sec=%.0f events/sec=%.0f tasks/sec=%.0f\n",
				r.Timing.WallSeconds, r.Timing.DecisionsPerSec, r.Timing.EventsPerSec, r.Timing.TasksPerSec)
		}
		fmt.Fprintln(w)
	}
}

// StandardCells returns the 1k/5k/10k ladder, scaled by tasks per node
// so event totals grow with the cluster. The 10k cell is the headline
// BENCH_scale.json config: 10k virtual nodes, ~1M task events.
func StandardCells(seed int64) []Spec {
	mk := func(name string, nodes, tasks int) Spec {
		return Spec{Name: name, Seed: seed, Nodes: nodes, Tasks: tasks}
	}
	return []Spec{
		mk("1k-nodes", 1_000, 100_000),
		mk("5k-nodes", 5_000, 500_000),
		mk("10k-nodes", 10_000, 1_000_000),
	}
}
