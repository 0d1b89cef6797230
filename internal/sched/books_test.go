package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
	"preemptsched/internal/trace"
)

// adversarialJobs is a seeded trace whose task IDs break every shortcut a
// rank could take: job IDs that recur across jobs, drawn from the ends of
// int64 and around zero; task indices that are positions, descend, leave
// gaps, are negative down to math.MinInt32, or repeat within a job; and
// clones of whole jobs, so that equal task IDs of one priority wait, run
// and are evicted side by side. A few jobs are anonymous, so jobs that share
// an ID share an anonymous tenant too.
func adversarialJobs(t testing.TB, seed int64) []cluster.JobSpec {
	t.Helper()
	jobs, err := trace.GenerateJobs(trace.JobsConfig{Seed: seed, Jobs: 36, MeanTasksPerJob: 5, Span: 20 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	jobIDs := []cluster.JobID{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	var out []cluster.JobSpec
	for _, job := range jobs {
		job.ID = jobIDs[rng.Intn(len(jobIDs))]
		if rng.Intn(5) == 0 {
			job.User = ""
		}
		job.Tasks = slices.Clone(job.Tasks)
		scheme := rng.Intn(5)
		for k := range job.Tasks {
			ts := &job.Tasks[k]
			ts.ID.Job, ts.User = job.ID, job.User
			switch scheme {
			case 0:
				ts.ID.Index = int32(k)
			case 1:
				ts.ID.Index = int32(len(job.Tasks) - k)
			case 2:
				ts.ID.Index = int32(7*k + 3)
			case 3:
				ts.ID.Index = math.MinInt32 + int32(k)*int32(1+rng.Intn(3))
			default:
				ts.ID.Index = int32(rng.Intn(3)) - 1
			}
		}
		out = append(out, job)
		if rng.Intn(3) == 0 {
			clone := job
			clone.Tasks = slices.Clone(job.Tasks)
			out = append(out, clone)
		}
	}
	return out
}

// referenceRanks ranks tasks from scratch: a task's rank is the position
// of its ID among the distinct IDs of all tasks, sorted.
func referenceRanks(tasks []*taskRT) {
	distinct := make([]cluster.TaskID, len(tasks))
	for i, t := range tasks {
		distinct[i] = t.spec.ID
	}
	sort.Slice(distinct, func(i, j int) bool { return taskIDLess(distinct[i], distinct[j]) })
	distinct = slices.Compact(distinct)
	for _, t := range tasks {
		t.rank = uint32(sort.Search(len(distinct), func(i int) bool { return !taskIDLess(distinct[i], t.spec.ID) }))
	}
}

// rankRun is what one run of an adversarial trace shows the world.
type rankRun struct {
	res     *Result
	victims []string
	journal []byte
}

// runRanked runs jobs under cfg with a recorder attached, its ranks from
// load or, with reference set, from referenceRanks; after every pass it
// holds the books to checkBooks and counts, in ties, the neighbours in a
// running set whose keys are equal.
func runRanked(t *testing.T, cfg Config, jobs []cluster.JobSpec, reference bool, ties *int) rankRun {
	t.Helper()
	var run rankRun
	rec := obs.NewRecorder(1<<20, 64)
	cfg.Observer = observerFunc(func(ev obs.Event) {
		if ev.Kind == obs.EvDecision {
			run.victims = append(run.victims, fmt.Sprintf("%v %v %v on %d", ev.At, ev.Name, ev.Task, ev.Node))
		}
		rec.Observe(ev)
	})
	s, tasks := loaded(t, cfg, jobs)
	if reference {
		referenceRanks(tasks)
	}
	afterEachPass(s, func(sim.Time) {
		checkBooks(t, s)
		for _, n := range s.nodes {
			for i := 1; i < len(n.running); i++ {
				if n.running[i].key == n.running[i-1].key {
					*ties++
				}
			}
		}
	})
	run.res = s.runToEnd()
	if rec.Dropped() != 0 {
		t.Fatalf("the recorder dropped %d records", rec.Dropped())
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	run.journal = buf.Bytes()
	return run
}

// GIVEN seeded traces whose task IDs are adversarial (adversarialJobs) —
// recurring and extreme job IDs, indices with gaps, descending, negative or
// repeated, whole jobs cloned — on a small cluster under the basic,
// adaptive and kill policies and the priority and fair-share disciplines,
// WHEN each runs with the ranks load assigns and again with ranks computed
// from scratch,
// THEN after every pass the books hold (checkBooks: every key recomputed,
// every tenant's usage and live flag recounted), both runs take the same
// victims in the same order and write the same journal and Result, and the
// journals of all cases hash to what the running set that compared task
// records (referenceAddRunning) wrote before it carried keys.
func TestRunningSetRankMatchesTaskIDOrder(t *testing.T) {
	const parentDigest = "919f1c545e396b657541ee6d59236f3e25dfbb718d649d77edca0e2b888e7243"
	digest := sha256.New()
	var ties, preemptions int
	for seed := int64(1); seed <= 3; seed++ {
		for _, discipline := range []Discipline{DisciplinePriority, DisciplineFairShare} {
			for _, policy := range []core.Policy{core.PolicyCheckpoint, core.PolicyAdaptive, core.PolicyKill} {
				name := fmt.Sprintf("seed=%d/%v/%v", seed, discipline, policy)
				jobs := adversarialJobs(t, seed)
				cfg := DefaultConfig(policy, storage.SSD)
				cfg.Discipline = discipline
				cfg.Nodes = 3
				got := runRanked(t, cfg, jobs, false, &ties)
				want := runRanked(t, cfg, jobs, true, new(int))
				if i := firstDifference(got.victims, want.victims); i >= 0 {
					t.Fatalf("%s: verdict %d of %d: %s, with ranks from scratch %s", name, i, len(want.victims), at(got.victims, i), at(want.victims, i))
				}
				if !bytes.Equal(got.journal, want.journal) {
					t.Fatalf("%s: journals differ: %d bytes, with ranks from scratch %d", name, len(got.journal), len(want.journal))
				}
				if !reflect.DeepEqual(got.res, want.res) {
					t.Fatalf("%s: results differ:\n%+v\nwith ranks from scratch:\n%+v", name, got.res.Outcome, want.res.Outcome)
				}
				digest.Write(got.journal)
				preemptions += got.res.Preemptions
			}
		}
	}
	if ties < 1000 || preemptions < 1000 {
		t.Errorf("traces too tame: %d equal-key neighbours seen, %d preemptions", ties, preemptions)
	}
	if got := hex.EncodeToString(digest.Sum(nil)); got != parentDigest {
		t.Errorf("journals hash to %s, want %s", got, parentDigest)
	}
}

// GIVEN tenants — named and anonymous — whose tasks demand nothing, CPU
// only, memory only or both,
// WHEN their tasks are booked and released in a seeded order, a release
// sometimes of a task that was never booked,
// THEN after every step each tenant's usage and live flag, and the count of
// live tenants, are what a map from tenant name to usage holds, with an
// entry made by every booking and deleted by a release that leaves zero:
// the books as they were before tenants were interned.
func TestTenantBooksMatchUsageMap(t *testing.T) {
	s, err := newSimulator(DefaultConfig(core.PolicyCheckpoint, storage.SSD).withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	demands := []cluster.Resources{{}, {CPUMillis: 500}, {MemBytes: cluster.GiB(1)}, {CPUMillis: 1000, MemBytes: cluster.GiB(2)}}
	rng := rand.New(rand.NewSource(39))
	var tasks []*taskRT
	for i := 0; i < 12; i++ {
		job := &cluster.JobSpec{ID: cluster.JobID(i % 6), User: []string{"ada", "bob", ""}[i%3]}
		spec := &cluster.TaskSpec{ID: cluster.TaskID{Job: job.ID, Index: int32(i)}, Demand: demands[rng.Intn(len(demands))]}
		tasks = append(tasks, &taskRT{spec: spec, job: newJobRT(job, s)})
	}
	usage := make(map[string]cluster.Resources)
	booked := make(map[*taskRT]bool)
	var zeroed int
	for step := 0; step < 4000; step++ {
		x := tasks[rng.Intn(len(tasks))]
		name := tenantOf(x).name
		if booked[x] || rng.Intn(10) == 0 {
			s.account(x, -1)
			usage[name] = usage[name].Sub(x.spec.Demand)
			if usage[name].IsZero() {
				delete(usage, name)
				zeroed++
			}
			delete(booked, x)
		} else {
			s.account(x, +1)
			usage[name] = usage[name].Add(x.spec.Demand)
			booked[x] = true
		}
		for name, tn := range s.tenants {
			want, live := usage[name]
			if tn.usage != want || tn.live != live {
				t.Fatalf("step %d: tenant %q has usage %v, live %v; the map holds %v, entry %v", step, name, tn.usage, tn.live, want, live)
			}
		}
		if s.liveTenants != len(usage) {
			t.Fatalf("step %d: %d tenants live, the map has %d entries", step, s.liveTenants, len(usage))
		}
	}
	if zeroed < 50 {
		t.Errorf("only %d releases emptied a tenant", zeroed)
	}
}
