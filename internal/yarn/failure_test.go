package yarn

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"preemptsched/internal/checkpoint"
	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// imageCount numbers the checkpoint images a run stores, across all of
// its nodes.
type imageCount struct{ n, corrupt int }

// corruptingStore is a checkpoint store that flips the middle byte of the
// corrupt-th image the run stores: the image's CRC no longer matches, while
// its manifest vouches for the bytes the dump meant to write.
type corruptingStore struct {
	storage.Store
	count *imageCount
}

func (s corruptingStore) Create(name string) (io.WriteCloser, error) {
	w, err := s.Store.Create(name)
	if err != nil || strings.HasSuffix(name, checkpoint.ManifestSuffix) {
		return w, err
	}
	if s.count.n++; s.count.n != s.count.corrupt {
		return w, nil
	}
	return &flipWriter{w: w}, nil
}

// flipWriter holds an image until Close, then stores it with its middle
// byte flipped.
type flipWriter struct {
	bytes.Buffer
	w io.WriteCloser
}

func (f *flipWriter) Close() error {
	data := f.Bytes()
	data[len(data)/2] ^= 0xFF
	if _, err := f.w.Write(data); err != nil {
		f.w.Close()
		return err
	}
	return f.w.Close()
}

// runCorrupting runs jobs on a cluster built from cfg whose nth stored
// checkpoint image is corrupted.
func runCorrupting(t *testing.T, cfg Config, nth int, jobs []cluster.JobSpec) *Result {
	t.Helper()
	c, err := newCluster(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	count := &imageCount{corrupt: nth}
	for _, n := range c.nodes {
		n.store = corruptingStore{n.store, count}
	}
	for i := range jobs {
		am := newAppMaster(c, &jobs[i])
		c.engine.At(jobs[i].Submit, sim.Handler(am.submit))
	}
	c.finish(c.engine.Run())
	if count.n < nth {
		t.Fatalf("the run stored %d images; none was corrupted", count.n)
	}
	return c.res
}

// TestRestoreFailureFallsBackToRestart injects a corrupted checkpoint
// image and verifies that the CRC check catches it, the AM restarts the
// task from scratch, and the final result is still correct.
func TestRestoreFailureFallsBackToRestart(t *testing.T) {
	jobs := smallWorkload() // low job preempted once by a high job
	cfg := tinyCluster(core.PolicyCheckpoint)
	cfg.CustomBandwidth = 1e9

	ref, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Checkpoints != 1 || ref.RestoreFailures != 0 {
		t.Fatalf("baseline: %d checkpoints, %d failures", ref.Checkpoints, ref.RestoreFailures)
	}

	r := runCorrupting(t, cfg, 1, jobs)
	if r.RestoreFailures != 1 {
		t.Fatalf("restore failures = %d, want 1", r.RestoreFailures)
	}
	// A single-image chain has no older link to fall back to: the ladder
	// bottoms out at a restart from scratch.
	if r.RestoreFallbacks != 0 || r.RestoreRestarts != 1 {
		t.Fatalf("fallbacks = %d, restarts = %d, want 0/1", r.RestoreFallbacks, r.RestoreRestarts)
	}
	if r.TasksCompleted != 2 {
		t.Errorf("completed %d tasks despite corruption recovery", r.TasksCompleted)
	}
	// Results must still match the clean run: the restarted task redoes
	// the work but computes the same answer.
	for id, want := range ref.TaskChecksums {
		if got := r.TaskChecksums[id]; got != want {
			t.Errorf("task %v checksum %x != clean run %x", id, got, want)
		}
	}
	// The fallback costs a full restart, so the corrupted run is slower
	// for the victim job but not deadlocked.
	if r.MeanResponse(cluster.BandFree) < ref.MeanResponse(cluster.BandFree) {
		t.Errorf("corrupted run should not be faster: %v < %v",
			r.MeanResponse(cluster.BandFree), ref.MeanResponse(cluster.BandFree))
	}
}

// TestCorruptionOfIncrementalChain corrupts the *second* (incremental)
// dump: the chain walk from the tip fails, the AM falls back to the
// intact base image instead of restarting from scratch, and the run
// completes with the lost delta re-executed.
func TestCorruptionOfIncrementalChain(t *testing.T) {
	low := cluster.JobSpec{
		ID: 0, Priority: 0,
		Tasks: []cluster.TaskSpec{{
			ID:           cluster.TaskID{Job: 0},
			Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
			MemFootprint: cluster.GiB(1),
			Duration:     5 * time.Minute,
		}},
	}
	mkHigh := func(id cluster.JobID, submit time.Duration) cluster.JobSpec {
		return cluster.JobSpec{
			ID: id, Priority: 10, Submit: submit,
			Tasks: []cluster.TaskSpec{{
				ID:       cluster.TaskID{Job: id},
				Priority: 10,
				Demand:   cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
				Duration: 30 * time.Second,
				Submit:   submit,
			}},
		}
	}
	jobs := []cluster.JobSpec{low, mkHigh(1, time.Minute), mkHigh(2, 3*time.Minute)}
	cfg := tinyCluster(core.PolicyCheckpoint)
	cfg.StorageKind = storage.NVM
	r := runCorrupting(t, cfg, 2, jobs) // the incremental dump
	if r.RestoreFailures == 0 {
		t.Fatal("incremental corruption not detected")
	}
	// The base (full) image is intact, so the ladder stops at the parent:
	// a fallback, not a restart.
	if r.RestoreFallbacks == 0 {
		t.Errorf("corrupt tip did not fall back to its parent image (failures=%d restarts=%d)",
			r.RestoreFailures, r.RestoreRestarts)
	}
	if r.RestoreRestarts != 0 {
		t.Errorf("restarted from scratch %d times despite an intact base image", r.RestoreRestarts)
	}
	if r.TasksCompleted != 3 {
		t.Errorf("completed %d of 3", r.TasksCompleted)
	}
}

// TestChainCompaction forces a long incremental chain and verifies it is
// merged once it exceeds the configured length, with results intact.
func TestChainCompaction(t *testing.T) {
	low := cluster.JobSpec{
		ID: 0, Priority: 0,
		Tasks: []cluster.TaskSpec{{
			ID:           cluster.TaskID{Job: 0},
			Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
			MemFootprint: cluster.GiB(1),
			Duration:     10 * time.Minute,
		}},
	}
	var jobs []cluster.JobSpec
	jobs = append(jobs, low)
	// Five bursts, five checkpoints, chain of five images.
	for i := 1; i <= 5; i++ {
		jobs = append(jobs, cluster.JobSpec{
			ID: cluster.JobID(i), Priority: 10, Submit: time.Duration(i) * 90 * time.Second,
			Tasks: []cluster.TaskSpec{{
				ID:       cluster.TaskID{Job: cluster.JobID(i)},
				Priority: 10,
				Demand:   cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
				Duration: 30 * time.Second,
				Submit:   time.Duration(i) * 90 * time.Second,
			}},
		})
	}
	cfg := tinyCluster(core.PolicyCheckpoint)
	cfg.StorageKind = storage.NVM
	base, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if base.Compactions != 0 {
		t.Fatalf("compactions without the option: %d", base.Compactions)
	}
	cfg.CompactChainAfter = 2
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Compactions == 0 {
		t.Fatal("no compactions despite 5-link chain and threshold 2")
	}
	if r.TasksCompleted != 6 {
		t.Errorf("completed %d of 6", r.TasksCompleted)
	}
	for id, want := range base.TaskChecksums {
		if got := r.TaskChecksums[id]; got != want {
			t.Errorf("task %v diverged under compaction: %x != %x", id, got, want)
		}
	}
}
