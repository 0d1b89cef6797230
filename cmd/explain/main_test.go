package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
	"preemptsched/internal/yarn"
)

// journalBytes runs the reference contended workload with a recorder
// attached and returns the serialized journal.
func journalBytes(t *testing.T) []byte {
	t.Helper()
	wc := workload.DefaultFacebookConfig()
	wc.Seed = 21
	wc.Jobs = 8
	wc.TotalTasks = 240
	jobs, err := workload.Facebook(wc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := yarn.DefaultConfig(core.PolicyAdaptive, storage.SSD)
	cfg.Nodes = 2
	cfg.ContainersPerNode = 8
	rec := obs.NewRecorder(0, 0)
	cfg.Observer = rec
	if _, err := yarn.Run(cfg, jobs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJournalByteIdenticalAcrossParallelism is the determinism-contract
// check for the flight recorder (DESIGN.md §11): the journal an
// experiment emits is a pure function of its configuration, so a run
// executed alone and the same run executed while a worker pool crunches
// other combinations — clusterrun -parallel N — must serialize to the
// same bytes.
func TestJournalByteIdenticalAcrossParallelism(t *testing.T) {
	sequential := journalBytes(t)

	const workers = 3
	got := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = journalBytes(t)
		}(i)
	}
	wg.Wait()
	for i, b := range got {
		if !bytes.Equal(b, sequential) {
			t.Fatalf("worker %d journal differs from the sequential run (%d vs %d bytes)", i, len(b), len(sequential))
		}
	}
}

// render captures one explain view of the journal at path.
func render(t *testing.T, view func()) []byte {
	t.Helper()
	var buf bytes.Buffer
	prev := out
	out = &buf
	defer func() { out = prev }()
	view()
	return buf.Bytes()
}

// TestExplainOutputByteIdentical renders every explain view from a
// sequentially produced journal and from one produced under a full
// worker pool, and requires the texts to match byte for byte.
func TestExplainOutputByteIdentical(t *testing.T) {
	a := journalBytes(t)

	var b []byte
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); journalBytes(t) }() // contending load
	go func() { defer wg.Done(); b = journalBytes(t) }()
	wg.Wait()

	views := func(raw []byte) []byte {
		path := filepath.Join(t.TempDir(), "run.pjl")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := obs.ReadJournal(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		// Pick the first decision's subject so the victim query renders a
		// full candidate-set story.
		var subject string
		for _, r := range j.Records {
			if r.Kind == obs.RecDecision {
				subject = r.Task
				break
			}
		}
		if subject == "" {
			t.Fatal("workload produced no preemption decisions; grow it")
		}
		var all []byte
		all = append(all, render(t, func() { printSummary("run.pjl", j) })...)
		all = append(all, render(t, func() { explainTask(j, subject, -1) })...)
		all = append(all, render(t, func() { printTimeline(j) })...)
		return all
	}

	ta, tb := views(a), views(b)
	if !bytes.Equal(ta, tb) {
		t.Fatalf("explain output differs across parallel levels:\n--- sequential (%d bytes)\n%s\n--- parallel (%d bytes)\n%s",
			len(ta), firstDiffWindow(ta, tb), len(tb), firstDiffWindow(tb, ta))
	}
}

// firstDiffWindow returns a readable window around the first divergence.
func firstDiffWindow(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	hi := i + 120
	if hi > len(a) {
		hi = len(a)
	}
	return fmt.Sprintf("...%s...", a[lo:hi])
}
