package yarn_test

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"preemptsched/internal/checkpoint"
	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/report"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
	"preemptsched/internal/yarn"
)

// wrongDigests publishes every checkpoint manifest with the first digit of
// its sha256 changed and every image as written, so an image still passes
// its own CRC and fails only its manifest.
type wrongDigests struct{ storage.Store }

func (s wrongDigests) Create(name string) (io.WriteCloser, error) {
	w, err := s.Store.Create(name)
	if err != nil || !strings.HasSuffix(name, checkpoint.ManifestSuffix) {
		return w, err
	}
	return &digestChanger{w: w}, nil
}

// digestChanger holds a manifest until Close, then writes it with its
// digest's first digit changed.
type digestChanger struct {
	w   io.WriteCloser
	buf bytes.Buffer
}

func (d *digestChanger) Write(p []byte) (int, error) { return d.buf.Write(p) }

func (d *digestChanger) Close() error {
	b := d.buf.Bytes()
	if i := bytes.Index(b, []byte("sha256=")); i >= 0 && i+len("sha256=") < len(b) {
		digit := &b[i+len("sha256=")]
		if *digit == '0' {
			*digit = '1'
		} else {
			*digit = '0'
		}
	}
	if _, err := d.w.Write(b); err != nil {
		d.w.Close()
		return err
	}
	return d.w.Close()
}

// GIVEN a store whose every checkpoint manifest carries a wrong digest over
// an intact image, so every restore attempt fails manifest verification,
// WHEN a run that checkpoints and restores a task ends,
// THEN the report's restore_verify_failures, which it reads from the
// checkpoint engine's checkpoint.verify.failures series, counts every
// failed restore attempt.
func TestVerifyFailuresReachTheReport(t *testing.T) {
	cfg := yarn.DefaultConfig(core.PolicyCheckpoint, storage.SSD)
	cfg.Nodes = 1
	cfg.ContainersPerNode = 1
	jobs := workload.SensitivityScenario(time.Minute, 30*time.Second, cluster.GiB(5))
	r, err := yarn.RunWrappingStores(cfg, jobs, func(s storage.Store) storage.Store { return wrongDigests{s} })
	if err != nil {
		t.Fatal(err)
	}
	if r.JobsCompleted != len(jobs) {
		t.Fatalf("completed %d of %d jobs", r.JobsCompleted, len(jobs))
	}
	got := report.New(r, nil).Integrity.RestoreVerifyFailures
	if r.RestoreFailures == 0 || got != int64(r.RestoreFailures) {
		t.Errorf("restore_verify_failures = %d, failed restore attempts = %d; want them equal and positive",
			got, r.RestoreFailures)
	}
}
