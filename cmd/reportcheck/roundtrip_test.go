package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"preemptsched/internal/core"
	"preemptsched/internal/faults"
	"preemptsched/internal/report"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
	"preemptsched/internal/yarn"
)

// GIVEN a chaos run that rots one replica of every block under a scrubber
// and loses a NodeManager mid-run, written the way clusterrun -report-json
// writes it (report.New(...).WriteFile),
// WHEN reportcheck reads the file back through that same report.Report,
// THEN the schema and all three contracts (-integrity -slo -failures)
// hold, and the type drops nothing: decoding and re-encoding the document
// reproduces the file byte for byte. reportcheck has no report struct of
// its own to drift from the writer's.
func TestWrittenReportRoundTrips(t *testing.T) {
	wc := workload.DefaultFacebookConfig()
	wc.Jobs = 6
	wc.TotalTasks = 60
	jobs, err := workload.Facebook(wc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := yarn.DefaultConfig(core.PolicyCheckpoint, storage.NVM)
	cfg.Nodes = 3
	cfg.ContainersPerNode = 2
	cfg.ScrubEveryNDumps = 2
	cfg.Faults = &faults.Plan{Seed: 13, BitFlipRate: 1, NMCrashAt: 5 * time.Minute, NMCrashNode: 1}
	res, runErr := yarn.Run(cfg, jobs)
	if res == nil {
		t.Fatal(runErr)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := report.New(res, runErr).WriteFile(path); err != nil {
		t.Fatal(err)
	}

	if err := run(schemaPath, path, true, true, true); err != nil {
		t.Errorf("written report fails its own contracts: %v", err)
	}

	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report.Report
	if err := json.Unmarshal(written, &rep); err != nil {
		t.Fatal(err)
	}
	again, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), written) {
		t.Errorf("report does not survive a decode/encode round trip through report.Report (%d vs %d bytes)", len(again)+1, len(written))
	}
}
