package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
	"preemptsched/internal/yarn"
)

// tinyMakeRun mirrors main's makeRun at test scale: everything built
// fresh per call so concurrent sweep combinations share nothing.
func tinyMakeRun(policy core.Policy, kind storage.Kind) (yarn.Config, []cluster.JobSpec, error) {
	wc := workload.DefaultFacebookConfig()
	wc.Seed = 21
	wc.Jobs = 4
	wc.TotalTasks = 32
	jobs, err := workload.Facebook(wc)
	if err != nil {
		return yarn.Config{}, nil, err
	}
	cfg := yarn.DefaultConfig(policy, kind)
	cfg.Nodes = 2
	cfg.ContainersPerNode = 4
	return cfg, jobs, nil
}

func testSpecs() []sweepSpec {
	return sweepSpecs(
		[]core.Policy{core.PolicyKill, core.PolicyAdaptive},
		[]storage.Kind{storage.SSD, storage.NVM})
}

// sweep runs the test matrix through runSweepMode at the given
// parallelism and returns what it printed, without the header line (which
// names the pool width), and its error.
func sweep(t *testing.T, parallel int, makeRun func(core.Policy, storage.Kind) (yarn.Config, []cluster.JobSpec, error), reportBase string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := runSweepMode(&out, testSpecs(), parallel, makeRun, reportBase)
	header, rest, _ := strings.Cut(out.String(), "\n")
	if want := fmt.Sprintf("sweeping %d policy × storage combinations", len(testSpecs())); !strings.HasPrefix(header, want) {
		t.Errorf("header %q, want prefix %q", header, want)
	}
	return rest, err
}

// TestSweepDeterministicAcrossParallelism: the canonical summary is
// byte-identical whether the matrix ran sequentially or on four workers.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	seq, err := sweep(t, 1, tinyMakeRun, "")
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep(t, 4, tinyMakeRun, "")
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Errorf("sweep table differs between parallel=1 and parallel=4\n--- parallel=1 ---\n%s\n--- parallel=4 ---\n%s", seq, par)
	}
}

// TestSweepOutcomeOrderCanonical: the summary has one ok row per
// combination in spec order (policy-major, storage-minor) regardless of
// completion order, and each row's policy is the one its result ran.
func TestSweepOutcomeOrderCanonical(t *testing.T) {
	par, err := sweep(t, 4, tinyMakeRun, "")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(par, "\n") {
		if f := strings.Fields(line); len(f) == 11 && f[0] != "policy" {
			rows = append(rows, f)
		}
	}
	specs := testSpecs()
	if len(rows) != len(specs) {
		t.Fatalf("%d rows for %d specs:\n%s", len(rows), len(specs), par)
	}
	for i, spec := range specs {
		if f := rows[i]; f[0] != spec.policy.String() || f[1] != spec.kind.String() || f[10] != "ok" {
			t.Errorf("row %d is %v, want %v/%s ok", i, f, spec.policy, spec.kind)
		}
	}
}

// TestSweepFailuresKeepMatrixRectangular: a failing combination aborts
// its row only; every other combination still runs, the table keeps one
// row per spec, and the sweep returns the failure.
func TestSweepFailuresKeepMatrixRectangular(t *testing.T) {
	out, err := sweep(t, 4, func(policy core.Policy, kind storage.Kind) (yarn.Config, []cluster.JobSpec, error) {
		if policy == core.PolicyKill && kind == storage.NVM {
			return yarn.Config{}, nil, fmt.Errorf("injected failure")
		}
		return tinyMakeRun(policy, kind)
	}, "")
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("sweep error %v, want the injected failure", err)
	}
	var ok, aborted int
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasSuffix(line, " ok"):
			ok++
		case strings.HasSuffix(line, " aborted"):
			aborted++
		}
	}
	if aborted != 1 || ok != len(testSpecs())-1 {
		t.Errorf("%d ok and %d aborted rows, want %d and 1:\n%s", ok, aborted, len(testSpecs())-1, out)
	}
}

// TestSweepReportsValidateAgainstSchema: every per-combination report a
// parallel sweep writes conforms to docs/report.schema.json (schema v2).
func TestSweepReportsValidateAgainstSchema(t *testing.T) {
	schema, err := os.ReadFile(filepath.Join("..", "..", "docs", "report.schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "report.json")
	if _, err := sweep(t, 4, tinyMakeRun, base); err != nil {
		t.Fatal(err)
	}
	for _, spec := range testSpecs() {
		path := comboReportPath(base, spec)
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateJSONSchemaBytes(schema, doc); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
	}
}

func TestComboReportPath(t *testing.T) {
	cases := []struct {
		base string
		spec sweepSpec
		want string
	}{
		{"r.json", sweepSpec{core.PolicyAdaptive, storage.NVM}, "r-adaptive-nvm.json"},
		{"out/run.json", sweepSpec{core.PolicyKill, storage.SSD}, "out/run-kill-ssd.json"},
		{"noext", sweepSpec{core.PolicyCheckpoint, storage.HDD}, "noext-checkpoint-hdd"},
		{"a.b/noext", sweepSpec{core.PolicyKill, storage.SSD}, "a.b/noext-kill-ssd"},
	}
	for _, c := range cases {
		if got := comboReportPath(c.base, c.spec); got != c.want {
			t.Errorf("comboReportPath(%q, %v/%s) = %q, want %q", c.base, c.spec.policy, c.spec.kind, got, c.want)
		}
	}
}

func TestParsePoliciesAndKinds(t *testing.T) {
	ps, err := parsePolicies("kill, adaptive,checkpoint")
	if err != nil || len(ps) != 3 || ps[0] != core.PolicyKill || ps[1] != core.PolicyAdaptive {
		t.Errorf("parsePolicies = %v, %v", ps, err)
	}
	if _, err := parsePolicies("kill,bogus"); err == nil {
		t.Error("parsePolicies accepted bogus policy")
	}
	ks, err := parseKinds("hdd,ssd, nvm,pmfs")
	if err != nil || len(ks) != 4 || ks[2] != storage.NVM || ks[3] != storage.NVM {
		t.Errorf("parseKinds = %v, %v", ks, err)
	}
	if _, err := parseKinds("ssd,floppy"); err == nil {
		t.Error("parseKinds accepted bogus storage")
	}
}

func TestSweepSpecsOrder(t *testing.T) {
	specs := testSpecs()
	want := []sweepSpec{
		{core.PolicyKill, storage.SSD},
		{core.PolicyKill, storage.NVM},
		{core.PolicyAdaptive, storage.SSD},
		{core.PolicyAdaptive, storage.NVM},
	}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs, want %d", len(specs), len(want))
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("spec %d = %v/%s, want %v/%s", i, specs[i].policy, specs[i].kind, want[i].policy, want[i].kind)
		}
	}
}
