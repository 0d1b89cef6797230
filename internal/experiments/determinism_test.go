package experiments

import (
	"strings"
	"testing"

	"preemptsched/internal/metrics"
)

// The parallel harness's contract (DESIGN.md §11): the same seed produces
// byte-identical rendered tables at every -parallel level. These tests
// are the proof the pool is allowed to exist — each generator (and the
// full RunAll report) is rendered from a cold cache strictly
// sequentially and again with an eight-worker pool, and the outputs must
// match byte for byte. Run with -race to also catch unsynchronized
// access the equality check can't see.

// tinyOptions shrinks inputs below testOptions: determinism only needs
// equality, not statistically meaningful shapes, and the suite pays for
// two full cold evaluations.
func tinyOptions() Options {
	o := Default()
	o.TraceTasks = 4_000
	o.SimJobs = 120
	o.SimTasksPerJob = 3
	o.YarnJobs = 6
	o.YarnTasks = 60
	return o
}

func renderTables(tbs ...*metrics.Table) string {
	var sb strings.Builder
	for _, tb := range tbs {
		sb.WriteString(tb.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// oneTable adapts the common generator signature.
func oneTable(f func(Options) (*metrics.Table, error)) func(Options) (string, error) {
	return func(o Options) (string, error) {
		tb, err := f(o)
		if err != nil {
			return "", err
		}
		return renderTables(tb), nil
	}
}

// generator renders one named artefact to text.
type generator struct {
	name   string
	render func(Options) (string, error)
}

// generators is every catalog entry plus the full report.
func generators() []generator {
	var gens []generator
	for _, f := range Catalog {
		gens = append(gens, generator{f.Name, func(o Options) (string, error) {
			tbs, err := f.Tables(o)
			if err != nil {
				return "", err
			}
			return renderTables(tbs...), nil
		}})
	}
	return append(gens, generator{"RunAll", func(o Options) (string, error) {
		var sb strings.Builder
		if err := RunAll(o, &sb); err != nil {
			return "", err
		}
		return sb.String(), nil
	}})
}

// renderAllAt renders every generator starting from a cold cache at the
// given parallelism. Within the pass the memo cache warms progressively,
// exactly as one harness invocation would experience it.
func renderAllAt(t *testing.T, o Options, parallel int) map[string]string {
	t.Helper()
	ResetRunCache()
	o.Parallel = parallel
	out := make(map[string]string)
	for _, g := range generators() {
		s, err := g.render(o)
		if err != nil {
			t.Fatalf("parallel=%d %s: %v", parallel, g.name, err)
		}
		if s == "" {
			t.Fatalf("parallel=%d %s rendered empty", parallel, g.name)
		}
		out[g.name] = s
	}
	return out
}

func TestDeterminismAcrossParallelism(t *testing.T) {
	o := tinyOptions()
	seq := renderAllAt(t, o, 1)
	par := renderAllAt(t, o, 8)
	for _, g := range generators() {
		if seq[g.name] != par[g.name] {
			t.Errorf("%s: output differs between -parallel=1 and -parallel=8\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s",
				g.name, seq[g.name], par[g.name])
		}
	}
}

// TestDeterminismReplay pins the replay half of the contract: the same
// seed and parallelism rerun from a cold cache reproduces the full
// report byte for byte.
func TestDeterminismReplay(t *testing.T) {
	o := tinyOptions()
	render := func() string {
		ResetRunCache()
		o.Parallel = 8
		var sb strings.Builder
		if err := RunAll(o, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Error("two cold RunAll passes with the same seed differ")
	}
}

// TestDeterminismSeedSensitivity guards against the trivial way the
// determinism tests could pass: output that doesn't depend on the inputs
// at all.
func TestDeterminismSeedSensitivity(t *testing.T) {
	o := tinyOptions()
	ResetRunCache()
	a, err := oneTable(Fig3a)(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Seed += 1
	ResetRunCache()
	b, err := oneTable(Fig3a)(o)
	if err != nil {
		t.Fatal(err)
	}
	ResetRunCache()
	if a == b {
		t.Error("Fig3a identical under different seeds — determinism test is vacuous")
	}
}
