package density

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"preemptsched/internal/core"
)

// GIVEN the custom 100-node / 5,000-task cell that
// `experiments density -nodes 100 -tasks 5000 -stable -policy P` runs,
// WHEN it is rendered with only its deterministic fields under the basic
// checkpoint and the adaptive policy,
// THEN each rendering is byte for byte the golden file beside this test,
// which that command wrote. Every line is a result of the run, including
// peak_in_flight (sched.Result.PeakInFlight) and the sampled series, so a
// change to scheduling, to the simulator's books or to the sampler moves
// it. Regenerate a golden only when a change is meant to move it, with
// the command above redirected into the file.
func TestStableRenderMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		policy core.Policy
		golden string
	}{
		{core.PolicyCheckpoint, "stable_100n_5k_checkpoint.txt"},
		{core.PolicyAdaptive, "stable_100n_5k_adaptive.txt"},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Spec{Name: "custom-100n", Seed: 1, Nodes: 100, Tasks: 5000, Policy: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			res.Timing = nil
			var got bytes.Buffer
			Render(&got, []*CellResult{res}, false)
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("stable render differs from testdata/%s\n-- got --\n%s\n-- want --\n%s", tc.golden, got.Bytes(), want)
			}
		})
	}
}
