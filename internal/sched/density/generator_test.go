package density

import (
	"strings"
	"testing"
	"time"

	"preemptsched/internal/cluster"
)

// GIVEN a cell whose task demand has a zero or negative dimension, or whose
// mean task duration or mean footprint is negative,
// WHEN it is generated,
// THEN Generate returns an error naming the field instead of dividing by
// the zero dimension (a panic) or emitting jobs sized from nonsense: a
// negative duration or a NaN footprint, silently clamped.
func TestGenerateRejectsNonsenseCells(t *testing.T) {
	for _, tc := range []struct {
		name, field string
		sp          Spec
	}{
		{"zero cpu demand", "TaskDemand", Spec{TaskDemand: cluster.Resources{MemBytes: cluster.GiB(4)}}},
		{"zero memory demand", "TaskDemand", Spec{TaskDemand: cluster.Resources{CPUMillis: cluster.Cores(1)}}},
		{"negative cpu demand", "TaskDemand", Spec{TaskDemand: cluster.Resources{CPUMillis: -cluster.Cores(1), MemBytes: cluster.GiB(4)}}},
		{"negative duration", "TaskDuration", Spec{TaskDuration: -time.Minute}},
		{"negative footprint", "MeanFootprint", Spec{MeanFootprint: -cluster.GiB(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.sp.Nodes, tc.sp.Tasks = 10, 100
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Generate panicked: %v", p)
				}
			}()
			jobs, err := Generate(tc.sp)
			if err == nil {
				t.Fatalf("Generate accepted the cell and made %d jobs", len(jobs))
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not name %s", err, tc.field)
			}
		})
	}
}
