package density

import (
	"strings"
	"testing"
)

// GIVEN a cell with more jobs than tasks, a negative or over-full priority
// mix, or a non-positive load factor,
// WHEN it is generated,
// THEN Generate returns an error naming each field at fault instead of
// emitting jobs sized from nonsense.
func TestGenerateRejectsNonsenseCells(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fields []string
		sp     Spec
	}{
		{"more jobs than tasks", []string{"Jobs", "Tasks"}, Spec{Jobs: 101}},
		{"negative high share", []string{"HighShare"}, Spec{HighShare: -0.1, MidShare: 0.3}},
		{"mix over one", []string{"HighShare", "MidShare"}, Spec{HighShare: 0.7, MidShare: 0.5}},
		{"negative load factor", []string{"LoadFactor"}, Spec{LoadFactor: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.sp.Nodes, tc.sp.Tasks = 10, 100
			jobs, err := Generate(tc.sp)
			if err == nil {
				t.Fatalf("Generate accepted the cell and made %d jobs", len(jobs))
			}
			for _, f := range tc.fields {
				if !strings.Contains(err.Error(), f) {
					t.Errorf("error %q does not name %s", err, f)
				}
			}
		})
	}
}
