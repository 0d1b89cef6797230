package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistQuantiles(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.99, 99.01},
	}
	for _, tt := range tests {
		if got := d.Quantile(tt.q); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.Quantile(0.5) != 0 || d.Mean() != 0 || d.CDF(4) != nil {
		t.Error("empty dist should report zeros/nil")
	}
}

func TestDistCDFMonotone(t *testing.T) {
	var d Dist
	for _, x := range []float64{5, 1, 9, 3, 3, 7} {
		d.Add(x)
	}
	pts := d.CDF(10)
	if len(pts) != 10 {
		t.Fatalf("CDF len = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].F <= pts[i-1].F {
			t.Fatalf("CDF not monotone at %d: %+v", i, pts)
		}
	}
	if pts[len(pts)-1].X != 9 || pts[len(pts)-1].F != 1 {
		t.Errorf("CDF should end at (max, 1): %+v", pts[len(pts)-1])
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestDistQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, qa, qb float64) bool {
		var d Dist
		n := 0
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				d.Add(x)
				n++
			}
		}
		if n == 0 {
			return true
		}
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := d.Quantile(qa), d.Quantile(qb)
		return va <= vb && va >= d.Quantile(0) && vb <= d.Quantile(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 12345.678)
	s := tb.String()
	if !strings.Contains(s, "== Demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "1.5") {
		t.Errorf("missing cells:\n%s", s)
	}
	if !strings.Contains(s, "12346") {
		t.Errorf("large float not rounded to integer form:\n%s", s)
	}
}
