package obs

import (
	"testing"
	"time"
)

// GIVEN the round-trip pairing rules (RoundTrip's doc comment, DESIGN.md
// §13),
// WHEN a task goes through each sequence of verdicts, dump windows and
// mishaps below,
// THEN the restore that ends the sequence carries the estimate and the
// dump windows only of a trip that is still open.
func TestRoundTripPairing(t *testing.T) {
	const (
		est     = 20 * time.Second
		restore = 3 * time.Second
	)
	for _, tc := range []struct {
		name                string
		steps               func(*RoundTrip)
		wantEst, wantActual time.Duration
	}{
		{"no trip", func(*RoundTrip) {}, 0, restore},
		{"checkpoint, dump", func(rt *RoundTrip) {
			rt.Open(est)
			rt.Dumped(5*time.Second, 1)
		}, est, 8 * time.Second},
		{"checkpoint, pre-dump, freeze dump", func(rt *RoundTrip) {
			rt.Open(est)
			rt.Dumped(5*time.Second, 1)
			rt.Dumped(time.Second, 2)
		}, est, 9 * time.Second},
		{"second restore of the same image", func(rt *RoundTrip) {
			rt.Open(est)
			rt.Dumped(5*time.Second, 1)
			rt.Close(restore)
		}, 0, restore},
		{"kill verdict after a closed trip", func(rt *RoundTrip) {
			rt.Open(est)
			rt.Dumped(5*time.Second, 1)
			rt.Close(restore)
			rt.Abandon()
		}, 0, restore},
		{"kill-fallback or node failure mid-trip", func(rt *RoundTrip) {
			rt.Open(est)
			rt.Dumped(5*time.Second, 1)
			rt.Abandon()
		}, 0, restore},
		{"a new verdict starts from zero", func(rt *RoundTrip) {
			rt.Open(est)
			rt.Dumped(5*time.Second, 1)
			rt.Abandon()
			rt.Open(est / 2)
			rt.Dumped(time.Second, 2)
		}, est / 2, 4 * time.Second},
	} {
		var rt RoundTrip
		tc.steps(&rt)
		gotEst, gotActual := rt.Close(restore)
		if gotEst != tc.wantEst || gotActual != tc.wantActual {
			t.Errorf("%s: restore carries est %v actual %v, want est %v actual %v",
				tc.name, gotEst, gotActual, tc.wantEst, tc.wantActual)
		}
		if rt.Est() != 0 {
			t.Errorf("%s: estimate %v survives the restore", tc.name, rt.Est())
		}
	}

	// The dump span names the image's writer, not the trip: it survives.
	var rt RoundTrip
	rt.Open(est)
	rt.Dumped(time.Second, 7)
	rt.Close(restore)
	rt.Abandon()
	if rt.Span() != 7 {
		t.Errorf("span %d after close and abandon, want the dump's 7", rt.Span())
	}
}
