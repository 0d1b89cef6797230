package obs

import "time"

// RoundTrip is the Algorithm 1 checkpoint round trip one task is in the
// middle of. Alg. 1 prices a preemption at write + read + queue time; the
// journal holds that estimate against what was measured, and these are the
// pairing rules, written once for every scheduler layer:
//
//   - a checkpoint verdict opens the trip with the estimate it weighed;
//   - every dump window paid toward it (pre-dump, freeze dump) extends it;
//   - the restore that reads the image closes it — that restore record
//     carries the estimate and the measured dump + restore — and clears it;
//   - a kill verdict, a kill-fallback or a node failure abandons it: the
//     image a later restore reads was paid for by an earlier, already
//     closed trip, so that restore carries no estimate and only its own
//     window.
//
// The zero value is a task with no trip open.
type RoundTrip struct {
	est  time.Duration
	dump time.Duration
	span SpanID
}

// Open starts a trip at a checkpoint verdict whose estimate was est.
func (rt *RoundTrip) Open(est time.Duration) { rt.est, rt.dump = est, 0 }

// Dumped extends the trip by one measured dump window, traced as span.
func (rt *RoundTrip) Dumped(window time.Duration, span SpanID) {
	rt.dump += window
	rt.span = span
}

// Close ends the trip at a restore whose own window was restore, and
// returns what that restore record carries: the estimate and the whole
// measured round trip when a trip was open, otherwise zero and the restore
// window alone.
func (rt *RoundTrip) Close(restore time.Duration) (est, actual time.Duration) {
	est, actual = rt.est, rt.dump+restore
	rt.Abandon()
	return est, actual
}

// Abandon drops an open trip without a restore to pair it with.
func (rt *RoundTrip) Abandon() { rt.est, rt.dump = 0, 0 }

// Est is the open trip's estimate, zero when none is open.
func (rt *RoundTrip) Est() time.Duration { return rt.est }

// Span is the span of the newest dump. It names the writer of the image
// on storage rather than the trip, so it outlives Close and Abandon: a
// restore after a kill still reads, and is parented to, that image.
func (rt *RoundTrip) Span() SpanID { return rt.span }
