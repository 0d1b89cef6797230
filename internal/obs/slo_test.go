package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// sloSink is what the retired tracker and the registry view share; the
// tracker's tests below hold both to the same expectations.
type sloSink interface {
	AddWaste(coreHours float64)
	AddFailureWaste(coreHours float64)
	AddUseful(coreHours float64)
	Count(ev Event)
	ObserveResponse(band string, seconds float64)
	Snapshot() SLOSnapshot
}

// verdict is an Algorithm 1 decision edge for action, and fallback the
// edge of a checkpoint verdict that degraded to a kill.
func verdict(action string) Event { return Event{Kind: EvDecision, Name: action} }

var fallback = Event{Kind: EvKillFallback, Name: "checkpoint-full"}

func eachSLOSink(t *testing.T, f func(t *testing.T, s sloSink)) {
	t.Run("tracker", func(t *testing.T) { f(t, NewSLOTracker()) })
	t.Run("view", func(t *testing.T) { f(t, NewRegistry().SLO()) })
}

func TestSLOTrackerMath(t *testing.T) {
	eachSLOSink(t, func(t *testing.T, s sloSink) {
		s.AddWaste(1)
		s.AddWaste(2)
		s.AddUseful(7)
		s.Count(verdict("checkpoint-full"))
		s.Count(verdict("checkpoint-incremental"))
		s.Count(verdict("checkpoint-full"))
		s.Count(verdict("kill"))
		s.Count(fallback)
		// Edges that are not verdicts count nowhere.
		s.Count(Event{Kind: EvDump, Name: "kill"})
		s.Count(Event{Kind: EvRestore})
		for i := 0; i < 100; i++ {
			s.ObserveResponse("high", float64(i+1))
		}

		snap := s.Snapshot()
		if snap.WasteCoreHours != 3 || snap.UsefulCoreHours != 7 {
			t.Fatalf("core-hours = %v/%v, want 3/7", snap.WasteCoreHours, snap.UsefulCoreHours)
		}
		if snap.WasteFraction != 0.3 {
			t.Fatalf("waste fraction = %v, want 0.3", snap.WasteFraction)
		}
		if snap.CheckpointDecisions != 3 || snap.KillDecisions != 1 || snap.FallbackKills != 1 {
			t.Fatalf("decisions = %+v", snap)
		}
		if snap.CheckpointHitRate != 0.75 {
			t.Fatalf("hit rate = %v, want 0.75", snap.CheckpointHitRate)
		}

		hi, ok := snap.Response["high"]
		if !ok {
			t.Fatal("response map missing high band")
		}
		if hi.Count != 100 {
			t.Fatalf("high count = %d, want 100", hi.Count)
		}
		if hi.Mean != 50.5 {
			t.Fatalf("high mean = %v, want 50.5", hi.Mean)
		}
		if hi.P50 <= 0 || hi.P95 < hi.P50 || hi.P99 < hi.P95 || hi.Max < hi.P99 {
			t.Fatalf("percentiles not monotone: %+v", hi)
		}
		// Observations flow into the all-jobs distribution too.
		if all := snap.Response["all"]; all.Count != 100 {
			t.Fatalf("all count = %d, want 100", all.Count)
		}
	})
}

func TestSLOTrackerFixedBands(t *testing.T) {
	eachSLOSink(t, func(t *testing.T, s sloSink) {
		snap := s.Snapshot()
		for _, b := range []string{"all", "low", "medium", "high"} {
			if _, ok := snap.Response[b]; !ok {
				t.Fatalf("fresh snapshot missing band %q (schema requires fixed keys)", b)
			}
		}
		if snap.WasteFraction != 0 || snap.CheckpointHitRate != 0 {
			t.Fatal("zero-state ratios must be 0, not NaN")
		}
	})
}

// TestSLOTrackerNilSafe pins the zero SLO: the zero value and the view of a
// nil registry swallow every event, and their snapshot is the one a fresh
// registry reports — the fixed four bands with zero counts, which is what
// the report schema requires of any `slo` object.
func TestSLOTrackerNilSafe(t *testing.T) {
	var nilReg *Registry
	for name, s := range map[string]SLO{"zero": {}, "nil-registry": nilReg.SLO()} {
		s.AddWaste(1)
		s.AddFailureWaste(1)
		s.AddUseful(1)
		s.Count(verdict("checkpoint-full"))
		s.Count(fallback)
		s.ObserveResponse("high", 1)
		if got, want := s.Snapshot(), NewRegistry().SLO().Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s view snapshot = %+v, want the empty snapshot %+v", name, got, want)
		}
	}
	snap := SLO{}.Snapshot()
	if len(snap.Response) != 4 {
		t.Fatalf("zero SLO reports bands %v, want the fixed four", snap.Response)
	}
	for band, r := range snap.Response {
		if r != (SLOResponse{}) {
			t.Errorf("zero SLO band %s = %+v, want zero counts", band, r)
		}
	}
}

func TestSLOTrackerConcurrent(t *testing.T) {
	actions := []string{"kill", "checkpoint-incremental"}
	eachSLOSink(t, func(t *testing.T, s sloSink) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					s.AddWaste(0.5)
					s.AddFailureWaste(0.25)
					s.Count(verdict(actions[i%2]))
					s.ObserveResponse("low", float64(i))
					if i%50 == 0 {
						if snap := s.Snapshot(); snap.WasteFailureCoreHours > snap.WasteCoreHours {
							t.Errorf("mid-write snapshot has more failure waste (%v) than waste (%v)",
								snap.WasteFailureCoreHours, snap.WasteCoreHours)
						}
					}
				}
			}()
		}
		wg.Wait()
		snap := s.Snapshot()
		if got := snap.KillDecisions + snap.CheckpointDecisions; got != 2000 {
			t.Fatalf("decisions = %d, want 2000", got)
		}
		if snap.Response["low"].Count != 2000 {
			t.Fatalf("low count = %d, want 2000", snap.Response["low"].Count)
		}
		// Binary fractions: the sums are exact in any interleaving.
		if snap.WasteCoreHours != 1500 || snap.WasteFailureCoreHours != 500 {
			t.Fatalf("waste = %v (failure %v), want 1500 (500)", snap.WasteCoreHours, snap.WasteFailureCoreHours)
		}
	})
}

// TestSLOViewMatchesTracker drives one seeded stream of six kinds of input
// (the three accruals, verdict edges of every action, kill-fallback edges
// and response times, with edges the SLO ignores mixed in) through the
// retired tracker and through the registry view.
//
// GIVEN the same events in the same order
// WHEN both are snapshotted, mid-stream and at the end
// THEN every field is equal, floats bit for bit: the view adds the same
// addends in the same order and derives the same ratios and percentiles.
func TestSLOViewMatchesTracker(t *testing.T) {
	bands := []string{"low", "medium", "high", "all"}
	actions := []string{"kill", "checkpoint-full", "checkpoint-incremental"}
	ignored := []EventKind{EvDump, EvPreDump, EvRestore, EvTaskDone, EvNodeDown, EvPlace}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref, view := NewSLOTracker(), NewRegistry().SLO()
		var kinds [6]int
		for i := 0; i < 4000; i++ {
			k := rng.Intn(6)
			kinds[k]++
			// Core-hours and seconds with full mantissas, so a reordered or
			// regrouped sum would show.
			v := rng.ExpFloat64() * 3.7
			for _, s := range []sloSink{ref, view} {
				switch k {
				case 0:
					s.AddWaste(v)
				case 1:
					s.AddFailureWaste(v)
				case 2:
					s.AddUseful(v)
				case 3:
					s.Count(verdict(actions[i%len(actions)]))
					s.Count(Event{Kind: ignored[i%len(ignored)], Name: actions[i%len(actions)]})
				case 4:
					s.Count(fallback)
				case 5:
					s.ObserveResponse(bands[i%len(bands)], v*100)
				}
			}
			if i%500 == 499 {
				requireSameSLO(t, ref.Snapshot(), view.Snapshot())
			}
		}
		for k, n := range kinds {
			if n == 0 {
				t.Fatalf("seed %d never produced event kind %d", seed, k)
			}
		}
		requireSameSLO(t, ref.Snapshot(), view.Snapshot())
	}
}

func requireSameSLO(t *testing.T, want, got SLOSnapshot) {
	t.Helper()
	same := func(field string, w, g float64) {
		t.Helper()
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("%s: view %v (%#x), tracker %v (%#x)", field, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	same("waste", want.WasteCoreHours, got.WasteCoreHours)
	same("failure waste", want.WasteFailureCoreHours, got.WasteFailureCoreHours)
	same("preemption waste", want.WastePreemptionCoreHours, got.WastePreemptionCoreHours)
	same("useful", want.UsefulCoreHours, got.UsefulCoreHours)
	same("waste fraction", want.WasteFraction, got.WasteFraction)
	same("hit rate", want.CheckpointHitRate, got.CheckpointHitRate)
	if want.KillDecisions != got.KillDecisions || want.CheckpointDecisions != got.CheckpointDecisions ||
		want.FallbackKills != got.FallbackKills {
		t.Fatalf("decisions: view %d/%d/%d, tracker %d/%d/%d", got.KillDecisions, got.CheckpointDecisions,
			got.FallbackKills, want.KillDecisions, want.CheckpointDecisions, want.FallbackKills)
	}
	if len(want.Response) != len(got.Response) {
		t.Fatalf("bands: view %v, tracker %v", got.Response, want.Response)
	}
	for band, w := range want.Response {
		g, ok := got.Response[band]
		if !ok || w.Count != g.Count {
			t.Fatalf("band %s: view %+v, tracker %+v", band, g, w)
		}
		same(band+" mean", w.Mean, g.Mean)
		same(band+" p50", w.P50, g.P50)
		same(band+" p95", w.P95, g.P95)
		same(band+" p99", w.P99, g.P99)
		same(band+" max", w.Max, g.Max)
	}
}

// TestSLOIsAViewOverRegistrySeries: what the view records is what the
// registry exports under the eleven fixed names, two views of one registry are
// the same SLO, and nothing derived is stored.
func TestSLOIsAViewOverRegistrySeries(t *testing.T) {
	reg := NewRegistry()
	s := reg.SLO()
	s.AddWaste(1)
	s.AddFailureWaste(0.5)
	s.AddUseful(4.5)
	s.Count(verdict("checkpoint-incremental"))
	s.Count(verdict("kill"))
	s.Count(fallback)
	s.ObserveResponse("high", 2)

	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"slo.waste.core.hours": 1.5, "slo.waste.failure.core.hours": 0.5, "slo.useful.core.hours": 4.5,
	} {
		if got, ok := snap.Gauges[name]; !ok || got != want {
			t.Errorf("gauge %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{
		"slo.decisions.kill", "slo.decisions.checkpoint", "slo.decisions.checkpoint.incremental", "slo.kills.fallback",
	} {
		if got, ok := snap.Counters[name]; !ok || got != 1 {
			t.Errorf("counter %s = %d (present %v), want 1", name, got, ok)
		}
	}
	for name, want := range map[string]uint64{
		"slo.response.all.seconds": 1, "slo.response.low.seconds": 0,
		"slo.response.medium.seconds": 0, "slo.response.high.seconds": 1,
	} {
		if h, ok := snap.Histograms[name]; !ok || h.Count != want {
			t.Errorf("histogram %s count = %d (present %v), want %d", name, h.Count, ok, want)
		}
	}
	if n := len(snap.Gauges) + len(snap.Counters) + len(snap.Histograms); n != 11 {
		t.Errorf("the SLO registered %d series %+v, want its eleven and nothing derived", n, snap)
	}
	if got, want := reg.SLO().Snapshot(), s.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("a second view of the registry reads %+v, the first %+v", got, want)
	}
	if got := s.Snapshot(); got.WasteFraction != 0.25 || got.CheckpointHitRate != 0.5 {
		t.Errorf("derived on read: waste fraction %v, hit rate %v, want 0.25 and 0.5", got.WasteFraction, got.CheckpointHitRate)
	}
}
