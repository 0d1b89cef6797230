package sim

import (
	"math"
	"runtime"
	"testing"
)

// GIVEN the seeds traces, golden reports and exact benchmark counts are
// generated from,
// WHEN NewRNG is asked for their streams,
// THEN the first draws are the ones math/rand has always produced: the
// per-process stream was added beside this sequence, not in place of it.
func TestNewRNGSequenceIsPinned(t *testing.T) {
	for _, tt := range []struct {
		seed int64
		want [3]uint64
	}{
		{0, [3]uint64{0x78fc2ffac2fd9401, 0x1f5b0412ffd341c0, 0x53f65ff94f6ec873}},
		{1, [3]uint64{0x4d65822107fcfd52, 0x78629a0f5f3f164f, 0xd5104dc76695721d}},
		{21, [3]uint64{0xdd352c28c07c0868, 0x6b356abf518badd9, 0xf76ce65340d433a9}},
		{42, [3]uint64{0xafbf64b1967f8c53, 0x8872b44b9fbb971b, 0x4d52f284145b9fe8}},
		{-7, [3]uint64{0x8a5e41e14552000b, 0xe2520710aa2adde6, 0x6115c8521a52b428}},
	} {
		r := NewRNG(tt.seed)
		if got := [3]uint64{r.Uint64(), r.Uint64(), r.Uint64()}; got != tt.want {
			t.Errorf("NewRNG(%d) draws %#x, want %#x", tt.seed, got, tt.want)
		}
	}
}

// The stream is SplitMix64: seed 0 must give the reference implementation's
// published first outputs, through Uint64 and (top 63 bits) through Int63.
func TestStreamIsSplitMix64(t *testing.T) {
	want := [3]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	r := NewStream(0)
	if got := [3]uint64{r.Uint64(), r.Uint64(), r.Uint64()}; got != want {
		t.Errorf("NewStream(0) draws %#x, want %#x", got, want)
	}
	if got := NewStream(0).Int63(); got != int64(want[0]>>1) {
		t.Errorf("Int63 = %#x, want the top 63 bits %#x", got, want[0]>>1)
	}
}

// Statistical sanity of the stream behind every virtual process's dataset:
// uniform and normal draws have the right first two moments, the generator
// does not cycle early, and the small consecutive seeds AppMaster.newProcess
// derives (job·1,000,003 + index) start distinct, unbiased streams.
func TestStreamStatistics(t *testing.T) {
	const n = 100_000
	moments := func(draw func() float64) (mean, variance float64) {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := draw()
			sum += v
			sumSq += v * v
		}
		mean = sum / n
		return mean, sumSq/n - mean*mean
	}
	r := NewStream(1)
	if mean, variance := moments(r.Float64); math.Abs(mean-0.5) > 0.005 || math.Abs(variance-1.0/12) > 0.002 {
		t.Errorf("Float64: mean %.4f variance %.4f, want 0.5 and %.4f", mean, variance, 1.0/12)
	}
	if mean, variance := moments(r.NormFloat64); math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.03 {
		t.Errorf("NormFloat64: mean %.4f variance %.4f, want 0 and 1", mean, variance)
	}

	seen := make(map[uint64]struct{}, n)
	r = NewStream(2)
	for i := 0; i < n; i++ {
		seen[r.Uint64()] = struct{}{}
	}
	if len(seen) != n {
		t.Errorf("%d distinct values in the first %d draws", len(seen), n)
	}

	const seeds = 10_000
	first := make(map[uint64]struct{}, seeds)
	var sum float64
	for seed := int64(0); seed <= seeds; seed++ {
		first[NewStream(seed).Uint64()] = struct{}{}
		sum += NewStream(seed).Float64()
	}
	if len(first) != seeds+1 {
		t.Errorf("seeds 0..%d give %d distinct first draws", seeds, len(first))
	}
	if mean := sum / (seeds + 1); math.Abs(mean-0.5) > 0.01 {
		t.Errorf("first Float64 over consecutive seeds averages %.4f, want 0.5", mean)
	}
}

var sinkRNG *RNG

// Creating a process's stream costs its two small objects — the RNG with
// the 8-byte state inside it, and math/rand's wrapper — against NewRNG's
// 4.9 KB source.
func TestStreamConstructionIsCheap(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { sinkRNG = NewStream(7) }); allocs > 2 {
		t.Errorf("NewStream makes %.0f allocations, want at most 2", allocs)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sinkRNG = NewStream(int64(i))
	}
	runtime.ReadMemStats(&after)
	if perStream := (after.TotalAlloc - before.TotalAlloc) / n; perStream >= 100 {
		t.Errorf("NewStream allocates %d bytes, want under 100", perStream)
	}
}

// GIVEN a stream, an RNG and a zero RNG, each having drawn some mix of
// Int63, Float64, NormFloat64, ExpFloat64, Intn and Perm (or nothing),
// WHEN each is Restarted at a seed,
// THEN its Int63, Float64 and NormFloat64 draws, interleaved, are exactly
// NewStream(seed)'s, it is a stream, and restarting a stream
// allocates nothing: the pooled k-means scratch keeps one stream for every
// process it initialises.
func TestRestartGivesNewStreamsSequence(t *testing.T) {
	const seed = 1_000_003*7 + 2
	mixed := func(r *RNG, n int) *RNG {
		for i := range n {
			switch i % 6 {
			case 0:
				r.Int63()
			case 1:
				r.Float64()
			case 2:
				r.NormFloat64()
			case 3:
				r.ExpFloat64()
			case 4:
				r.Intn(1 + i)
			case 5:
				r.Perm(i % 7)
			}
		}
		return r
	}
	interleaved := func(r *RNG) [3 * 64]uint64 {
		var out [3 * 64]uint64
		for i := 0; i < len(out); i += 3 {
			out[i] = uint64(r.Int63())
			out[i+1] = math.Float64bits(r.Float64())
			out[i+2] = math.Float64bits(r.NormFloat64())
		}
		return out
	}
	want := interleaved(NewStream(seed))
	for _, tt := range []struct {
		name string
		r    *RNG
	}{
		{"fresh stream", NewStream(seed)},
		{"stream after 1 draw", mixed(NewStream(3), 1)},
		{"stream after 257 draws", mixed(NewStream(seed), 257)},
		{"RNG after 40 draws", mixed(NewRNG(seed), 40)},
		{"zero RNG", new(RNG)},
	} {
		tt.r.Restart(seed)
		if got := interleaved(tt.r); got != want {
			t.Errorf("%s: Restart(%d) draws differ from NewStream(%d)'s", tt.name, seed, seed)
		}
		if !tt.r.stream {
			t.Errorf("%s: not a stream after Restart", tt.name)
		}
		// Restarting twice in a row and restarting mid-sequence agree too.
		mixed(tt.r, 13)
		tt.r.Restart(seed)
		if got := interleaved(tt.r); got != want {
			t.Errorf("%s: a second Restart(%d) draws differ", tt.name, seed)
		}
	}
	r := NewStream(1)
	if allocs := testing.AllocsPerRun(100, func() { r.Restart(seed); r.NormFloat64() }); allocs != 0 {
		t.Errorf("restarting a stream allocates %.0f objects", allocs)
	}
}
