package sim

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with an explicit seed so that every stochastic input
// to a simulation is reproducible. All modules draw randomness through an
// RNG handed to them at construction; nothing reads global rand state.
type RNG struct {
	*rand.Rand
	// mix is the source behind Rand when stream is set; it lives in the RNG
	// so a stream costs no allocation of its own.
	mix    splitMix64
	stream bool
}

// NewRNG returns a deterministic source seeded with seed. Its sequence is
// math/rand's, which every trace, golden report and exact benchmark count
// pins; seeding it costs 607 words, so it is for streams made once per run.
func NewRNG(seed int64) *RNG {
	return &RNG{Rand: rand.New(rand.NewSource(seed))}
}

// NewStream returns a deterministic source that costs nothing to seed, for
// streams made once per virtual process (a task's dataset). Its sequence
// differs from NewRNG's for the same seed and is pinned by no golden file.
func NewStream(seed int64) *RNG {
	r := &RNG{mix: splitMix64(seed), stream: true}
	r.Rand = rand.New(&r.mix)
	return r
}

// Restart makes r draw NewStream(seed)'s sequence from its first value,
// whatever r drew before. On a stream it only assigns the state, so a stream kept in pooled scratch serves one virtual process
// after another without allocating; anything else (the zero RNG, one from
// NewRNG) becomes a stream, at one allocation. Int63, Float64, NormFloat64
// and the draws built on them read the state alone; only Read's buffered
// bytes survive a Restart.
func (r *RNG) Restart(seed int64) {
	r.mix = splitMix64(seed)
	if !r.stream {
		r.Rand, r.stream = rand.New(&r.mix), true
	}
}

// splitMix64 is Steele, Lea and Flood's SplitMix64 generator: a Weyl
// sequence through a 64-bit finalizer. The finalizer is a bijection, so
// distinct seeds give distinct first draws and a stream never repeats a
// value within its 2^64 period.
type splitMix64 uint64

var _ rand.Source64 = (*splitMix64)(nil)

func (s *splitMix64) Seed(seed int64) { *s = splitMix64(seed) }

func (s *splitMix64) Uint64() uint64 {
	*s += 0x9E3779B97F4A7C15
	return Mix64(uint64(*s))
}

// Mix64 is SplitMix64's finalizer: a bijection of 64 bits, so distinct
// inputs give distinct outputs, that spreads every input bit over the
// output.
func Mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (s *splitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	return r.ExpFloat64() * mean
}

// LogNormal returns a log-normally distributed value where the underlying
// normal distribution has the given mu and sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Bounded returns a value drawn uniformly from [lo, hi).
func (r *RNG) Bounded(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + r.Float64()*(hi-lo)
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Pareto returns a bounded Pareto-distributed value with shape alpha and
// scale xm, truncated at maxV. Heavy-tailed task durations in cluster traces
// are conventionally modelled this way.
func (r *RNG) Pareto(xm, alpha, maxV float64) float64 {
	v := xm / math.Pow(r.Float64(), 1/alpha)
	if v > maxV {
		return maxV
	}
	return v
}
