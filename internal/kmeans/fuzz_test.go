package kmeans

import (
	"math"
	"math/rand"
	"testing"
)

// addOneAtATime is the assignment kernel the four-lane kernel replaced,
// kept as a test-only reference: one SquaredDistance per centroid, in
// centroid order, a strict < against the best so far. FuzzLloyd holds
// addRows to it. Do not "fix" or share code with it: it is useful only as
// long as it stays what shipped.
func (l *lloyd) addOneAtATime(p []float64) int {
	best, bestD := 0, math.MaxFloat64
	for c := range l.counts {
		d := SquaredDistance(p, l.centroids[c*l.dims:(c+1)*l.dims])
		if d < bestD {
			best, bestD = c, d
		}
	}
	l.counts[best]++
	sums := l.sums[best*l.dims : (best+1)*l.dims]
	for d, v := range p {
		sums[d] += v
	}
	return best
}

// valueStream decodes a Lloyd iteration's operands from fuzz input; an
// exhausted stream reads as zeroes.
type valueStream struct{ b []byte }

func (s *valueStream) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return v
}

// value decodes one float64: NaN, ±Inf, ±0, a positive or negative
// subnormal, any bit pattern, or — half the kinds — a sevenths fraction
// scaled by a power of two from 2⁻⁸ to 2⁷, whose squares and sums round.
func (s *valueStream) value() float64 {
	switch kind := s.byte(); kind % 16 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return math.Float64frombits(uint64(s.byte()) + 1)
	case 6:
		return -math.Float64frombits(uint64(s.byte()) + 1)
	case 7:
		var bits uint64
		for range 8 {
			bits = bits<<8 | uint64(s.byte())
		}
		return math.Float64frombits(bits)
	default:
		v := int16(uint16(s.byte())<<8 | uint16(s.byte()))
		return math.Ldexp(float64(v)/7, int(kind>>4)-8)
	}
}

// maxLloydPoints bounds the points one input adds.
const maxLloydPoints = 512

// requireSameLloyd decodes k ∈ [1, 13], dims ∈ [1, 9], k centroid rows —
// each either drawn or a copy of an earlier row, an exact tie — and chunks
// of points until the stream ends. A chunk is a byte whose low bit says
// whether addRows records assignments, two bytes giving its length, 1 to
// rowChunk(dims) rows, and its rows. Each chunk goes through addRows in one
// call and through the reference a point at a time; the check fails on the
// first difference in assignment or counts after a chunk, or in sums,
// centroids or movement, comparing floats by their bits.
func requireSameLloyd(t *testing.T, stream []byte) {
	s := &valueStream{stream}
	k, dims := 1+int(s.byte()%13), 1+int(s.byte()%9)
	got, want := new(lloyd), new(lloyd)
	got.begin(k, dims)
	want.begin(k, dims)
	for c := range k {
		row := got.centroids[c*dims : (c+1)*dims]
		if kind := s.byte(); c > 0 && kind%4 == 0 {
			from := int(kind/4) % c
			copy(row, got.centroids[from*dims:(from+1)*dims])
			continue
		}
		for d := range row {
			row[d] = s.value()
		}
	}
	copy(want.centroids, got.centroids)
	rows, assign := make([]float64, rowChunk(dims)*dims), make([]int, rowChunk(dims))
	for added := 0; len(s.b) > 0 && added < maxLloydPoints; {
		record := s.byte()%2 == 1
		length := 1 + int(uint16(s.byte())<<8|uint16(s.byte()))%min(rowChunk(dims), maxLloydPoints-added)
		m := 0
		for ; m < length && len(s.b) > 0; m++ {
			for d := range dims {
				rows[m*dims+d] = s.value()
			}
		}
		if m == 0 {
			break
		}
		var out []int
		if record {
			out = assign[:m]
		}
		got.addRows(rows[:m*dims], out)
		for r := range m {
			p := rows[r*dims : (r+1)*dims]
			if w := want.addOneAtATime(p); record && out[r] != w {
				t.Fatalf("k=%d dims=%d point %d %v: addRows assigns %d, the one-at-a-time kernel %d", k, dims, added+r, p, out[r], w)
			}
		}
		for c := range k {
			if got.counts[c] != want.counts[c] {
				t.Fatalf("k=%d dims=%d after %d points: count[%d] = %d, reference %d", k, dims, added+m, c, got.counts[c], want.counts[c])
			}
		}
		added += m
	}
	requireSameBits(t, "sum", got.sums, want.sums)
	if g, w := got.recentre(), want.recentre(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("movement %v, reference %v", g, w)
	}
	requireSameBits(t, "centroid", got.centroids, want.centroids)
}

// requireSameBits fails unless got and want are the same words bit for bit,
// except that any NaN matches any NaN. Go leaves a NaN's payload to the
// compiler: an add of two NaNs keeps the payload of whichever operand sits
// in the destination register, and the same `sums[d] += v` compiles with
// the operands one way round in addRows and the other in addOneAtATime.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s word %d = %v (%#x), reference %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// lloydSeeds are the streams FuzzLloyd starts from: every k at random
// dimensions over every value kind; every special value in one point; k =
// 13 at 9 dimensions with every row a copy of the first, so that every lane
// of every four-centroid block ties with centroid 0 on every point; and, at
// yarn-batch's 4 dimensions, k ∈ {1, 3, 4, 5, 8, 13} twice over — once with
// every row a copy of the first, once with some rows copies of an earlier
// one — each fed in chunks from 1 row to a whole rowChunk, recorded and
// not, of points that are now and then NaN or ±Inf in one dimension.
func lloydSeeds() [][]byte {
	rng := rand.New(rand.NewSource(29))
	fraction := func(b []byte) []byte {
		return append(b, byte(8+rng.Intn(8))|byte(rng.Intn(16))<<4, byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	// chunk appends a chunk header for m rows, recorded or not.
	chunk := func(b []byte, record bool, m int) []byte {
		flag := byte(0)
		if record {
			flag = 1
		}
		return append(b, flag, byte((m-1)>>8), byte(m-1))
	}
	var seeds [][]byte
	for k := range 13 {
		s := make([]byte, 2048)
		rng.Read(s)
		s[0] = byte(k)
		seeds = append(seeds, s)
	}
	// k = 3 at 1 dimension: centroids 0, -0, NaN; then one recorded chunk
	// of one point of each special kind.
	special := []byte{2, 0, 1, 3, 1, 4, 1, 0}
	special = chunk(special, true, 8)
	seeds = append(seeds, append(special, 0, 1, 2, 3, 4, 5, 9, 6, 9, 7, 0x7F, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF))
	dup := []byte{12, 8, 1}
	for range 9 {
		dup = fraction(dup)
	}
	for range 12 {
		dup = append(dup, 0) // a copy of centroid 0
	}
	for i, m := range []int{1, 113, 100, 86} {
		dup = chunk(dup, i%2 == 0, m)
		for range m * 9 {
			dup = fraction(dup)
		}
	}
	seeds = append(seeds, dup)
	for _, k := range []int{1, 3, 4, 5, 8, 13} {
		for _, allCopies := range []bool{true, false} {
			s := []byte{byte(k - 1), 3, 1}
			for range 4 {
				s = fraction(s)
			}
			for c := 1; c < k; c++ {
				if allCopies || rng.Intn(2) == 0 {
					s = append(s, byte(4*rng.Intn(c))) // a copy of an earlier row
					continue
				}
				s = append(s, 1)
				for range 4 {
					s = fraction(s)
				}
			}
			for i, m := range []int{1, 256, 2, 143} {
				s = chunk(s, (i+k)%2 == 0, m)
				for range m * 4 {
					if rng.Intn(40) == 0 {
						s = append(s, byte(rng.Intn(3))) // NaN, +Inf or -Inf
						continue
					}
					s = fraction(s)
				}
			}
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// GIVEN the chunk kernel and the one-at-a-time kernel it replaced, each
// with the same k ∈ [1, 13] centroids of dims ∈ [1, 9] — duplicates among
// them, so exact ties — and a stream of points holding NaN, ±Inf, ±0,
// subnormals, arbitrary bit patterns and fractions whose sums round,
// WHEN the points go through addRows a chunk of 1 to rowChunk rows at a
// time, with and without an assignment slice, and through the reference
// one at a time, and both recentre,
// THEN each point went to the same cluster, and the sums, the counts, the
// new centroids and the movement are bit for bit the same.
func FuzzLloyd(f *testing.F) {
	for _, s := range lloydSeeds() {
		f.Add(s)
	}
	f.Fuzz(requireSameLloyd)
}
