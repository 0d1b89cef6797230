package kmeans

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"preemptsched/internal/proc"
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

// stepFull is Program.Step as it was before a converged step kept its
// fixed point: every call reads every point and runs the whole Lloyd
// iteration. It is the test-only reference FuzzConvergedStep holds Step
// to. Do not "fix" or share code with it: it is useful only as long as it
// stays what shipped.
func stepFull(p *proc.Process) (bool, error) {
	n, dims, k, centroidsOff, err := layout(p)
	if err != nil {
		return false, err
	}
	m := p.Memory()
	iter, err := m.ReadU64(hdrOffIter)
	if err != nil {
		return false, err
	}
	maxIters := p.Registers().R[3]
	if maxIters == 0 {
		maxIters = 1
	}

	it := lloydPool.Get().(*lloyd)
	defer lloydPool.Put(it)
	it.begin(k, dims)
	if err := m.ReadF64s(it.centroids, centroidsOff); err != nil {
		return false, err
	}
	for first, chunk := 0, rowChunk(dims); first < n; first += chunk {
		rows := it.rows[:min(chunk, n-first)*dims]
		if err := m.ReadF64s(rows, pointsOff+int64(first*dims)*8); err != nil {
			return false, err
		}
		it.addRows(rows, nil)
	}
	moved := it.recentre()

	if err := m.WriteF64s(it.centroids, centroidsOff); err != nil {
		return false, err
	}
	if err := m.WriteF64(hdrOffMove, moved); err != nil {
		return false, err
	}
	iter++
	if err := m.WriteU64(hdrOffIter, iter); err != nil {
		return false, err
	}
	return iter >= maxIters, nil
}

// fullProgram is Program stepping through stepFull.
type fullProgram struct{ Program }

func (fullProgram) Step(p *proc.Process) (bool, error) { return stepFull(p) }

// hostile decodes one point word FuzzConvergedStep writes after Init. An
// odd kind is a huge value, or one within two binades of 2⁻⁴⁰⁰ — the
// smallest centroid magnitude a converged step trusts — or of 2⁻⁵⁶⁰, whose
// differences square to 0; either sign. An even kind is one of value's:
// NaN, ±Inf, ±0, a subnormal, any bit pattern, or a fraction.
func (s *valueStream) hostile() float64 {
	kind := s.byte()
	if kind%2 == 0 {
		return s.value()
	}
	base := [...]int{1021, -400, -560}[kind>>2%3]
	v := math.Ldexp(1+float64(s.byte())/256, base+int(kind>>4%4)-2)
	if kind&2 != 0 {
		return -v
	}
	return v
}

// maxHostileWords bounds the point words one input overwrites.
const maxHostileWords = 64

// convergedCase is one FuzzConvergedStep input: a k-means process of k ∈
// [1, 13] clusters of dims ∈ [1, 9], k to three row chunks of points and 1
// to 16 iterations at a seed, whose points are then scaled by 2^scale and
// overwritten with hostile words; refresh makes the centroids the first k
// of those points, as Init takes them from the dataset it draws.
type convergedCase struct {
	k, dims  uint8
	n        uint16
	maxIters uint8
	seed     int64
	scale    int16
	refresh  bool
	hostile  []byte
}

// requireSameSteps builds the case twice, once stepping through Program
// and once through stepFull, and steps both until they finish or fail. It
// fails on the first step after which the two differ in their memory
// bytes, the pages that step dirtied, their registers, or what Step
// returned. It returns how many of Program's steps started from a fixed
// point it trusts, and the movement the full step recorded each step.
func requireSameSteps(t *testing.T, c convergedCase) (trusted int, moves []float64) {
	t.Helper()
	k, dims := 1+int(c.k%13), 1+int(c.dims%9)
	n := k + int(c.n)%(3*rowChunk(dims)-k+1)
	iters := 1 + uint64(c.maxIters%16)
	mem := MemoryBytes(n, dims, k)
	build := func(prog proc.Program) *proc.Process {
		p, err := proc.NewWithSetup("km", prog, mem, mem, func(p *proc.Process) {
			Configure(p, uint64(n), uint64(dims), uint64(k), iters, c.seed)
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	got, want := build(Program{}), build(fullProgram{})

	points := make([]float64, n*dims)
	if err := got.Memory().ReadF64s(points, pointsOff); err != nil {
		t.Fatal(err)
	}
	for i := range points {
		points[i] = math.Ldexp(points[i], int(c.scale)%1100)
	}
	s := &valueStream{c.hostile}
	for w := 0; len(s.b) > 0 && w < maxHostileWords; w++ {
		at := int(uint16(s.byte())<<8|uint16(s.byte())) % len(points)
		points[at] = s.hostile()
	}
	centroidsOff := pointsOff + int64(n*dims)*8
	for _, p := range []*proc.Process{got, want} {
		m := p.Memory()
		if err := m.WriteF64s(points, pointsOff); err != nil {
			t.Fatal(err)
		}
		if c.refresh {
			if err := m.WriteF64s(points[:k*dims], centroidsOff); err != nil {
				t.Fatal(err)
			}
		}
	}

	for step := 1; ; step++ {
		got.Memory().ClearSoftDirty()
		want.Memory().ClearSoftDirty()
		iter, _ := Iterations(got)
		centroids := make([]float64, k*dims)
		if err := got.Memory().ReadF64s(centroids, centroidsOff); err != nil {
			t.Fatal(err)
		}
		if converged(got.Memory(), iter, centroids) {
			trusted++
		}
		gotDone, gotErr := got.Step()
		wantDone, wantErr := want.Step()
		where := fmt.Sprintf("k=%d dims=%d n=%d seed=%d, step %d", k, dims, n, c.seed, step)
		if gotDone != wantDone || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: Step returns (%v, %v), the full step (%v, %v)", where, gotDone, gotErr, wantDone, wantErr)
		}
		for i := range got.Memory().NumPages() {
			if g, w := got.Memory().Page(i), want.Memory().Page(i); !bytes.Equal(g, w) {
				t.Fatalf("%s: page %d differs from the full step's", where, i)
			}
		}
		if g, w := got.Memory().DirtyPages(), want.Memory().DirtyPages(); !slices.Equal(g, w) {
			t.Fatalf("%s: dirtied pages %v, the full step %v", where, g, w)
		}
		if g, w := *got.Registers(), *want.Registers(); g != w {
			t.Fatalf("%s: registers %+v, the full step's %+v", where, g, w)
		}
		moved, _ := LastMovement(want)
		moves = append(moves, moved)
		if gotDone || gotErr != nil {
			return trusted, moves
		}
	}
}

// rawWords encodes hostile writes of words, bit for bit, over point words
// 0, 1, 2, ….
func rawWords(words ...float64) []byte {
	var b []byte
	for i, w := range words {
		b = append(b, byte(i>>8), byte(i), 0, 7) // an even hostile kind, then value's any-bit-pattern kind
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(w))
	}
	return b
}

// yarnTask is yarn-batch's k-means task at a seed: 240 points of 4 dims,
// k = 4, 10 iterations.
func yarnTask(seed int64) convergedCase {
	return convergedCase{k: 3, dims: 3, n: 236, maxIters: 9, seed: seed}
}

// tinyMove is four 1-dims points, u = 2⁻⁵²⁰ and δ = 2⁻⁵⁴⁰ apart:
// 0, 10u, q = 5u + δ/4 and 20u − q + 3δ, at k = 2 from the first two. The
// first step moves centroid 1 from 10u to 10u + δ, whose square rounds to
// +0, so it records a movement of +0; that move shifts the boundary past
// q, so the second step moves q to cluster 0 and both centroids with it.
func tinyMove() convergedCase {
	u, delta := 0x1p-520, 0x1p-540
	q := 5*u + delta/4
	return convergedCase{k: 1, n: 2, maxIters: 2, refresh: true, hostile: rawWords(0, 10*u, q, 20*u-q+3*delta)}
}

// nanMove is four 2-dims points, (1, 1), (10, 1), (NaN, 4) and (2, 1), at
// k = 2 from the first two. The first step puts the NaN point in cluster
// 0, whose centroid becomes (NaN, 2): a NaN movement, which the maximum
// skips, so the step records +0. No finite point is ever nearer a NaN
// centroid, so the second step moves (1, 1) and (2, 1) to cluster 1.
func nanMove() convergedCase {
	return convergedCase{k: 1, dims: 1, n: 2, maxIters: 2, refresh: true, hostile: rawWords(1, 1, 10, 1, math.NaN(), 4, 2, 1)}
}

// convergedSeeds are the cases FuzzConvergedStep starts from: yarn-batch's
// task at two seeds that converge at iteration 2 and at the four of its
// 1,200 task seeds that converge at 3; service-stream's 8/2/2 for 16
// iterations; k = 1 at 9 dims and k = 13 at 1 dim over three whole row
// chunks; tinyMove and nanMove; datasets scaled into the subnormals, near 2⁻⁴⁰⁰ and
// 2⁻⁵²⁰, and to where distances overflow, with centroids refreshed from
// them; and random shapes with 1 to 40 hostile words of random kinds,
// refreshed and not.
func convergedSeeds() []convergedCase {
	var seeds []convergedCase
	for _, seed := range []int64{0, 17*1_000_003 + 5, 27_000_102, 30_000_092, 32_000_098, 33_000_103} {
		seeds = append(seeds, yarnTask(seed))
	}
	seeds = append(seeds,
		convergedCase{k: 1, dims: 1, n: 6, maxIters: 15, seed: 21},
		convergedCase{k: 0, dims: 8, n: 338, maxIters: 15, seed: 5},
		convergedCase{k: 12, dims: 0, n: 3059, maxIters: 15, seed: 9},
		tinyMove(),
		nanMove(),
	)
	for i, scale := range []int16{-1070, -520, -400, 1000, 1017} {
		seeds = append(seeds, convergedCase{k: 2, dims: 1, n: 40, maxIters: 15, seed: int64(i), scale: scale, refresh: true})
	}
	rng := rand.New(rand.NewSource(31))
	for i := range 16 {
		hostile := make([]byte, 4+rng.Intn(40*12))
		rng.Read(hostile)
		seeds = append(seeds, convergedCase{
			k: byte(rng.Intn(13)), dims: byte(rng.Intn(9)), n: uint16(rng.Intn(200)),
			maxIters: 15, seed: int64(i), refresh: i%2 == 0, hostile: hostile,
		})
	}
	return seeds
}

// GIVEN k-means processes of k ∈ [1, 13] clusters of dims ∈ [1, 9] and up
// to three row chunks of points at a seed, whose points were then scaled
// by a power of two and overwritten with NaN, ±Inf, ±0, subnormals, huge
// values and values near 2⁻⁴⁰⁰ and 2⁻⁵⁶⁰, with centroids kept or taken from
// the altered points,
// WHEN one twin steps through Program.Step, which keeps a converged fixed
// point, and the other through stepFull, to their last iteration,
// THEN after every step the two hold the same memory bytes, dirtied the
// same pages, have the same registers, and Step returned the same.
func FuzzConvergedStep(f *testing.F) {
	for _, c := range convergedSeeds() {
		f.Add(c.k, c.dims, c.n, c.maxIters, c.seed, c.scale, c.refresh, c.hostile)
	}
	f.Fuzz(func(t *testing.T, k, dims uint8, n uint16, maxIters uint8, seed int64, scale int16, refresh bool, hostile []byte) {
		requireSameSteps(t, convergedCase{k, dims, n, maxIters, seed, scale, refresh, hostile})
	})
}

// GIVEN yarn-batch's k-means task at two task seeds that converge at
// iteration 2 and at the four of the 1,200 (jobs 0–39 × tasks 0–29) that
// converge at iteration 3,
// WHEN Program.Step and stepFull step them to their tenth iteration,
// THEN every step is the same, and every step after the one that first
// recorded a movement of +0 starts from a fixed point Step trusts: 8 of
// 10, or 7.
func TestConvergedStepKeepsFixedPoint(t *testing.T) {
	for _, seed := range []int64{0, 17*1_000_003 + 5, 27_000_102, 30_000_092, 32_000_098, 33_000_103} {
		trusted, moves := requireSameSteps(t, yarnTask(seed))
		first := slices.Index(moves, 0) + 1
		if first < 2 || trusted != len(moves)-first {
			t.Errorf("seed %d: movements %v, %d steps trusted a fixed point; want %d", seed, moves, trusted, len(moves)-first)
		}
	}
}

// GIVEN tinyMove and nanMove, whose first steps move a centroid yet
// record a movement of +0,
// WHEN Program.Step and stepFull step them,
// THEN the second step still moves, and Program.Step computes it: a
// centroid below 2⁻⁴⁰⁰ in magnitude, or NaN, fails the fixed-point guard.
func TestUnrecordedMovesAreRecomputed(t *testing.T) {
	for name, c := range map[string]convergedCase{"tiny": tinyMove(), "NaN": nanMove()} {
		trusted, moves := requireSameSteps(t, c)
		if len(moves) < 2 || math.Float64bits(moves[0]) != 0 || !(moves[1] > 0) || trusted != 0 {
			t.Errorf("%s: movements %v, %d steps trusted a fixed point; want +0 then a move, none trusted", name, moves, trusted)
		}
	}
}
