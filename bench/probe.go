package main

import (
	"encoding/binary"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The speed probe. The reference box is a small VM on a shared host: the
// same deterministic op runs up to half again as slow for minutes at a
// time when the neighbours are busy, and process CPU time slows with it,
// so no estimator inside one window can tell a slow program from a slow
// box. The probe can: it is a fixed piece of work, independent of the
// program under test, run between ops. Each op's time is divided by how
// much slower than probeRef the probes around it ran, which expresses
// every end-to-end time at one nominal box speed. Over 80 back-to-back
// 18 s windows of yarn-batch's op that cut the spread of the window
// medians from 5.5 % to 3.5 % (coefficient of variation), and over the 34
// of them in which the box drifted from 9.6 % to 3.2 % (quartile distance
// as a share of the median).
//
// The work mixes what the workloads mix: dependent loads missing the
// private caches (a walk through one random cycle over probeTable bytes)
// and branchy compute on cache-resident data (a sort). It allocates
// nothing and its table lives outside the Go heap, so it neither triggers
// a collection nor changes when the program's own collections run.
const (
	probeTable = 16 << 20 // bytes; well past the private caches
	probeSteps = 16_000   // dependent loads per sub-probe
	probeKeys  = 4_096    // keys sorted per sub-probe
	// probeSubs sub-probes make one probe and the fastest is kept: a burst
	// that hits one of them is the noise the op statistics already absorb,
	// what the probe is after is the speed that persists.
	probeSubs = 4
	// probeRef is what one probe takes on the reference box when it is
	// quiet, so that there a normalised time reads about as measured.
	probeRef = 3 * time.Millisecond
)

type probe struct {
	table []byte // little-endian uint32 successor of each slot
	keys  []uint64
	pos   uint32
}

// boxProbe builds the process's probe on first use.
var boxProbe = sync.OnceValue(func() *probe {
	table, err := syscall.Mmap(-1, 0, probeTable, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		// No anonymous mapping to be had: the heap will do, at the price of
		// the program's collections running a little later.
		table = make([]byte, probeTable)
	}
	// Sattolo's shuffle leaves a single cycle through every slot, so the
	// walk never settles into a short, cacheable loop.
	n := uint32(probeTable / 4)
	put := func(i, v uint32) { binary.LittleEndian.PutUint32(table[4*i:], v) }
	get := func(i uint32) uint32 { return binary.LittleEndian.Uint32(table[4*i:]) }
	for i := uint32(0); i < n; i++ {
		put(i, i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x = xorshift(x)
		j := uint32(x % uint64(i))
		vi, vj := get(i), get(j)
		put(i, vj)
		put(j, vi)
	}
	return &probe{table: table, keys: make([]uint64, probeKeys)}
})

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run returns how long the probe's fixed work takes right now.
func (p *probe) run() time.Duration {
	best := time.Duration(1<<63 - 1)
	for s := 0; s < probeSubs; s++ {
		t0 := time.Now()
		pos := p.pos
		for i := 0; i < probeSteps; i++ {
			pos = binary.LittleEndian.Uint32(p.table[4*pos:])
		}
		p.pos = pos
		x := uint64(pos) | 1
		for i := range p.keys {
			x = xorshift(x)
			p.keys[i] = x
		}
		slices.Sort(p.keys)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// slowdown is how much slower than the reference speed the box ran
// between two probes: 1 on the quiet reference box, 1.3 when it runs a
// third slower.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(probeRef)
}
