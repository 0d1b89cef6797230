// Package mapreduce implements a word-count MapReduce job as a
// checkpointable virtual-process program — the paper's stated future work
// ("we plan to apply the proposed approach to a wider range of
// applications, including MapReduce").
//
// The whole job runs inside one process image so OS-level checkpointing
// covers it: the synthetic input corpus, the map-side hash table of word
// counts, and the reduce cursor all live in process memory. A step is one
// map chunk or one reduce sweep; suspending between any two steps and
// resuming — on any node — produces the identical final digest.
//
// Memory layout:
//
//	page 0:            header (phase, cursor, word counter, digest)
//	input region:      the synthetic corpus, written once at Init
//	table region:      open-addressed hash table of (wordHash, count)
//
// Register usage (set by Configure before the first Step):
//
//	R0: input bytes    R1: map chunk bytes per step
//	R2: corpus seed    R3: hash-table buckets (power of two)
package mapreduce

import (
	"fmt"

	"preemptsched/internal/proc"
	"preemptsched/internal/sim"
)

// ProgramName is the registry name of the word-count program.
const ProgramName = "wordcount"

// Program is the checkpointable MapReduce word-count.
type Program struct{}

var _ proc.Program = Program{}

// Name implements proc.Program.
func (Program) Name() string { return ProgramName }

// Job phases.
const (
	phaseMap uint64 = iota
	phaseReduce
	phaseDone
)

// Header offsets (page 0).
const (
	hdrPhase  = 0
	hdrCursor = 8
	hdrWords  = 16
	hdrDigest = 24
)

const inputOff = proc.PageSize

// vocabulary is the closed word set the synthetic corpus draws from; a
// closed set makes collisions and counts meaningful.
var vocabulary = []string{
	"the", "cluster", "scheduler", "preempts", "tasks", "with",
	"checkpoints", "instead", "of", "kills", "saving", "progress",
	"and", "energy", "on", "shared", "nodes", "under", "contention",
	"adaptive", "policies", "pick", "victims", "by", "cost",
}

// Configure sets job parameters in the registers.
func Configure(p *proc.Process, inputBytes, chunkBytes uint64, seed int64, buckets uint64) {
	r := p.Registers()
	r.R[0] = inputBytes
	r.R[1] = chunkBytes
	r.R[2] = uint64(seed)
	r.R[3] = buckets
}

// MemoryBytes returns the backing bytes needed for the given job shape.
func MemoryBytes(inputBytes, buckets int) int64 {
	return int64(proc.PageSize) + int64(inputBytes) + int64(buckets)*16 + proc.PageSize
}

// NewProcess builds a configured word-count process.
func NewProcess(id string, inputBytes, chunkBytes int, seed int64) (*proc.Process, error) {
	return NewProcessScaled(id, inputBytes, chunkBytes, seed, 0)
}

// NewProcessScaled builds a word-count process declaring logicalBytes of
// footprint for checkpoint time accounting.
func NewProcessScaled(id string, inputBytes, chunkBytes int, seed int64, logicalBytes int64) (*proc.Process, error) {
	if inputBytes <= 0 || chunkBytes <= 0 {
		return nil, fmt.Errorf("mapreduce: non-positive sizes %d/%d", inputBytes, chunkBytes)
	}
	buckets := Buckets(inputBytes)
	mem := MemoryBytes(inputBytes, buckets)
	if logicalBytes < mem {
		logicalBytes = mem
	}
	return proc.NewWithSetup(id, Program{}, mem, logicalBytes, func(p *proc.Process) {
		Configure(p, uint64(inputBytes), uint64(chunkBytes), seed, uint64(buckets))
	})
}

func layout(p *proc.Process) (inputLen, chunk int64, buckets int64, tableOff int64, err error) {
	r := p.Registers()
	inputLen, chunk, buckets = int64(r.R[0]), int64(r.R[1]), int64(r.R[3])
	if inputLen <= 0 || chunk <= 0 || buckets <= 0 || buckets&(buckets-1) != 0 {
		return 0, 0, 0, 0, fmt.Errorf("mapreduce: bad configuration input=%d chunk=%d buckets=%d", inputLen, chunk, buckets)
	}
	// Registers reach Step from checkpoint images, so each region is
	// compared against what is left of the memory: the sum of hostile
	// values wraps.
	left := p.Memory().RealBytes() - inputOff
	if inputLen > left || buckets > (left-inputLen)/16 {
		return 0, 0, 0, 0, fmt.Errorf("mapreduce: needs %d input bytes and %d 16-byte buckets after the header page, process has %d bytes", inputLen, buckets, p.Memory().RealBytes())
	}
	return inputLen, chunk, buckets, inputOff + inputLen, nil
}

// Init implements proc.Program: generate the corpus into process memory.
func (Program) Init(p *proc.Process) error {
	inputLen, _, _, _, err := layout(p)
	if err != nil {
		return err
	}
	rng := sim.NewStream(int64(p.Registers().R[2]))
	m := p.Memory()
	buf := make([]byte, 0, inputLen)
	for int64(len(buf)) < inputLen {
		w := vocabulary[rng.Intn(len(vocabulary))]
		if int64(len(buf)+len(w)+1) > inputLen {
			// Pad the tail with spaces to the exact length.
			for int64(len(buf)) < inputLen {
				buf = append(buf, ' ')
			}
			break
		}
		buf = append(buf, w...)
		buf = append(buf, ' ')
	}
	if err := m.WriteAt(buf, inputOff); err != nil {
		return err
	}
	for _, off := range []int64{hdrPhase, hdrCursor, hdrWords, hdrDigest} {
		if err := m.WriteU64(off, 0); err != nil {
			return err
		}
	}
	return nil
}

// fnv1a hashes a word.
func fnv1a(word []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range word {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Step implements proc.Program: one map chunk or one reduce sweep.
func (Program) Step(p *proc.Process) (bool, error) {
	inputLen, chunk, buckets, tableOff, err := layout(p)
	if err != nil {
		return false, err
	}
	m := p.Memory()
	phase, err := m.ReadU64(hdrPhase)
	if err != nil {
		return false, err
	}
	switch phase {
	case phaseMap:
		return false, mapStep(p, inputLen, chunk, buckets, tableOff)
	case phaseReduce:
		return reduceStep(p, buckets, tableOff)
	case phaseDone:
		return true, nil
	default:
		return false, fmt.Errorf("mapreduce: corrupt phase %d", phase)
	}
}

// mapStep tokenizes one input chunk into the hash table. Words split
// across chunk boundaries are handled by extending the read to the next
// space.
func mapStep(p *proc.Process, inputLen, chunk, buckets, tableOff int64) error {
	m := p.Memory()
	cursor, err := m.ReadU64(hdrCursor)
	if err != nil {
		return err
	}
	start := int64(cursor)
	if start >= inputLen {
		return m.WriteU64(hdrPhase, phaseReduce)
	}
	// Chunks end at fixed offsets so the step count is a pure function of
	// the job shape; a word straddling a boundary counts as two tokens,
	// which is deterministic for a given chunk size.
	end := start + chunk
	if end > inputLen {
		end = inputLen
	}
	data := make([]byte, end-start)
	if err := m.ReadAt(data, inputOff+start); err != nil {
		return err
	}
	words, err := m.ReadU64(hdrWords)
	if err != nil {
		return err
	}
	wordStart := -1
	for i := 0; i <= len(data); i++ {
		atEnd := i == len(data)
		if !atEnd && data[i] != ' ' {
			if wordStart < 0 {
				wordStart = i
			}
			continue
		}
		if wordStart >= 0 {
			if err := tableAdd(m, tableOff, buckets, fnv1a(data[wordStart:i])); err != nil {
				return err
			}
			words++
			wordStart = -1
		}
	}
	if err := m.WriteU64(hdrWords, words); err != nil {
		return err
	}
	if err := m.WriteU64(hdrCursor, uint64(end)); err != nil {
		return err
	}
	if end >= inputLen {
		return m.WriteU64(hdrPhase, phaseReduce)
	}
	return nil
}

// tableAdd increments the count of a word hash in the open-addressed
// table.
func tableAdd(m *proc.Memory, tableOff, buckets int64, h uint64) error {
	if h == 0 {
		h = 1 // zero marks an empty bucket
	}
	idx := int64(h) & (buckets - 1)
	if idx < 0 {
		idx = -idx
	}
	for probe := int64(0); probe < buckets; probe++ {
		off := tableOff + ((idx+probe)&(buckets-1))*16
		stored, err := m.ReadU64(off)
		if err != nil {
			return err
		}
		if stored == h {
			count, err := m.ReadU64(off + 8)
			if err != nil {
				return err
			}
			return m.WriteU64(off+8, count+1)
		}
		if stored == 0 {
			if err := m.WriteU64(off, h); err != nil {
				return err
			}
			return m.WriteU64(off+8, 1)
		}
	}
	return fmt.Errorf("mapreduce: hash table full (%d buckets)", buckets)
}

// reduceStep folds a fixed number of buckets into the digest.
func reduceStep(p *proc.Process, buckets, tableOff int64) (bool, error) {
	const bucketsPerStep = 512
	m := p.Memory()
	cursorW, err := m.ReadU64(hdrCursor)
	if err != nil {
		return false, err
	}
	// The reduce cursor reuses the header cursor, restarting from 0: the
	// map phase left it at inputLen, so detect the first reduce step by a
	// cursor beyond the bucket count... simpler: track reduce progress in
	// cursor as buckets*16 offsets beyond 1<<62.
	const reduceBase = uint64(1) << 62
	var i int64
	if cursorW < reduceBase {
		i = 0
	} else {
		i = int64(cursorW - reduceBase)
	}
	digest, err := m.ReadU64(hdrDigest)
	if err != nil {
		return false, err
	}
	endBucket := i + bucketsPerStep
	if endBucket > buckets {
		endBucket = buckets
	}
	for ; i < endBucket; i++ {
		off := tableOff + i*16
		h, err := m.ReadU64(off)
		if err != nil {
			return false, err
		}
		if h == 0 {
			continue
		}
		count, err := m.ReadU64(off + 8)
		if err != nil {
			return false, err
		}
		digest = digest*1099511628211 ^ h ^ count<<1
	}
	if err := m.WriteU64(hdrDigest, digest); err != nil {
		return false, err
	}
	if err := m.WriteU64(hdrCursor, reduceBase+uint64(endBucket)); err != nil {
		return false, err
	}
	if endBucket >= buckets {
		if err := m.WriteU64(hdrPhase, phaseDone); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// Digest reads the final word-count digest from a finished process.
func Digest(p *proc.Process) (uint64, error) {
	return p.Memory().ReadU64(hdrDigest)
}

// Phase reports the job phase (0 map, 1 reduce, 2 done).
func Phase(p *proc.Process) (uint64, error) {
	return p.Memory().ReadU64(hdrPhase)
}

// RegisterWith registers the program with a process registry.
func RegisterWith(reg *proc.Registry) {
	reg.Register(ProgramName, func() proc.Program { return Program{} })
}

// Buckets returns the hash-table size NewProcessScaled will choose for an
// input size.
func Buckets(inputBytes int) int {
	buckets := 1
	for buckets < inputBytes/8 {
		buckets *= 2
	}
	if buckets > 1<<16 {
		buckets = 1 << 16
	}
	return buckets
}

// TotalSteps returns exactly how many Step calls a job of this shape
// takes: one per map chunk plus one per 512-bucket reduce sweep.
func TotalSteps(inputBytes, chunkBytes int) uint64 {
	mapSteps := (inputBytes + chunkBytes - 1) / chunkBytes
	buckets := Buckets(inputBytes)
	reduceSteps := (buckets + 511) / 512
	return uint64(mapSteps + reduceSteps)
}
