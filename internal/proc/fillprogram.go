package proc

import (
	"encoding/binary"
	"fmt"
)

// FillProgram reproduces the microbenchmark workload of Section 3.3.1: it
// allocates and fills a specified amount of memory, then performs a simple
// rolling computation over it for a configured number of steps. Each step
// touches a configurable fraction of pages, which is what drives the
// incremental-checkpoint experiments (Table 3 modifies 10% of memory
// between dumps).
//
// Memory layout:
//
//	page 0:  header (steps completed, checksum accumulator)
//	page 1+: data pages filled with a deterministic pattern
//
// Register usage:
//
//	R0: total steps to run
//	R1: pages touched per step (spread across the data region)
type FillProgram struct{}

// FillProgramName is the registry name of FillProgram.
const FillProgramName = "memfill"

var _ Program = FillProgram{}

// Name implements Program.
func (FillProgram) Name() string { return FillProgramName }

const (
	fillOffSteps    = 0 // uint64: steps completed
	fillOffChecksum = 8 // uint64: rolling checksum
)

// ConfigureFill sets the run length and per-step write spread on a process
// that will run a FillProgram. Call before the first Step.
func ConfigureFill(p *Process, totalSteps, pagesPerStep uint64) {
	p.Registers().R[0] = totalSteps
	p.Registers().R[1] = pagesPerStep
}

// Init implements Program: fill all data pages with a pattern derived from
// the page index.
func (FillProgram) Init(p *Process) error {
	m := p.Memory()
	if m.NumPages() < 2 {
		return fmt.Errorf("memfill: need at least 2 pages, have %d", m.NumPages())
	}
	buf := make([]byte, PageSize)
	for page := 1; page < m.NumPages(); page++ {
		for i := 0; i < PageSize; i += 8 {
			binary.BigEndian.PutUint64(buf[i:], uint64(page)*0x9E3779B97F4A7C15+uint64(i))
		}
		if err := m.WriteAt(buf, int64(page)*PageSize); err != nil {
			return err
		}
	}
	if err := m.WriteU64(fillOffSteps, 0); err != nil {
		return err
	}
	return m.WriteU64(fillOffChecksum, 0)
}

// Step implements Program: touch R1 data pages and fold their first words
// into the checksum.
func (FillProgram) Step(p *Process) (bool, error) {
	m := p.Memory()
	steps, err := m.ReadU64(fillOffSteps)
	if err != nil {
		return false, err
	}
	total := p.Registers().R[0]
	if total == 0 {
		total = 1
	}
	perStep := p.Registers().R[1]
	if perStep == 0 {
		perStep = 1
	}
	sum, err := m.ReadU64(fillOffChecksum)
	if err != nil {
		return false, err
	}
	dataPages := uint64(m.NumPages() - 1)
	for i := uint64(0); i < perStep; i++ {
		page := 1 + (steps*perStep+i)%dataPages
		off := int64(page) * PageSize
		w, err := m.ReadU64(off)
		if err != nil {
			return false, err
		}
		sum = sum*31 + w
		if err := m.WriteU64(off, w+1); err != nil {
			return false, err
		}
	}
	if err := m.WriteU64(fillOffChecksum, sum); err != nil {
		return false, err
	}
	steps++
	if err := m.WriteU64(fillOffSteps, steps); err != nil {
		return false, err
	}
	return steps >= total, nil
}

// FillChecksum reads the rolling checksum, used by tests to prove that a
// restored process continues the exact computation.
func FillChecksum(p *Process) (uint64, error) {
	return p.Memory().ReadU64(fillOffChecksum)
}
