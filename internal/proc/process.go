package proc

import (
	"fmt"
	"sync"
)

// State is the lifecycle state of a virtual process.
type State int

const (
	// Created means the process exists but has not run.
	Created State = iota + 1
	// Running means the process may execute steps.
	Running
	// Suspended means the process was checkpointed and its execution frozen.
	Suspended
	// Exited means the program finished.
	Exited
	// Killed means the process was destroyed without saving progress.
	Killed
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Running:
		return "running"
	case Suspended:
		return "suspended"
	case Exited:
		return "exited"
	case Killed:
		return "killed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// NumRegisters is the size of the virtual register file. Programs keep
// small counters (loop indices, phase markers) here; everything larger
// belongs in memory.
const NumRegisters = 16

// Registers is the CPU-visible state the checkpoint engine saves alongside
// memory: a program counter and a general-purpose register file.
type Registers struct {
	PC uint64
	R  [NumRegisters]uint64
}

// Program is a resumable computation executing inside a process. Programs
// must keep all mutable state in the process's memory and registers so a
// restored process continues correctly; a Program value itself must be
// stateless (it is re-created from the Registry on restore).
type Program interface {
	// Name identifies the program in checkpoint images; Restore uses it to
	// look up a factory in the Registry.
	Name() string
	// Init lays out the initial memory/register state. Called exactly once
	// for a fresh process, never for a restored one.
	Init(p *Process) error
	// Step advances the computation by one quantum and reports whether the
	// program has finished.
	Step(p *Process) (done bool, err error)
}

// Process is a virtual process.
type Process struct {
	id      string
	mem     *Memory
	regs    Registers
	program Program
	state   State
	steps   uint64
}

// New creates a process running program with the given backing and logical
// memory sizes, and initializes the program.
func New(id string, program Program, realBytes, logicalBytes int64) (*Process, error) {
	return NewWithSetup(id, program, realBytes, logicalBytes, nil)
}

// NewWithSetup creates a process like New, but runs setup (typically
// register configuration) after the address space exists and before the
// program's Init executes. Programs whose Init reads configuration from
// registers need this ordering.
func NewWithSetup(id string, program Program, realBytes, logicalBytes int64, setup func(*Process)) (*Process, error) {
	if program == nil {
		return nil, fmt.Errorf("proc: nil program for process %q", id)
	}
	mem, err := NewMemory(realBytes, logicalBytes)
	if err != nil {
		return nil, err
	}
	p := &Process{id: id, mem: mem, program: program, state: Created}
	if setup != nil {
		setup(p)
	}
	if err := program.Init(p); err != nil {
		return nil, fmt.Errorf("proc: init program %q: %w", program.Name(), err)
	}
	p.state = Running
	return p, nil
}

// Rebuild reconstructs a process from checkpointed state. The memory must
// already contain the restored pages. It is used by the checkpoint engine.
func Rebuild(id string, program Program, mem *Memory, regs Registers, steps uint64) *Process {
	return &Process{id: id, mem: mem, program: program, regs: regs, state: Running, steps: steps}
}

// ID returns the process identifier.
func (p *Process) ID() string { return p.id }

// Memory returns the process address space.
func (p *Process) Memory() *Memory { return p.mem }

// Registers returns a pointer to the live register file.
func (p *Process) Registers() *Registers { return &p.regs }

// Program returns the executing program.
func (p *Process) Program() Program { return p.program }

// State returns the lifecycle state.
func (p *Process) State() State { return p.state }

// Steps returns the number of executed program steps.
func (p *Process) Steps() uint64 { return p.steps }

// Step executes one program quantum. It returns true when the program
// completed. Stepping a non-running process is an error.
func (p *Process) Step() (bool, error) {
	if p.state != Running {
		return false, fmt.Errorf("proc: step process %q in state %v", p.id, p.state)
	}
	done, err := p.program.Step(p)
	if err != nil {
		return false, fmt.Errorf("proc: program %q step %d: %w", p.program.Name(), p.steps, err)
	}
	p.steps++
	p.regs.PC = p.steps
	if done {
		p.state = Exited
	}
	return done, nil
}

// Suspend freezes a running process (SIGSTOP analogue). The checkpoint
// engine calls this before dumping.
func (p *Process) Suspend() error {
	if p.state != Running {
		return fmt.Errorf("proc: suspend process %q in state %v", p.id, p.state)
	}
	p.state = Suspended
	return nil
}

// ResumeInPlace unfreezes a suspended process without a restore cycle
// (SIGCONT analogue).
func (p *Process) ResumeInPlace() error {
	if p.state != Suspended {
		return fmt.Errorf("proc: resume process %q in state %v", p.id, p.state)
	}
	p.state = Running
	return nil
}

// Kill destroys the process, discarding progress.
func (p *Process) Kill() {
	if p.state == Exited {
		return
	}
	p.state = Killed
}

// Release kills a process that will not run again and gives its pages to the
// address-space list; its Memory holds no array afterwards. Releasing a
// Created or Running process panics: its program would write into another
// process's pages. A second Release is a no-op.
func (p *Process) Release() {
	if p.state == Created || p.state == Running {
		panic(fmt.Sprintf("proc: release of %v process %q", p.state, p.id))
	}
	p.Kill()
	PutSpace(p.mem.data)
	p.mem.data, p.mem.dirty = nil, nil
}

// Registry maps program names to factories so Restore can re-instantiate
// the right Program for an image.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]func() Program
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]func() Program)}
}

// Register associates name with a program factory. Registering a duplicate
// name panics: it is a wiring bug, and silently replacing factories would
// make restores ambiguous.
func (r *Registry) Register(name string, factory func() Program) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("proc: duplicate program registration %q", name))
	}
	r.factories[name] = factory
}

// New instantiates the program registered under name.
func (r *Registry) New(name string) (Program, error) {
	r.mu.RLock()
	factory, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("proc: program %q not registered", name)
	}
	return factory(), nil
}
