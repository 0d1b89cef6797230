package core

import (
	"fmt"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/energy"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// ClusterConfig is what both schedulers are told about the cluster they
// run. sched.Config and yarn.Config embed it and add only their own knobs;
// each layer validates it first.
type ClusterConfig struct {
	// Nodes is the machine count; Policy the preemption policy under test.
	Nodes  int
	Policy Policy
	// StorageKind selects the per-node checkpoint device, unless
	// CustomBandwidth is positive: then every node gets a symmetric device
	// of that many bytes/second (the paper's sensitivity sweeps).
	StorageKind     storage.Kind
	CustomBandwidth float64
	// PreCopy enables pre-copy checkpointing (CRIU pre-dump): the bulk of
	// a victim's state is dumped while it keeps running, and the freeze
	// writes only the pages dirtied meanwhile.
	PreCopy bool
	// Observer, when non-nil, receives every lifecycle edge of the run
	// once, as one obs.Event; an *obs.Recorder keeps them as the
	// decision-provenance journal. Nil reports and formats nothing.
	Observer obs.Observer
}

// Validate checks the shared fields; the caller prefixes its layer.
func (c ClusterConfig) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("Nodes=%d must be positive", c.Nodes)
	case c.Policy < PolicyWait || c.Policy > PolicyAdaptive:
		return fmt.Errorf("invalid policy %v", c.Policy)
	}
	_, err := storage.NewNodeDevice(c.StorageKind, c.CustomBandwidth)
	return err
}

// NewLedger opens one node's empty books: capacity, a fresh device of c's
// storage and a meter of energy.DefaultModel.
func (c ClusterConfig) NewLedger(capacity cluster.Resources) (Ledger, error) {
	dev, err := storage.NewNodeDevice(c.StorageKind, c.CustomBandwidth)
	if err != nil {
		return Ledger{}, err
	}
	return Ledger{Cap: capacity, Device: dev, Meter: energy.NewMeter(energy.DefaultModel())}, nil
}

// Ledger is one machine's books on either substrate: capacity, what
// running work holds (Used), what waiting preemptors have parked while
// their victims drain (Reserved), the checkpoint device, and the meter
// that integrates utilization between allocation changes.
type Ledger struct {
	Cap, Used, Reserved cluster.Resources
	Device              *storage.Device
	Meter               *energy.Meter
	lastChange          sim.Time
}

// AvailableFor is what a claimant may take here: free capacity minus the
// reservations, plus own, the claimant's own reservation on this node
// (zero when it holds none), clamped per dimension to [0, free].
func (l *Ledger) AvailableFor(own cluster.Resources) cluster.Resources {
	free := l.Cap.Sub(l.Used)
	avail := free.Sub(l.Reserved).Add(own)
	avail.CPUMillis = max(0, min(avail.CPUMillis, free.CPUMillis))
	avail.MemBytes = max(0, min(avail.MemBytes, free.MemBytes))
	return avail
}

// Settle integrates power at the current utilization up to now.
func (l *Ledger) Settle(now sim.Time) {
	if now > l.lastChange {
		util := float64(l.Used.CPUMillis) / float64(l.Cap.CPUMillis)
		l.Meter.Accumulate(util, time.Duration(now-l.lastChange))
		l.lastChange = now
	}
}

// Alloc books r as held from now; holding more than Cap panics.
func (l *Ledger) Alloc(now sim.Time, r cluster.Resources) {
	l.Settle(now)
	l.Used = l.Used.Add(r)
	if l.Used.Negative() || !l.Used.Fits(l.Cap) {
		panic(fmt.Sprintf("core: node over-allocated: used %v cap %v", l.Used, l.Cap))
	}
}

// Release returns r from now; releasing more than is held panics.
func (l *Ledger) Release(now sim.Time, r cluster.Resources) {
	l.Settle(now)
	l.Used = l.Used.Sub(r)
	if l.Used.Negative() {
		panic(fmt.Sprintf("core: node released into negative: %v", l.Used))
	}
}

// Reserve parks r for a waiting preemptor.
func (l *Ledger) Reserve(r cluster.Resources) { l.Reserved = l.Reserved.Add(r) }

// Unreserve drops a reservation of r. A holder can outlive its reservation
// (a dead node's are cleared wholesale), so the books clamp to zero rather
// than go negative.
func (l *Ledger) Unreserve(r cluster.Resources) {
	l.Reserved = l.Reserved.Sub(r)
	if l.Reserved.Negative() {
		l.Reserved = cluster.Resources{}
	}
}
