// Package energy models cluster power draw. The paper computes energy "by
// taking the average CPU utilization of each machine, converting it to a
// corresponding wattage and multiplying it by the total experiment time"
// (Section 3.3.2); this package implements exactly that linear
// utilization-to-watts model and integrates it over virtual time.
package energy

import "time"

// Model maps CPU utilization to power draw linearly between an idle and a
// peak wattage.
type Model struct {
	IdleWatts float64
	PeakWatts float64
}

// DefaultModel reflects the paper's testbed era (dual Xeon 5650 nodes):
// roughly 100 W idle and 300 W at full load.
func DefaultModel() Model {
	return Model{IdleWatts: 100, PeakWatts: 300}
}

// Power returns the wattage at utilization u in [0, 1]; u is clamped.
func (m Model) Power(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return m.IdleWatts + (m.PeakWatts-m.IdleWatts)*u
}

// Meter integrates a node's energy over time.
type Meter struct {
	model  Model
	joules float64
}

// NewMeter returns a meter using model.
func NewMeter(model Model) *Meter { return &Meter{model: model} }

// Accumulate records an interval of the given duration spent at
// utilization u.
func (m *Meter) Accumulate(u float64, d time.Duration) {
	if d <= 0 {
		return
	}
	m.joules += m.model.Power(u) * d.Seconds()
}

// KWh returns the accumulated energy in kilowatt-hours.
func (m *Meter) KWh() float64 { return m.joules / 3.6e6 }
