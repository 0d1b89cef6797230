package energy

import (
	"testing"
	"time"
)

func TestPowerLinearAndClamped(t *testing.T) {
	m := Model{IdleWatts: 100, PeakWatts: 300}
	tests := []struct {
		u, want float64
	}{
		{0, 100}, {0.5, 200}, {1, 300}, {-1, 100}, {2, 300},
	}
	for _, tt := range tests {
		if got := m.Power(tt.u); got != tt.want {
			t.Errorf("Power(%v) = %v, want %v", tt.u, got, tt.want)
		}
	}
}

func TestMeterIntegration(t *testing.T) {
	mt := NewMeter(Model{IdleWatts: 100, PeakWatts: 300})
	mt.Accumulate(0.5, time.Hour)   // 200 W for 1 h = 0.2 kWh
	mt.Accumulate(1.0, time.Hour/2) // 300 W for 0.5 h = 0.15 kWh
	mt.Accumulate(0, -time.Hour)    // ignored
	if got := mt.KWh(); got < 0.3499 || got > 0.3501 {
		t.Errorf("KWh = %v, want 0.35", got)
	}
}

func TestDefaultModel(t *testing.T) {
	m := DefaultModel()
	if m.IdleWatts <= 0 || m.PeakWatts <= m.IdleWatts {
		t.Errorf("implausible default model %+v", m)
	}
}
