// Package storage models the storage media the paper evaluates (HDD, SSD,
// and NVM via PMFS) plus throttleable custom devices for the bandwidth
// sensitivity sweeps.
//
// A Device is a *timing* model: it answers how long reading or writing N
// bytes takes and serializes concurrent operations through a FIFO queue,
// mirroring the paper's sequential checkpoint/restore design ("The RM
// maintains a list of checkpoint queues for each node", Section 5.2.2). A
// Store is a *byte* container; the checkpoint engine writes real image
// bytes into a Store while charging virtual time to a Device.
//
// Bandwidth presets are calibrated from the paper's own microbenchmarks
// (Fig. 2a and Table 3): a 5 GB CRIU dump took 169.18 s on HDD (~30 MB/s),
// 43.73 s on SSD (~115 MB/s, 3-4x HDD) and 2.92 s on PMFS (~1.75 GB/s,
// 10-15x SSD).
package storage

import (
	"fmt"
	"strings"
	"time"

	"preemptsched/internal/sim"
)

// Kind enumerates the media classes evaluated in the paper.
type Kind int

const (
	// HDD is spinning disk.
	HDD Kind = iota + 1
	// SSD is flash storage.
	SSD
	// NVM is byte-addressable non-volatile memory exposed through a
	// PMFS-like file system.
	NVM
	// NVRAM uses NVM as virtual memory (the paper's future-work mode):
	// checkpoints are memory copies from DRAM into persistent memory, so
	// writes run at memcpy bandwidth with no serialization and a local
	// resume remaps pages instead of reading them back.
	NVRAM
	// Custom is a device with caller-chosen bandwidth (sensitivity sweeps).
	Custom
)

func (k Kind) String() string {
	switch k {
	case HDD:
		return "HDD"
	case SSD:
		return "SSD"
	case NVM:
		return "NVM"
	case NVRAM:
		return "NVRAM"
	case Custom:
		return "Custom"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Device models one storage medium attached to a node.
type Device struct {
	kind      Kind
	writeBW   float64 // bytes per second
	readBW    float64 // bytes per second
	opLatency time.Duration

	busyUntil sim.Time
	busy      time.Duration // cumulative device-busy time, for I/O overhead accounting
}

// Calibrated effective checkpoint bandwidths (bytes/second). Derived from
// the paper's Table 3 dump times for a 5 GB image; read paths are measured
// in Fig. 2a as roughly symmetric for HDD and moderately faster for flash.
const (
	hddWriteBW = 30e6
	hddReadBW  = 60e6
	ssdWriteBW = 115e6
	ssdReadBW  = 230e6
	nvmWriteBW = 1750e6
	nvmReadBW  = 3000e6
	// NVRAM-as-virtual-memory moves pages at memcpy speed, with no file
	// system or serialization on the path.
	nvramWriteBW = 5000e6
	nvramReadBW  = 8000e6
)

// ParseKind converts a CLI string to a preset Kind, case-insensitively;
// "pmfs" names NVM by the file system the paper exposes it through.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "hdd":
		return HDD, nil
	case "ssd":
		return SSD, nil
	case "nvm", "pmfs":
		return NVM, nil
	case "nvram":
		return NVRAM, nil
	default:
		return 0, fmt.Errorf("storage: unknown kind %q (want hdd|ssd|nvm|pmfs|nvram)", s)
	}
}

// NewNodeDevice builds the checkpoint device a scheduler attaches to one
// of its nodes: a symmetric device of customBW bytes/second when customBW
// is positive (the paper's sensitivity sweeps), the preset of kind
// otherwise. Validating a configuration is calling it and dropping the
// device.
func NewNodeDevice(kind Kind, customBW float64) (*Device, error) {
	if customBW < 0 {
		return nil, fmt.Errorf("storage: negative custom bandwidth %v", customBW)
	}
	if customBW > 0 {
		return NewCustomDevice(customBW, 0), nil
	}
	switch kind {
	case HDD:
		return &Device{kind: HDD, writeBW: hddWriteBW, readBW: hddReadBW, opLatency: 8 * time.Millisecond}, nil
	case SSD:
		return &Device{kind: SSD, writeBW: ssdWriteBW, readBW: ssdReadBW, opLatency: 100 * time.Microsecond}, nil
	case NVM:
		return &Device{kind: NVM, writeBW: nvmWriteBW, readBW: nvmReadBW, opLatency: time.Microsecond}, nil
	case NVRAM:
		return &Device{kind: NVRAM, writeBW: nvramWriteBW, readBW: nvramReadBW, opLatency: 100 * time.Nanosecond}, nil
	default:
		return nil, fmt.Errorf("storage: %v is not a preset kind (want HDD|SSD|NVM|NVRAM, or a custom bandwidth)", kind)
	}
}

// NewDevice returns a device of the given preset kind, for callers that
// name the kind in code; it panics on anything else. Custom kinds must
// use NewCustomDevice.
func NewDevice(kind Kind) *Device {
	d, err := NewNodeDevice(kind, 0)
	if err != nil {
		panic(err)
	}
	return d
}

// NewCustomDevice returns a device with identical read and write bandwidth
// (bytes/second), used for the paper's 1-5 GB/s sensitivity sweeps.
func NewCustomDevice(bandwidth float64, opLatency time.Duration) *Device {
	if bandwidth <= 0 {
		panic("storage: non-positive bandwidth")
	}
	return &Device{kind: Custom, writeBW: bandwidth, readBW: bandwidth, opLatency: opLatency}
}

// Label names the device in results: its kind, or its rate for a custom
// device.
func (d *Device) Label() string {
	if d.kind == Custom {
		return fmt.Sprintf("%.1fGB/s", d.writeBW/1e9)
	}
	return d.kind.String()
}

// Kind returns the device's media class.
func (d *Device) Kind() Kind { return d.kind }

// WriteTime returns the service time to persist n bytes, excluding
// queueing.
func (d *Device) WriteTime(n int64) time.Duration {
	if n <= 0 {
		return d.opLatency
	}
	return d.opLatency + time.Duration(float64(n)/d.writeBW*float64(time.Second))
}

// ReadTime returns the service time to load n bytes, excluding queueing.
func (d *Device) ReadTime(n int64) time.Duration {
	if n <= 0 {
		return d.opLatency
	}
	return d.opLatency + time.Duration(float64(n)/d.readBW*float64(time.Second))
}

// QueueDelay returns how long a request issued at now would wait before the
// device starts serving it. This is the queue_time term of Algorithm 1.
func (d *Device) QueueDelay(now sim.Time) time.Duration {
	if d.busyUntil <= now {
		return 0
	}
	return d.busyUntil - now
}

// Reserve enqueues an operation of the given service time behind all
// previously reserved work and returns its start and completion instants.
// Devices serve one operation at a time (sequential checkpoint/restore).
func (d *Device) Reserve(now sim.Time, service time.Duration) (start, done sim.Time) {
	start = now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	done = start + service
	d.busyUntil = done
	d.busy += service
	return start, done
}

// ReserveWrite reserves a write of n bytes and returns (start, done).
func (d *Device) ReserveWrite(now sim.Time, n int64) (sim.Time, sim.Time) {
	return d.Reserve(now, d.WriteTime(n))
}

// ReserveRead reserves a read of n bytes and returns (start, done).
func (d *Device) ReserveRead(now sim.Time, n int64) (sim.Time, sim.Time) {
	return d.Reserve(now, d.ReadTime(n))
}

// BusyTime returns the cumulative time the device has been (or is reserved
// to be) serving requests. Dividing by elapsed wall time yields the I/O
// overhead series of Fig. 12b.
func (d *Device) BusyTime() time.Duration { return d.busy }
