package storage

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"preemptsched/internal/cluster"
)

func TestDevicePresetsOrdering(t *testing.T) {
	hdd, ssd, nvm := NewDevice(HDD), NewDevice(SSD), NewDevice(NVM)
	size := cluster.GiB(5)
	th, ts, tn := hdd.WriteTime(size), ssd.WriteTime(size), nvm.WriteTime(size)
	if !(th > ts && ts > tn) {
		t.Fatalf("write times not ordered: hdd=%v ssd=%v nvm=%v", th, ts, tn)
	}
	// Paper Fig. 2a: SSD 3-4x faster than HDD, NVM 10-15x faster than SSD.
	if r := th.Seconds() / ts.Seconds(); r < 3 || r > 4.5 {
		t.Errorf("HDD/SSD ratio = %.2f, want 3-4.5", r)
	}
	if r := ts.Seconds() / tn.Seconds(); r < 10 || r > 16 {
		t.Errorf("SSD/NVM ratio = %.2f, want 10-16", r)
	}
}

func TestDeviceTable3Calibration(t *testing.T) {
	// Table 3: first (full) checkpoint of a 5 GB image.
	tests := []struct {
		kind Kind
		want float64 // seconds
		tol  float64
	}{
		{HDD, 169.18, 0.15},
		{SSD, 43.73, 0.15},
		{NVM, 2.92, 0.15},
	}
	for _, tt := range tests {
		d := NewDevice(tt.kind)
		got := d.WriteTime(cluster.GiB(5)).Seconds()
		if got < tt.want*(1-tt.tol) || got > tt.want*(1+tt.tol) {
			t.Errorf("%v: 5GB dump = %.2fs, paper measured %.2fs", tt.kind, got, tt.want)
		}
	}
}

func TestDeviceZeroBytes(t *testing.T) {
	d := NewDevice(SSD)
	if d.WriteTime(0) != 100*time.Microsecond {
		t.Errorf("zero-byte write should cost one op latency, got %v", d.WriteTime(0))
	}
	if d.ReadTime(-5) != 100*time.Microsecond {
		t.Errorf("negative read should cost one op latency, got %v", d.ReadTime(-5))
	}
}

func TestDeviceQueueing(t *testing.T) {
	d := NewCustomDevice(1e9, 0) // 1 GB/s, no latency
	// Two 1 GB writes issued at t=0 must serialize.
	s1, d1 := d.ReserveWrite(0, 1e9)
	if s1 != 0 || d1 != time.Second {
		t.Fatalf("first op: start=%v done=%v", s1, d1)
	}
	s2, d2 := d.ReserveWrite(0, 1e9)
	if s2 != time.Second || d2 != 2*time.Second {
		t.Fatalf("second op did not queue: start=%v done=%v", s2, d2)
	}
	if got := d.QueueDelay(0); got != 2*time.Second {
		t.Errorf("QueueDelay(0) = %v, want 2s", got)
	}
	if got := d.QueueDelay(3 * time.Second); got != 0 {
		t.Errorf("QueueDelay after drain = %v, want 0", got)
	}
	if d.BusyTime() != 2*time.Second {
		t.Errorf("BusyTime = %v", d.BusyTime())
	}
}

// Property: reservations never overlap and starts are monotone.
func TestDeviceReservationsSerializeProperty(t *testing.T) {
	f := func(sizesKB []uint16) bool {
		d := NewDevice(SSD)
		var lastDone time.Duration
		for i, kb := range sizesKB {
			now := time.Duration(i) * time.Millisecond
			start, done := d.ReserveWrite(now, int64(kb)*1024)
			if start < now || start < lastDone || done < start {
				return false
			}
			lastDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewDevicePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewDevice(Custom) },
		func() { NewCustomDevice(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestParseKindRoundTrip: every preset kind parses back from its own
// String, in any case; the flag spellings are exactly the documented set.
func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{HDD, SSD, NVM, NVRAM} {
		for _, s := range []string{k.String(), strings.ToLower(k.String())} {
			if got, err := ParseKind(s); err != nil || got != k {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, k)
			}
		}
	}
	if got, err := ParseKind("PMFS"); err != nil || got != NVM {
		t.Errorf("ParseKind(PMFS) = %v, %v; want NVM", got, err)
	}
	for _, s := range []string{"", "custom", "Kind(0)", "floppy", " ssd"} {
		if got, err := ParseKind(s); err == nil {
			t.Errorf("ParseKind(%q) = %v, want an error", s, got)
		}
	}
}

// TestNewNodeDevice: the constructor both schedulers build node devices
// (and validate their configuration) with returns the preset, or the
// custom device that overrides it, or an error — never a panic.
func TestNewNodeDevice(t *testing.T) {
	for _, k := range []Kind{HDD, SSD, NVM, NVRAM} {
		d, err := NewNodeDevice(k, 0)
		if err != nil || d.Kind() != k || d.Label() != k.String() || *d != *NewDevice(k) {
			t.Errorf("NewNodeDevice(%v, 0) = %+v, %v", k, d, err)
		}
	}
	for _, k := range []Kind{0, SSD, Custom} {
		d, err := NewNodeDevice(k, 2.5e9)
		if err != nil || *d != *NewCustomDevice(2.5e9, 0) || d.Label() != "2.5GB/s" {
			t.Errorf("NewNodeDevice(%v, 2.5e9) = %+v, %v", k, d, err)
		}
	}
	for _, bad := range []struct {
		kind Kind
		bw   float64
	}{{0, 0}, {Custom, 0}, {Kind(99), 0}, {SSD, -1}} {
		if d, err := NewNodeDevice(bad.kind, bad.bw); err == nil {
			t.Errorf("NewNodeDevice(%v, %v) = %+v, want an error", bad.kind, bad.bw, d)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{HDD: "HDD", SSD: "SSD", NVM: "NVM", Custom: "Custom"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	w, err := s.Create("img/1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Open("img/1")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello world" {
		t.Errorf("read back %q", data)
	}
	if n, err := s.Size("img/1"); err != nil || n != 11 {
		t.Errorf("Size = %d, %v", n, err)
	}
}

func TestMemStoreVisibilityOnClose(t *testing.T) {
	s := NewMemStore()
	w, _ := s.Create("obj")
	w.Write([]byte("data"))
	if _, err := s.Open("obj"); err == nil {
		t.Error("object visible before Close")
	}
	w.Close()
	if _, err := s.Open("obj"); err != nil {
		t.Errorf("object missing after Close: %v", err)
	}
	// Double close is a no-op; write-after-close fails.
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after close succeeded")
	}
}

func TestMemStoreMissing(t *testing.T) {
	s := NewMemStore()
	var notExist *NotExistError
	if _, err := s.Open("nope"); !errors.As(err, &notExist) {
		t.Errorf("Open missing: %v", err)
	}
	if _, err := s.Size("nope"); !errors.As(err, &notExist) {
		t.Errorf("Size missing: %v", err)
	}
	if err := s.Remove("nope"); !errors.As(err, &notExist) {
		t.Errorf("Remove missing: %v", err)
	}
}

func TestMemStoreRemoveAndList(t *testing.T) {
	s := NewMemStore()
	for _, name := range []string{"a/1", "a/2", "b/1"} {
		w, _ := s.Create(name)
		w.Write([]byte(name))
		w.Close()
	}
	names, err := s.List("a/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a/1" || names[1] != "a/2" {
		t.Errorf("List = %v", names)
	}
	if err := s.Remove("a/1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("a/1"); err == nil {
		t.Error("removed object still readable")
	}
	if names, _ := s.List(""); len(names) != 2 || names[0] != "a/2" || names[1] != "b/1" {
		t.Errorf("List after Remove = %v", names)
	}
}

func TestMemStoreOverwrite(t *testing.T) {
	s := NewMemStore()
	for _, content := range []string{"first", "second!"} {
		w, _ := s.Create("obj")
		w.Write([]byte(content))
		w.Close()
	}
	r, _ := s.Open("obj")
	data, _ := io.ReadAll(r)
	if string(data) != "second!" {
		t.Errorf("overwrite failed: %q", data)
	}
}
