package faults

import (
	"io"

	"preemptsched/internal/storage"
)

// WrapStore interposes the injector between a writer of checkpoint images
// and its storage.Store: Creates can fail outright, and returned writers
// can tear — accept a prefix of the data, then fail every subsequent
// write. Reads pass through untouched (read-side faults are injected at
// the transport layer, where replica failover can see them).
func WrapStore(inner storage.Store, in *Injector) storage.Store {
	return &faultStore{inner: inner, in: in}
}

type faultStore struct {
	inner storage.Store
	in    *Injector
}

var _ storage.Store = (*faultStore)(nil)

func (s *faultStore) Create(name string) (io.WriteCloser, error) {
	if s.in.noteCreate() {
		return nil, s.in.inject(ModeStoreCrashOps, name)
	}
	if s.in.roll(s.in.plan.CreateFailRate) {
		return nil, s.in.inject(ModeStoreCreateErrors, name)
	}
	w, err := s.inner.Create(name)
	if err != nil {
		return nil, err
	}
	if s.in.roll(s.in.plan.TornWriteRate) {
		limit := s.in.plan.TornWriteBytes
		if limit <= 0 {
			limit = DefaultTornWriteBytes
		}
		return &tornWriter{inner: w, in: s.in, name: name, left: limit}, nil
	}
	if s.in.roll(s.in.plan.SilentTruncateRate) {
		limit := s.in.plan.SilentTruncateBytes
		if limit <= 0 {
			limit = DefaultTornWriteBytes
		}
		return &silentTruncateWriter{inner: w, in: s.in, left: limit}, nil
	}
	return w, nil
}

func (s *faultStore) Open(name string) (io.ReadCloser, error) {
	if s.in.storeCrashed() {
		return nil, s.in.inject(ModeStoreCrashOps, name)
	}
	return s.inner.Open(name)
}

func (s *faultStore) Remove(name string) error {
	if s.in.storeCrashed() {
		return s.in.inject(ModeStoreCrashOps, name)
	}
	return s.inner.Remove(name)
}

func (s *faultStore) Size(name string) (int64, error) {
	if s.in.storeCrashed() {
		return 0, s.in.inject(ModeStoreCrashOps, name)
	}
	return s.inner.Size(name)
}

func (s *faultStore) List(prefix string) ([]string, error) {
	if s.in.storeCrashed() {
		return nil, s.in.inject(ModeStoreCrashOps, prefix)
	}
	return s.inner.List(prefix)
}

// tornWriter accepts left bytes, then fails every write and the close, so
// the caller cannot mistake the truncated object for a published one. The
// tear, not the arming, counts as ModeTornWrites: data that fits under
// the tear point loses nothing.
type tornWriter struct {
	inner io.WriteCloser
	in    *Injector
	name  string
	left  int64
	torn  bool
}

func (w *tornWriter) Write(p []byte) (int, error) {
	if w.torn {
		return 0, w.in.inject(ModeTornWriteWrites, w.name)
	}
	if int64(len(p)) <= w.left {
		w.left -= int64(len(p))
		return w.inner.Write(p)
	}
	n, _ := w.inner.Write(p[:w.left])
	w.left = 0
	w.torn = true
	w.in.count(ModeTornWrites)
	return n, w.in.inject(ModeTornWriteWrites, w.name)
}

func (w *tornWriter) Close() error {
	if !w.torn {
		// The data fit under the tear point; nothing was damaged.
		return w.inner.Close()
	}
	// Close the inner writer to release resources, but report failure: a
	// torn object must never look successfully published.
	_ = w.inner.Close()
	return w.in.inject(ModeTornWriteCloses, w.name)
}

// silentTruncateWriter keeps the first left bytes and silently discards
// the rest: every Write reports full success and Close publishes the
// truncated object. The nastiest storage failure mode — only end-to-end
// verification downstream can notice. The first discarded byte counts as
// ModeSilentTruncations.
type silentTruncateWriter struct {
	inner io.WriteCloser
	in    *Injector
	left  int64
	cut   bool
}

func (w *silentTruncateWriter) Write(p []byte) (int, error) {
	keep := p[:min(int64(len(p)), max(w.left, 0))]
	if len(keep) < len(p) && !w.cut {
		w.cut = true
		w.in.count(ModeSilentTruncations)
	}
	if len(keep) == 0 {
		return len(p), nil
	}
	if _, err := w.inner.Write(keep); err != nil {
		// Even the organic error is swallowed: the writer lies to the end.
		w.left = 0
		return len(p), nil
	}
	w.left -= int64(len(keep))
	return len(p), nil
}

func (w *silentTruncateWriter) Close() error {
	_ = w.inner.Close()
	return nil
}
