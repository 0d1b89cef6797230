package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Store is a byte container for checkpoint images. The local-filesystem
// implementation lives here; the DFS client provides a distributed
// implementation with the same shape, which is what lets the checkpoint
// engine switch between local and remote images exactly as the paper's
// CRIU+HDFS extension does.
type Store interface {
	// Create opens a named object for writing, truncating any previous
	// content. Closing the returned writer publishes the object.
	Create(name string) (io.WriteCloser, error)
	// Open opens a named object for reading.
	Open(name string) (io.ReadCloser, error)
	// Remove deletes a named object. Removing a missing object is an error.
	Remove(name string) error
	// Size reports the byte size of a named object.
	Size(name string) (int64, error)
	// List returns the names of all objects with the given prefix, sorted.
	List(prefix string) ([]string, error)
}

// ErrNotExist is the sentinel all absent-object errors match, so callers
// can classify them with errors.Is even through wrapping layers (the DFS
// client, fault-injection wrappers).
var ErrNotExist = errors.New("storage: object does not exist")

// NotExistError is returned when a named object is absent. It matches
// ErrNotExist under errors.Is.
type NotExistError struct{ Name string }

func (e *NotExistError) Error() string {
	return fmt.Sprintf("storage: object %q does not exist", e.Name)
}

func (e *NotExistError) Is(target error) bool { return target == ErrNotExist }

// MemStore is an in-memory Store. It is safe for concurrent use; the
// mini-YARN framework's node-local volumes and the tests use it.
type MemStore struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objects: make(map[string][]byte)}
}

var _ Store = (*MemStore)(nil)

type memWriter struct {
	buf    bytes.Buffer
	name   string
	store  *MemStore
	closed bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("storage: write to closed object %q", w.name)
	}
	return w.buf.Write(p)
}

func (w *memWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	w.store.objects[w.name] = append([]byte(nil), w.buf.Bytes()...)
	return nil
}

// Create implements Store.
func (s *MemStore) Create(name string) (io.WriteCloser, error) {
	return &memWriter{name: name, store: s}, nil
}

// Open implements Store.
func (s *MemStore) Open(name string) (io.ReadCloser, error) {
	s.mu.RLock()
	data, ok := s.objects[name]
	s.mu.RUnlock()
	if !ok {
		return nil, &NotExistError{Name: name}
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// Remove implements Store.
func (s *MemStore) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[name]; !ok {
		return &NotExistError{Name: name}
	}
	delete(s.objects, name)
	return nil
}

// Size implements Store.
func (s *MemStore) Size(name string) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[name]
	if !ok {
		return 0, &NotExistError{Name: name}
	}
	return int64(len(data)), nil
}

// List implements Store.
func (s *MemStore) List(prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var names []string
	for name := range s.objects {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}
