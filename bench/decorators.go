package main

import (
	"io"
	"time"

	"preemptsched/internal/dfs"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
)

// tracedStore decorates the storage.Store handed to the checkpoint engine.
// While r is set it records a span per Store call and keeps a busy clock
// of all time spent below this boundary; with r nil every call passes
// straight through.
//
// Write and Read are timed into the busy clock but get no span: an 8 MiB
// image is thousands of page-sized calls that only copy into the DFS
// client's block buffer. The RPCs a buffer flush makes appear as children
// of the engine call instead.
type tracedStore struct {
	inner storage.Store
	r     *rec
	busy  time.Duration
}

var _ storage.Store = (*tracedStore)(nil)

// enter opens a span and returns the func that closes it and charges the
// busy clock. Only called with s.r set.
func (s *tracedStore) enter(name string) func() {
	start := s.r.now()
	end := s.r.span("dfs.client", name)
	return func() {
		end()
		s.busy += s.r.now() - start
	}
}

func (s *tracedStore) Create(name string) (io.WriteCloser, error) {
	if s.r == nil {
		return s.inner.Create(name)
	}
	defer s.enter("store.create")()
	w, err := s.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedWriter{inner: w, s: s}, nil
}

func (s *tracedStore) Open(name string) (io.ReadCloser, error) {
	if s.r == nil {
		return s.inner.Open(name)
	}
	defer s.enter("store.open")()
	rd, err := s.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &tracedReader{inner: rd, s: s}, nil
}

func (s *tracedStore) Remove(name string) error {
	if s.r == nil {
		return s.inner.Remove(name)
	}
	defer s.enter("store.remove")()
	return s.inner.Remove(name)
}

func (s *tracedStore) Size(name string) (int64, error) {
	if s.r == nil {
		return s.inner.Size(name)
	}
	defer s.enter("store.size")()
	return s.inner.Size(name)
}

func (s *tracedStore) List(prefix string) ([]string, error) {
	if s.r == nil {
		return s.inner.List(prefix)
	}
	defer s.enter("store.list")()
	return s.inner.List(prefix)
}

type tracedWriter struct {
	inner io.WriteCloser
	s     *tracedStore
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	start := w.s.r.now()
	n, err := w.inner.Write(p)
	w.s.busy += w.s.r.now() - start
	return n, err
}

func (w *tracedWriter) Close() error {
	defer w.s.enter("store.close")()
	return w.inner.Close()
}

type tracedReader struct {
	inner io.ReadCloser
	s     *tracedStore
}

func (rd *tracedReader) Read(p []byte) (int, error) {
	start := rd.s.r.now()
	n, err := rd.inner.Read(p)
	rd.s.busy += rd.s.r.now() - start
	return n, err
}

func (rd *tracedReader) Close() error { return rd.inner.Close() }

// rpcCounts is the exact work a client asked of the DFS during one op.
type rpcCounts struct {
	nn, dn int64
	// bytes is block payload moved by WriteBlock and ReadBlock.
	bytes int64
}

// tracedTransport decorates the dfs.Transport the clients dial through.
// It always counts calls and block bytes (the counts are exact and must
// not depend on tracing); while r is set it also records a span per RPC
// and keeps a busy clock. Only the op's goroutine calls through it — the
// DataNodes forward their pipelines on a transport of their own.
type tracedTransport struct {
	inner dfs.Transport
	r     *rec
	n     rpcCounts
	busy  time.Duration
}

var _ dfs.Transport = (*tracedTransport)(nil)

func (t *tracedTransport) NameNode() (dfs.NameNodeAPI, error) {
	nn, err := t.inner.NameNode()
	if err != nil {
		return nil, err
	}
	return &tracedNameNode{inner: nn, t: t}, nil
}

func (t *tracedTransport) DataNode(info dfs.DataNodeInfo) (dfs.DataNodeAPI, error) {
	dn, err := t.inner.DataNode(info)
	if err != nil {
		return nil, err
	}
	return &tracedDataNode{inner: dn, t: t}, nil
}

// rpc opens the span of one RPC and returns the func that closes it and
// charges the busy clock; both are no-ops on an untraced op.
func (t *tracedTransport) rpc(name, method string) func() {
	if t.r == nil {
		return func() {}
	}
	start := t.r.now()
	end := t.r.span("dfs.rpc", name, obs.String("method", method))
	return func() {
		end()
		t.busy += t.r.now() - start
	}
}

func (t *tracedTransport) nnCall(method string) func() {
	t.n.nn++
	return t.rpc("rpc.nn", method)
}

type tracedNameNode struct {
	inner dfs.NameNodeAPI
	t     *tracedTransport
}

func (n *tracedNameNode) Register(dn dfs.DataNodeInfo) error {
	defer n.t.nnCall("Register")()
	return n.inner.Register(dn)
}

func (n *tracedNameNode) Heartbeat(dn dfs.DataNodeInfo) error {
	defer n.t.nnCall("Heartbeat")()
	return n.inner.Heartbeat(dn)
}

func (n *tracedNameNode) ReportBlock(path string, id dfs.BlockID, replicas []dfs.DataNodeInfo) error {
	defer n.t.nnCall("ReportBlock")()
	return n.inner.ReportBlock(path, id, replicas)
}

func (n *tracedNameNode) Create(path string) ([]dfs.BlockLocation, error) {
	defer n.t.nnCall("Create")()
	return n.inner.Create(path)
}

func (n *tracedNameNode) AddBlock(path, preferred string) (dfs.BlockLocation, error) {
	defer n.t.nnCall("AddBlock")()
	return n.inner.AddBlock(path, preferred)
}

func (n *tracedNameNode) Complete(path string, size int64) error {
	defer n.t.nnCall("Complete")()
	return n.inner.Complete(path, size)
}

func (n *tracedNameNode) Stat(path string) (dfs.FileInfo, error) {
	defer n.t.nnCall("Stat")()
	return n.inner.Stat(path)
}

func (n *tracedNameNode) Delete(path string) (dfs.FileInfo, error) {
	defer n.t.nnCall("Delete")()
	return n.inner.Delete(path)
}

func (n *tracedNameNode) List(prefix string) ([]string, error) {
	defer n.t.nnCall("List")()
	return n.inner.List(prefix)
}

func (n *tracedNameNode) ReportBadReplica(id dfs.BlockID, bad dfs.DataNodeInfo) error {
	defer n.t.nnCall("ReportBadReplica")()
	return n.inner.ReportBadReplica(id, bad)
}

func (n *tracedNameNode) BlockReport(dn dfs.DataNodeInfo, blocks []dfs.BlockID) ([]dfs.BlockID, error) {
	defer n.t.nnCall("BlockReport")()
	return n.inner.BlockReport(dn, blocks)
}

type tracedDataNode struct {
	inner dfs.DataNodeAPI
	t     *tracedTransport
}

func (d *tracedDataNode) WriteBlock(id dfs.BlockID, data []byte, pipeline []dfs.DataNodeInfo) error {
	d.t.n.dn++
	d.t.n.bytes += int64(len(data))
	defer d.t.rpc("rpc.dn.WriteBlock", "WriteBlock")()
	return d.inner.WriteBlock(id, data, pipeline)
}

func (d *tracedDataNode) ReadBlock(id dfs.BlockID) ([]byte, error) {
	d.t.n.dn++
	defer d.t.rpc("rpc.dn.ReadBlock", "ReadBlock")()
	data, err := d.inner.ReadBlock(id)
	d.t.n.bytes += int64(len(data))
	return data, err
}

func (d *tracedDataNode) DeleteBlock(id dfs.BlockID) error {
	d.t.n.dn++
	defer d.t.rpc("rpc.dn.DeleteBlock", "DeleteBlock")()
	return d.inner.DeleteBlock(id)
}
