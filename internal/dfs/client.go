package dfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
)

// DefaultBlockSize is the block granularity files are split at. 8 MiB
// keeps multi-megabyte checkpoint images multi-block (exercising the
// pipeline) without the 128 MiB blocks of production HDFS, which would
// make every test image single-block.
const DefaultBlockSize = 8 << 20

// Retry defaults: up to DefaultRetries attempts per operation, sleeping
// DefaultBackoff * 2^(attempt-1) plus jitter between attempts, never more
// than DefaultBackoffCap per pause (the shared core.Backoff schedule).
const (
	DefaultRetries    = 4
	DefaultBackoff    = time.Millisecond
	DefaultBackoffCap = 250 * time.Millisecond
)

// ClientStats counts a client's fault-recovery actions. All fields are
// monotonic totals.
type ClientStats struct {
	// Retries is the number of retry attempts after transient failures.
	Retries int64
	// ReadFailovers is the number of block reads served by a replica
	// other than the first choice after at least one replica failed.
	ReadFailovers int64
	// PipelineRebuilds is the number of blocks whose write pipeline broke
	// and was reconstructed by writing replicas directly.
	PipelineRebuilds int64
	// CorruptReads is the number of replicas that failed checksum
	// verification during reads. Each one was reported to the NameNode for
	// quarantine and the read failed over to another replica.
	CorruptReads int64
}

// Client is a DFS client bound to one cluster node. It implements
// storage.Store, so the checkpoint engine can write images to the DFS
// transparently. All operations retry transient failures with exponential
// backoff and jitter; reads fail over across replicas; broken write
// pipelines are reconstructed around failed DataNodes.
type Client struct {
	transport Transport
	// localID is the DataNode co-located with this client, preferred for
	// first-replica placement (write locality) and reads.
	localID   string
	blockSize int

	// ctx bounds every retry loop: a cancelled context ends an operation
	// at its next backoff pause (never before its first attempt), so a
	// draining daemon's clients stop retrying instead of sitting out the
	// schedule.
	ctx     context.Context
	retrier *core.Retrier

	// n counts the recovery actions Stats reports, each in one slot: the
	// observer's dfs.client.* series when there is one — shared, then, with
	// every other client that observes the same registry — and private
	// slots otherwise.
	n struct{ retries, readFailovers, pipelineRebuilds, corruptReads obs.Counter }
	// obs, when set, also receives the block latency histograms.
	obs *obs.Registry
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithBlockSize overrides the block size.
func WithBlockSize(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.blockSize = n
		}
	}
}

// WithLocalNode declares the DataNode co-located with the client.
func WithLocalNode(id string) ClientOption {
	return func(c *Client) { c.localID = id }
}

// WithRetry overrides the retry budget: attempts per operation (minimum 1
// = no retries) and the base backoff between them.
func WithRetry(attempts int, backoff time.Duration) ClientOption {
	return func(c *Client) {
		if attempts >= 1 {
			c.retrier.Attempts = attempts
		}
		if backoff >= 0 {
			c.retrier.Backoff.Base = backoff
		}
	}
}

// WithContext bounds the client's retry loops by ctx: once it is
// cancelled, operations stop retrying and backoff sleeps return early. The
// default is context.Background (retry to budget exhaustion).
func WithContext(ctx context.Context) ClientOption {
	return func(c *Client) {
		if ctx != nil {
			c.ctx = ctx
		}
	}
}

// WithObserver streams the client's recovery counters and per-block
// read/write wall-clock latencies into reg as dfs.client.* metrics. Clients
// observing one registry count into the same series, and Stats on any of
// them reports the shared totals.
func WithObserver(reg *obs.Registry) ClientOption {
	return func(c *Client) { c.obs = reg }
}

// NewClient creates a client using transport.
func NewClient(transport Transport, opts ...ClientOption) *Client {
	c := &Client{
		transport: transport,
		blockSize: DefaultBlockSize,
		ctx:       context.Background(),
		// Seeded jitter keeps the event-driven emulation deterministic.
		retrier: core.NewRetrier(DefaultRetries, core.Backoff{Base: DefaultBackoff, Cap: DefaultBackoffCap}, 1),
	}
	for _, o := range opts {
		o(c)
	}
	reg := c.obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c.n.retries = reg.Counter("dfs.client.retries")
	c.n.readFailovers = reg.Counter("dfs.client.read.failovers")
	c.n.pipelineRebuilds = reg.Counter("dfs.client.pipeline.rebuilds")
	c.n.corruptReads = reg.Counter("dfs.client.corrupt.reads")
	return c
}

var _ storage.Store = (*Client)(nil)

// Stats returns a snapshot of the client's fault-recovery counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Retries:          c.n.retries.Value(),
		ReadFailovers:    c.n.readFailovers.Value(),
		PipelineRebuilds: c.n.pipelineRebuilds.Value(),
		CorruptReads:     c.n.corruptReads.Value(),
	}
}

// retry runs op under the client's retry budget, stopping early on success,
// on a permanent (semantic) error, or when the client's context is
// cancelled.
func (c *Client) retry(op func() error) error {
	return c.retrier.Do(c.ctx, IsTransient, c.n.retries.Inc, op)
}

// fileWriter buffers written data and flushes whole blocks through the
// replica pipeline as they fill.
type fileWriter struct {
	client *Client
	nn     NameNodeAPI
	path   string
	// buf holds the block being filled, in block-list storage capped at one
	// block: a full block is flushed and the storage reused.
	buf     []byte
	size    int64
	closed  bool
	aborted error
}

// Create implements storage.Store. The file becomes visible at Close.
func (c *Client) Create(name string) (io.WriteCloser, error) {
	nn, err := c.transport.NameNode()
	if err != nil {
		return nil, &PathError{Op: "create", Path: name, Err: err}
	}
	var stale []BlockLocation
	if err := c.retry(func() error {
		var err error
		stale, err = nn.Create(name)
		return err
	}); err != nil {
		return nil, err
	}
	// Best-effort reclamation of the blocks of a replaced file.
	c.reclaim(stale)
	return &fileWriter{client: c, nn: nn, path: name}, nil
}

func (w *fileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, &PathError{Op: "write", Path: w.path, Err: errors.New("file closed")}
	}
	if w.aborted != nil {
		return 0, w.aborted
	}
	blockSize := w.client.blockSize
	for rest := p; len(rest) > 0; {
		take := len(rest)
		if room := blockSize - len(w.buf); take > room {
			take = room
		}
		if need := len(w.buf) + take; need > cap(w.buf) {
			// Listed storage, or fresh storage sized by doubling, capped at one
			// block. The outgrown buffer is left to the collector: listed, the
			// rungs of a doubling ladder would only be popped and dropped.
			next := getBlock(min(max(2*cap(w.buf), need), blockSize))
			w.buf = next[:copy(next, w.buf):min(cap(next), blockSize)]
		}
		w.buf = append(w.buf, rest[:take]...)
		rest = rest[take:]
		w.size += int64(take)
		if len(w.buf) == blockSize {
			if err := w.flushBlock(); err != nil {
				w.aborted = err
				putBlock(w.buf)
				w.buf = nil
				return len(p) - len(rest), err
			}
		}
	}
	return len(p), nil
}

// flushBlock writes the buffered bytes out as the file's next block and
// empties the buffer, keeping its storage (block writes are synchronous).
func (w *fileWriter) flushBlock() error {
	data := w.buf
	w.buf = w.buf[:0]
	var loc BlockLocation
	if err := w.client.retry(func() error {
		var err error
		loc, err = w.nn.AddBlock(w.path, w.client.localID)
		return err
	}); err != nil {
		return err
	}
	if len(loc.Replicas) == 0 {
		return &PathError{Op: "write", Path: w.path, Err: errors.New("empty replica set")}
	}
	return w.client.writeBlock(w.nn, w.path, loc, data)
}

// writeBlock pushes one block through the replica pipeline. When the
// daisy-chained pipeline keeps failing, it is reconstructed: every replica
// is written directly, DataNodes that stay unreachable are excluded, and
// the surviving replica set is reported back to the NameNode — the
// client-driven pipeline recovery HDFS performs when a DataNode dies
// mid-write.
func (c *Client) writeBlock(nn NameNodeAPI, path string, loc BlockLocation, data []byte) error {
	if c.obs != nil {
		begin := time.Now()
		defer func() { c.obs.ObserveDuration("dfs.client.block.write.seconds", time.Since(begin)) }()
	}
	pipeErr := c.retry(func() error {
		first, err := c.transport.DataNode(loc.Replicas[0])
		if err != nil {
			return err
		}
		return first.WriteBlock(loc.ID, data, loc.Replicas[1:])
	})
	if pipeErr == nil {
		return nil
	}

	var survivors []DataNodeInfo
	for _, dn := range loc.Replicas {
		dn := dn
		err := c.retry(func() error {
			api, err := c.transport.DataNode(dn)
			if err != nil {
				return err
			}
			return api.WriteBlock(loc.ID, data, nil)
		})
		if err == nil {
			survivors = append(survivors, dn)
		}
	}
	if len(survivors) == 0 {
		return &PathError{Op: "write", Path: path,
			Err: fmt.Errorf("block %d: no replica accepted the write: %w", loc.ID, pipeErr)}
	}
	c.n.pipelineRebuilds.Inc()
	if err := c.retry(func() error { return nn.ReportBlock(path, loc.ID, survivors) }); err != nil {
		return &PathError{Op: "write", Path: path,
			Err: fmt.Errorf("block %d: report rebuilt pipeline: %w", loc.ID, err)}
	}
	return nil
}

func (w *fileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.aborted != nil {
		return w.aborted
	}
	defer func() { putBlock(w.buf); w.buf = nil }()
	if len(w.buf) > 0 {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	return w.client.retry(func() error { return w.nn.Complete(w.path, w.size) })
}

// fileReader streams a file's blocks sequentially, falling back across
// replicas when one is unreachable.
type fileReader struct {
	client *Client
	info   FileInfo
	next   int
	// block is the block being read, the reader's own until it moves on or
	// is closed; block[off:] is unread.
	block  []byte
	off    int
	closed bool
}

// Open implements storage.Store.
func (c *Client) Open(name string) (io.ReadCloser, error) {
	info, err := c.stat(name)
	if err != nil {
		return nil, err
	}
	return &fileReader{client: c, info: info}, nil
}

func (r *fileReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, &PathError{Op: "read", Path: r.info.Path, Err: errors.New("file closed")}
	}
	for r.off == len(r.block) {
		putBlock(r.block) // before fetching, which can then reuse it
		r.block, r.off = nil, 0
		if r.next >= len(r.info.Blocks) {
			return 0, io.EOF
		}
		data, err := r.client.readBlock(r.info.Blocks[r.next])
		if err != nil {
			return 0, &PathError{Op: "read", Path: r.info.Path, Err: err}
		}
		r.block = data
		r.next++
	}
	n := copy(p, r.block[r.off:])
	r.off += n
	return n, nil
}

// Close gives the block being read back; every later Read fails.
func (r *fileReader) Close() error {
	putBlock(r.block) // nothing once the block is gone: closing twice is harmless
	r.block, r.closed = nil, true
	return nil
}

// readBlock fetches a block, preferring the local replica, failing over
// through the rest of the replica set, and retrying the whole set (with
// backoff) when every replica failed transiently. A replica that fails
// checksum verification is treated exactly like a dead one — the read
// fails over — and is additionally reported to the NameNode, which
// quarantines the bad copy and re-replicates from a verified survivor.
func (c *Client) readBlock(loc BlockLocation) ([]byte, error) {
	if c.obs != nil {
		begin := time.Now()
		defer func() { c.obs.ObserveDuration("dfs.client.block.read.seconds", time.Since(begin)) }()
	}
	// Try the local replica first and the rest in pipeline order. The
	// location's slice belongs to the caller: rotate a copy, and only when
	// the local replica is not already in front.
	order := loc.Replicas
	for i, dn := range order {
		if dn.ID == c.localID && i > 0 {
			order = append([]DataNodeInfo(nil), order...)
			copy(order[1:i+1], order[:i])
			order[0] = dn
			break
		}
	}
	// Replicas caught corrupt stay excluded for the remaining rounds:
	// their damage is permanent, unlike a transiently unreachable node.
	var corrupt map[string]bool
	// A round that skips every replica has no error of its own: the last
	// one seen, in whichever round, is what the read reports.
	var lastErr error
	var data []byte
	rounds := 0
	err := c.retrier.Do(c.ctx, nil, c.n.retries.Inc, func() error {
		rounds++
		for i, dn := range order {
			if corrupt[dn.ID] {
				continue
			}
			api, err := c.transport.DataNode(dn)
			if err != nil {
				lastErr = err
				continue
			}
			if data, err = api.ReadBlock(loc.ID); err == nil {
				if i > 0 || rounds > 1 {
					c.n.readFailovers.Inc()
				}
				return nil
			}
			if errors.Is(err, ErrCorruptBlock) {
				if corrupt == nil {
					corrupt = make(map[string]bool)
				}
				corrupt[dn.ID] = true
				c.n.corruptReads.Inc()
				c.reportBadReplica(loc.ID, dn)
			}
			lastErr = err
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("block %d has no replicas", loc.ID)
		}
		return lastErr
	})
	if err != nil {
		return nil, fmt.Errorf("all replicas of block %d failed: %w", loc.ID, err)
	}
	return data, nil
}

// reportBadReplica tells the NameNode one replica failed verification,
// best-effort: quarantine is an optimization for the cluster, not a
// prerequisite for this read's failover.
func (c *Client) reportBadReplica(id BlockID, dn DataNodeInfo) {
	nn, err := c.transport.NameNode()
	if err != nil {
		return
	}
	_ = nn.ReportBadReplica(id, dn)
}

func (c *Client) stat(name string) (FileInfo, error) {
	nn, err := c.transport.NameNode()
	if err != nil {
		return FileInfo{}, &PathError{Op: "stat", Path: name, Err: err}
	}
	var info FileInfo
	if err := c.retry(func() error {
		var err error
		info, err = nn.Stat(name)
		return err
	}); err != nil {
		if errors.Is(err, ErrNotFound) {
			return FileInfo{}, &storage.NotExistError{Name: name}
		}
		return FileInfo{}, err
	}
	return info, nil
}

// Size implements storage.Store.
func (c *Client) Size(name string) (int64, error) {
	info, err := c.stat(name)
	if err != nil {
		return 0, err
	}
	return info.Size, nil
}

// Remove implements storage.Store.
func (c *Client) Remove(name string) error {
	nn, err := c.transport.NameNode()
	if err != nil {
		return &PathError{Op: "remove", Path: name, Err: err}
	}
	var info FileInfo
	if err := c.retry(func() error {
		var err error
		info, err = nn.Delete(name)
		return err
	}); err != nil {
		if errors.Is(err, ErrNotFound) {
			return &storage.NotExistError{Name: name}
		}
		return err
	}
	c.reclaim(info.Blocks)
	return nil
}

// List implements storage.Store.
func (c *Client) List(prefix string) ([]string, error) {
	nn, err := c.transport.NameNode()
	if err != nil {
		return nil, &PathError{Op: "list", Path: prefix, Err: err}
	}
	var names []string
	if err := c.retry(func() error {
		var err error
		names, err = nn.List(prefix)
		return err
	}); err != nil {
		return nil, err
	}
	return names, nil
}

// reclaim deletes blocks from their replicas, best-effort: a dead replica
// merely leaks its copy, it cannot fail the namespace operation.
func (c *Client) reclaim(blocks []BlockLocation) {
	for _, loc := range blocks {
		for _, dn := range loc.Replicas {
			api, err := c.transport.DataNode(dn)
			if err != nil {
				continue
			}
			_ = api.DeleteBlock(loc.ID)
		}
	}
}
