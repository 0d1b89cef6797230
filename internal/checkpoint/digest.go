package checkpoint

import (
	"hash"
	"sync"
)

// hashBatch is both how many bytes of an image are hashed inline and the
// size of the batches the rest is hashed in on a helper goroutine. Images
// below it, yarn's few-KB ones among them, never start a helper. On
// ckpt-dfs (2 vCPUs, four rotated rounds of 10 s runs) 64 KiB, 256 KiB and
// 1 MiB batches ran at a median 29.2, 30.3 and 29.7 ops/s, against 24.2
// with neither the helper nor replica recycling: flat within the box's
// noise. 1 MiB batches leave the op's 0.84 MB incremental images inline and
// pin 4 MiB per helper; 64 KiB ones hand over four times as often.
const hashBatch = 256 << 10

// hashBatches batches circulate between a stream and its helper: the one
// being filled, and the ones waiting for or under the hash.
const hashBatches = 4

// digester is the SHA-256 of a stream of writes. The first hashBatch bytes
// are hashed inline, on the writer's goroutine. Past that, a helper
// goroutine takes over the running hash and write only copies the bytes, in
// order, into batches the helper hashes — so hashing a large image overlaps
// the I/O the stream does. A digester whose stream outgrew one batch must
// end in sum or stop, which join the helper.
type digester struct {
	sha hash.Hash   // nil when nothing is hashed
	n   int64       // bytes written
	h   *hashHelper // nil until the stream outgrows one batch
}

// hashHelper is a helper goroutine and the batches it shares with a
// stream. Between the start and the join, sha is the helper's alone and
// batch, the one being filled (nil between batches), the stream's. A joined
// helper has every batch back on free, and is listed for the next large
// stream.
type hashHelper struct {
	sha   hash.Hash
	batch []byte
	full  chan []byte // batches to hash, in stream order; nil ends the helper
	free  chan []byte // empty batches
	done  chan struct{}
}

var hashHelpers = sync.Pool{New: func() any {
	h := &hashHelper{
		full: make(chan []byte, hashBatches),
		free: make(chan []byte, hashBatches),
		done: make(chan struct{}),
	}
	for i := 0; i < hashBatches; i++ {
		h.free <- make([]byte, 0, hashBatch)
	}
	return h
}}

func (h *hashHelper) run() {
	for b := <-h.full; b != nil; b = <-h.full {
		h.sha.Write(b)
		h.free <- b[:0]
	}
	h.done <- struct{}{}
}

func (d *digester) write(p []byte) {
	d.n += int64(len(p))
	if d.h == nil {
		if d.n <= hashBatch {
			d.sha.Write(p)
			return
		}
		d.h = hashHelpers.Get().(*hashHelper)
		d.h.sha = d.sha
		go d.h.run()
	}
	h := d.h
	for len(p) > 0 {
		if h.batch == nil {
			h.batch = <-h.free
		}
		k := copy(h.batch[len(h.batch):cap(h.batch)], p)
		h.batch, p = h.batch[:len(h.batch)+k], p[k:]
		if len(h.batch) == cap(h.batch) {
			h.full <- h.batch
			h.batch = nil
		}
	}
}

// sum appends the digest of everything written to b.
func (d *digester) sum(b []byte) []byte {
	if h := d.h; h != nil && len(h.batch) > 0 {
		h.full <- h.batch
		h.batch = nil
	}
	d.stop()
	return d.sha.Sum(b)
}

// stop joins the helper, if one runs, dropping what it was not sent.
func (d *digester) stop() {
	h := d.h
	if h == nil {
		return
	}
	if h.batch != nil {
		h.free <- h.batch[:0]
		h.batch = nil
	}
	h.full <- nil
	<-h.done
	h.sha, d.h = nil, nil
	hashHelpers.Put(h)
}
