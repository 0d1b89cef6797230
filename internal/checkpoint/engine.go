package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"preemptsched/internal/obs"
	"preemptsched/internal/proc"
	"preemptsched/internal/storage"
)

// Engine dumps and restores virtual processes. It is stateless apart from
// the program registry used to re-instantiate programs on restore and an
// optional metrics sink.
type Engine struct {
	registry *proc.Registry
	obs      *obs.Registry
}

// NewEngine returns an engine resolving programs from registry.
func NewEngine(registry *proc.Registry) *Engine {
	if registry == nil {
		panic("checkpoint: nil registry")
	}
	return &Engine{registry: registry}
}

// Instrument directs the engine's wall-clock dump/restore metrics
// (checkpoint.dump.seconds, checkpoint.restore.seconds, byte and error
// counters) into reg. A nil reg turns instrumentation off.
func (e *Engine) Instrument(reg *obs.Registry) { e.obs = reg }

// DumpOpts controls a dump.
type DumpOpts struct {
	// Incremental dumps only soft-dirty pages and records Parent as the
	// base image. Parent must name an existing image of the same process.
	Incremental bool
	Parent      string
}

// ImageInfo summarizes a written or inspected image.
type ImageInfo struct {
	Name        string
	ProcID      string
	ProgramName string
	Parent      string
	Incremental bool
	Steps       uint64
	// DumpedPages is the number of page records in this image alone.
	DumpedPages int
	// StoredBytes is the on-store byte size of this image alone.
	StoredBytes int64
	// LogicalBytes is the footprint this image represents for *time*
	// accounting: the full logical footprint for a full dump, or the dirty
	// fraction of it for an incremental dump. This is the "size" term of
	// Algorithm 1 in the paper.
	LogicalBytes int64
	// TotalLogicalBytes is the full logical footprint of the process,
	// i.e. the size term for restoring the whole chain.
	TotalLogicalBytes int64
}

// maxChainDepth bounds incremental parent chains; deeper chains indicate a
// cycle or a corrupted parent pointer.
const maxChainDepth = 1024

// Dump serializes a suspended process into store under name. The process
// must be in the Suspended state (the caller owns the freeze, as the
// cluster scheduler does with SIGSTOP before invoking CRIU). On success
// the soft-dirty bits are cleared so the next incremental dump captures
// only subsequent writes.
func (e *Engine) Dump(p *proc.Process, store storage.Store, name string, opts DumpOpts) (*ImageInfo, error) {
	if p.State() != proc.Suspended {
		return nil, fmt.Errorf("checkpoint: dump of process %q in state %v (must be suspended)", p.ID(), p.State())
	}
	return e.dump(p, store, name, opts)
}

// PreDump serializes a *running* process — CRIU's pre-copy phase: the
// image captures the current pages and clears soft-dirty bits while the
// process keeps executing, so the eventual freeze needs to dump only the
// pages written after this point. The resulting image is a valid chain
// link; the final frozen dump should name it as parent.
func (e *Engine) PreDump(p *proc.Process, store storage.Store, name string, opts DumpOpts) (*ImageInfo, error) {
	if p.State() != proc.Running {
		return nil, fmt.Errorf("checkpoint: pre-dump of process %q in state %v (must be running)", p.ID(), p.State())
	}
	return e.dump(p, store, name, opts)
}

func (e *Engine) dump(p *proc.Process, store storage.Store, name string, opts DumpOpts) (info *ImageInfo, err error) {
	if e.obs != nil {
		begin := time.Now()
		defer func() {
			if err != nil {
				e.obs.Inc("checkpoint.dump.errors")
				return
			}
			e.obs.ObserveDuration("checkpoint.dump.seconds", time.Since(begin))
			if opts.Incremental {
				e.obs.Inc("checkpoint.dumps.incremental")
			} else {
				e.obs.Inc("checkpoint.dumps.full")
			}
			e.obs.Add("checkpoint.dump.bytes", info.StoredBytes)
		}()
	}
	if opts.Incremental && opts.Parent == "" {
		return nil, fmt.Errorf("checkpoint: incremental dump of %q without parent image", p.ID())
	}
	if !opts.Incremental && opts.Parent != "" {
		return nil, fmt.Errorf("checkpoint: full dump of %q must not set parent", p.ID())
	}
	mem := p.Memory()

	var pages []int
	if opts.Incremental {
		pages = mem.DirtyPages()
	} else {
		pages = make([]int, mem.NumPages())
		for i := range pages {
			pages[i] = i
		}
	}

	regs := p.Registers()
	h := &Header{
		ProcID:       p.ID(),
		ProgramName:  p.Program().Name(),
		Parent:       opts.Parent,
		Incremental:  opts.Incremental,
		PC:           regs.PC,
		Regs:         regs.R,
		Steps:        p.Steps(),
		LogicalBytes: mem.LogicalBytes(),
		RealPages:    uint32(mem.NumPages()),
		PageSize:     proc.PageSize,
		DumpedPages:  uint32(len(pages)),
	}

	stored, err := writeImage(store, name, h, func(i int) (int, []byte) { return pages[i], mem.Page(pages[i]) })
	if err != nil {
		return nil, err
	}

	logical := mem.LogicalBytes()
	if opts.Incremental {
		logical = mem.LogicalDirtyBytes()
	}
	mem.ClearSoftDirty()

	return &ImageInfo{
		Name:              name,
		ProcID:            h.ProcID,
		ProgramName:       h.ProgramName,
		Parent:            h.Parent,
		Incremental:       h.Incremental,
		Steps:             h.Steps,
		DumpedPages:       len(pages),
		StoredBytes:       stored,
		LogicalBytes:      logical,
		TotalLogicalBytes: mem.LogicalBytes(),
	}, nil
}

// writeImage publishes an image under name: the header, h.DumpedPages page
// records drawn from page, the CRC trailer, and then the manifest attesting
// the exact bytes written. It returns the stored size. A write that dies
// part-way (torn write, lost DataNode) must not leave a half-image
// squatting on the name: image and manifest are removed best-effort so the
// namespace stays clean and a later dump can reuse the path.
func writeImage(store storage.Store, name string, h *Header, page func(i int) (idx int, data []byte)) (stored int64, err error) {
	w, err := store.Create(name)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: create image %q: %w", name, err)
	}
	defer func() {
		if err != nil {
			_ = store.Remove(name)
			_ = store.Remove(ManifestName(name))
		}
	}()
	// The hash writer sees every byte of the object, including the CRC
	// trailer, so the manifest attests the exact stored representation.
	hw := newHashWriter(w)
	defer hw.d.stop()
	cw := &crcWriter{w: hw}
	if err := encodeHeader(cw, h); err != nil {
		return 0, fmt.Errorf("checkpoint: write header of %q: %w", name, err)
	}
	var word [4]byte
	for i := 0; i < int(h.DumpedPages); i++ {
		idx, data := page(i)
		binary.BigEndian.PutUint32(word[:], uint32(idx))
		if _, err := cw.Write(word[:]); err != nil {
			return 0, fmt.Errorf("checkpoint: write page index of %q: %w", name, err)
		}
		if _, err := cw.Write(data); err != nil {
			return 0, fmt.Errorf("checkpoint: write page %d of %q: %w", idx, name, err)
		}
	}
	binary.BigEndian.PutUint32(word[:], cw.crc)
	if _, err := hw.Write(word[:]); err != nil {
		return 0, fmt.Errorf("checkpoint: write crc of %q: %w", name, err)
	}
	if err := w.Close(); err != nil {
		return 0, fmt.Errorf("checkpoint: close image %q: %w", name, err)
	}
	if err := writeManifest(store, name, hw.sum(), hw.d.n); err != nil {
		return 0, fmt.Errorf("checkpoint: write manifest of %q: %w", name, err)
	}
	return hw.d.n, nil
}

// infoFromHeader summarizes an image from its decoded header and the byte
// count of the pass that decoded it.
func infoFromHeader(name string, h *Header, stored int64) *ImageInfo {
	logical := h.LogicalBytes
	if h.Incremental && h.RealPages > 0 {
		logical = int64(float64(h.DumpedPages) / float64(h.RealPages) * float64(h.LogicalBytes))
	}
	return &ImageInfo{
		Name:              name,
		ProcID:            h.ProcID,
		ProgramName:       h.ProgramName,
		Parent:            h.Parent,
		Incremental:       h.Incremental,
		Steps:             h.Steps,
		DumpedPages:       int(h.DumpedPages),
		StoredBytes:       stored,
		LogicalBytes:      logical,
		TotalLogicalBytes: h.LogicalBytes,
	}
}

// pageRec is one page record of a link, retained until the link may be
// applied.
type pageRec struct {
	idx  int
	data []byte
}

// arena is where a link's page records wait, in stored order, until every
// verdict of the walk is in. Its storage follows the records as they arrive,
// at most maxPageChunk per allocation: what the stream delivered, plus one.
type arena struct {
	pageSize int
	left     int // records the header announces that have no slot yet
	free     []byte
	pages    []pageRec
}

// slot names the arena's next pageSize bytes for page idx.
func (a *arena) slot(idx int) []byte {
	if len(a.free) == 0 {
		a.free = make([]byte, max(1, min(a.left, maxPageChunk/a.pageSize))*a.pageSize)
	}
	pg := a.free[:a.pageSize:a.pageSize]
	a.free = a.free[a.pageSize:]
	a.left--
	a.pages = append(a.pages, pageRec{idx, pg})
	return pg
}

// space is the address space a chain rebuilds: one flat array of pages from
// proc's address-space list, which proc adopts as the process's memory, and
// which of them are written. A space no process adopts, a failed rebuild's
// or a compaction's, is left to the GC.
type space struct {
	data    []byte
	seen    []bool
	covered int
}

func newSpace(pages uint32) *space {
	return &space{data: proc.GetSpace(int(pages)), seen: make([]bool, pages)}
}

// slot names page idx of the space; a page named again is overwritten.
func (s *space) slot(idx int) []byte {
	if !s.seen[idx] {
		s.seen[idx] = true
		s.covered++
	}
	return s.data[idx*proc.PageSize : (idx+1)*proc.PageSize]
}

// placeable reports whether the walk, with the links above (tip first) read,
// may read link h straight into a space: h ends the chain (a full dump, no
// parent) in the tip's geometry, and the space is no larger than what the
// chain stores — stored, the manifest's word on the size of h's object,
// holds the records h announces, and those plus held, the page bytes above
// keeps, cover the space. So no header field alone sizes the allocation.
func placeable(h *Header, above []link, stored, held int64) bool {
	return h.Parent == "" && !h.Incremental && h.PageSize == proc.PageSize &&
		(len(above) == 0 || h.RealPages == above[0].h.RealPages) &&
		int64(h.DumpedPages)*(4+proc.PageSize) <= stored &&
		int64(h.DumpedPages)*proc.PageSize+held >= int64(h.RealPages)*proc.PageSize
}

// link is what the one read of one chain image established.
type link struct {
	name   string
	h      *Header
	stored int64
	// The link's pages, in the arena or, for a placeable link, in placed;
	// in neither unless the walk retains pages.
	arena
	placed *space
	// verr is the manifest's verdict on the stored bytes; nil when they
	// match or the image has no manifest (legacy dumps), and always nil on
	// an unverified walk.
	verr error
}

// readChain walks the chain ending at name from tip to base, following
// each image's parent pointer, and returns the links tip-first. Every
// image is opened and read exactly once and must decode with a clean CRC.
// With verify set every manifest is opened exactly once too, ahead of the
// image whose size it vouches for, and its verdict recorded in the link, to
// be acted on base-first by the caller — so a corrupt link anywhere in the
// chain is reported as ErrCorrupt ahead of any ErrVerifyFailed — and the
// links retain their pages, up to the first link that fails verification:
// nothing at or above it may be applied, so nothing more is held.
func readChain(store storage.Store, name string, verify bool) ([]link, error) {
	var links []link
	keepPages := verify
	held := int64(0) // page bytes the links so far keep in arenas
	seen := make(map[string]bool)
	for cur := name; cur != ""; {
		if len(links) >= maxChainDepth {
			return nil, fmt.Errorf("%w: image chain from %q exceeds depth %d (cycle?)", ErrCorrupt, name, maxChainDepth)
		}
		if seen[cur] {
			return nil, fmt.Errorf("%w: image chain from %q revisits %q (cycle)", ErrCorrupt, name, cur)
		}
		seen[cur] = true
		l := link{name: cur}
		wantSum, wantSize, merr := "", int64(0), error(ErrNoManifest)
		if verify {
			wantSum, wantSize, merr = readManifest(store, cur)
		}
		slots := scratch
		if keepPages {
			slots = func(h *Header) func(int) []byte {
				if merr == nil && placeable(h, links, wantSize, held) {
					l.placed = newSpace(h.RealPages)
					return l.placed.slot
				}
				l.arena = arena{pageSize: int(h.PageSize), left: int(h.DumpedPages)}
				return l.arena.slot
			}
		}
		h, d, err := scanImage(store, cur, verify, slots)
		if err != nil {
			return nil, err
		}
		l.h, l.stored = h, d.size
		held += int64(len(l.pages)) * int64(h.PageSize)
		if merr == nil {
			merr = checkManifest(cur, d, wantSum, wantSize)
		}
		if merr != nil && !errors.Is(merr, ErrNoManifest) {
			l.verr = merr
			l.pages, l.placed = nil, nil
			for i := range links {
				links[i].pages = nil
			}
			keepPages = false
		}
		links = append(links, l)
		cur = h.Parent
	}
	return links, nil
}

// Chain returns the image names from the full base dump to name inclusive,
// in application order. Every link is decoded and CRC-checked on the way
// (callers such as RemoveChain act destructively on the result and must not
// follow an unchecked parent pointer), but no page is retained.
func Chain(store storage.Store, name string) ([]string, error) {
	links, err := readChain(store, name, false)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(links))
	for i, l := range links {
		names[len(links)-1-i] = l.name
	}
	return names, nil
}

// rebuild reads the chain ending at name with its pages, checks every link
// against its manifest and the chain's structural invariants, and returns
// the links base-first with the address space they add up to: the space the
// walk placed the base in, else a fresh one, every arena laid over it
// base-first, private to this call until every verdict is in. Errors keep
// the precedence of the walk: a link that fails decode or CRC is
// ErrCorrupt; otherwise the base-most failing link decides, ErrVerifyFailed
// when its bytes differ from the manifest, ErrCorrupt when it does not
// belong to this chain.
func rebuild(store storage.Store, name string) ([]link, *space, error) {
	links, err := readChain(store, name, true)
	if err != nil {
		return nil, nil, err
	}
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	base := links[0].h
	for i, l := range links {
		if l.verr != nil {
			return nil, nil, l.verr
		}
		switch {
		case i == 0 && l.h.Incremental:
			return nil, nil, fmt.Errorf("%w: chain base %q is incremental", ErrCorrupt, l.name)
		case l.h.PageSize != proc.PageSize:
			return nil, nil, fmt.Errorf("checkpoint: image %q page size %d unsupported", l.name, l.h.PageSize)
		case l.h.ProcID != base.ProcID:
			return nil, nil, fmt.Errorf("%w: image %q is for process %q, chain is for %q", ErrCorrupt, l.name, l.h.ProcID, base.ProcID)
		case l.h.RealPages != base.RealPages:
			return nil, nil, fmt.Errorf("%w: image %q page count %d != base %d", ErrCorrupt, l.name, l.h.RealPages, base.RealPages)
		}
	}
	sp := links[0].placed
	if sp == nil {
		sp = newSpace(base.RealPages)
	}
	for _, l := range links {
		for _, pg := range l.pages {
			copy(sp.slot(pg.idx), pg.data)
		}
	}
	return links, sp, nil
}

// Restore rebuilds a runnable process from the image chain ending at name.
// The returned process is in the Running state with clean soft-dirty bits,
// so a subsequent dump may be incremental against this image.
//
// The restore is verified and read-once: every image and every manifest of
// the chain is opened exactly once, and a link's pages become process
// state only after that link's CRC and its manifest (when it has one) have
// both passed. Images without manifests (older dumps) restore on the CRC
// alone.
func (e *Engine) Restore(store storage.Store, name string) (p *proc.Process, info *ImageInfo, err error) {
	if e.obs != nil {
		begin := time.Now()
		defer func() {
			if err != nil {
				if errors.Is(err, ErrVerifyFailed) {
					e.obs.Inc("checkpoint.verify.failures")
				}
				e.obs.Inc("checkpoint.restore.errors")
				return
			}
			e.obs.ObserveDuration("checkpoint.restore.seconds", time.Since(begin))
			e.obs.Inc("checkpoint.restores")
		}()
	}
	links, sp, err := rebuild(store, name)
	if err != nil {
		return nil, nil, err
	}
	base, tip := links[0], links[len(links)-1]
	mem, err := proc.AdoptMemory(sp.data, base.h.LogicalBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: rebuild memory for %q: %w", base.name, err)
	}
	if sp.covered < len(sp.seen) {
		// The base dump is always full, so every page must have been seen.
		return nil, nil, fmt.Errorf("%w: restored only %d of %d pages", ErrCorrupt, sp.covered, len(sp.seen))
	}
	program, err := e.registry.New(tip.h.ProgramName)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: restore %q: %w", name, err)
	}
	regs := proc.Registers{PC: tip.h.PC, R: tip.h.Regs}
	p = proc.Rebuild(tip.h.ProcID, program, mem, regs, tip.h.Steps)
	return p, infoFromHeader(name, tip.h, tip.stored), nil
}

// Compact merges the incremental chain ending at name into a single full
// image written to dst. Long chains make restores read every link;
// compaction bounds that cost (the analogue of merging CRIU pre-dump
// directories). The source chain is left in place; callers typically
// RemoveChain it after a successful compact.
func Compact(store storage.Store, name, dst string) (*ImageInfo, error) {
	links, sp, err := rebuild(store, name)
	if err != nil {
		return nil, err
	}
	tip := links[len(links)-1].h
	if sp.covered != len(sp.seen) {
		return nil, fmt.Errorf("%w: compact covers %d of %d pages", ErrCorrupt, sp.covered, len(sp.seen))
	}

	out := &Header{
		ProcID:       tip.ProcID,
		ProgramName:  tip.ProgramName,
		PC:           tip.PC,
		Regs:         tip.Regs,
		Steps:        tip.Steps,
		LogicalBytes: tip.LogicalBytes,
		RealPages:    tip.RealPages,
		PageSize:     tip.PageSize,
		DumpedPages:  tip.RealPages,
	}
	stored, err := writeImage(store, dst, out, func(i int) (int, []byte) { return i, sp.slot(i) })
	if err != nil {
		return nil, err
	}
	return infoFromHeader(dst, out, stored), nil
}

// RemoveChain deletes the image chain ending at name. Garbage collection
// after a task finishes or is killed keeps the storage-overhead accounting
// of Section 5.3.3 honest.
func RemoveChain(store storage.Store, name string) error {
	chain, err := Chain(store, name)
	if err != nil {
		return err
	}
	for _, img := range chain {
		if err := store.Remove(img); err != nil {
			return fmt.Errorf("checkpoint: remove image %q: %w", img, err)
		}
		// Manifests are sidecars; older images may not have one.
		_ = store.Remove(ManifestName(img))
	}
	return nil
}
