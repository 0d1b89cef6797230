// Package checkpoint implements the application-transparent
// checkpoint/restore engine — the repository's CRIU analogue.
//
// Dump freezes a virtual process and serializes its identity, register
// file, and memory pages into a self-describing binary image written to
// any storage.Store (node-local memory store or the distributed file
// system, which is what enables remote restore exactly as the paper's
// CRIU+HDFS extension does). Incremental dumps write only pages whose
// soft-dirty bit is set and record a parent link; Restore replays the
// parent chain and overlays dirty pages, then re-instantiates the
// program from a registry and rebuilds a runnable process.
//
// Every image carries a CRC32 so that corrupted or truncated images are
// detected at restore time rather than silently resuming wrong state.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"preemptsched/internal/storage"
)

// Magic identifies checkpoint images ("CRGO" = checkpoint/restore in Go).
var Magic = [4]byte{'C', 'R', 'G', 'O'}

// Version is the image format version.
const Version uint16 = 1

const flagIncremental uint16 = 1 << 0

// maxSaneStringLen bounds decoded string fields to keep a corrupted length
// prefix from driving huge allocations.
const maxSaneStringLen = 1 << 16

// maxSanePageSize bounds the page-size field: a corrupted header must not
// be able to drive a multi-gigabyte page allocation. Real images use
// proc.PageSize, far below this.
const maxSanePageSize = 1 << 20

// maxSanePages bounds the page-count fields the same way (2^22 pages of
// 4 KiB is already a 16 GiB address space, far beyond any virtual
// process here).
const maxSanePages = 1 << 22

// ErrCorrupt is wrapped by all integrity failures (bad magic, CRC mismatch,
// truncated stream, nonsense lengths).
var ErrCorrupt = errors.New("checkpoint: corrupt image")

// Header is the metadata section of an image.
type Header struct {
	ProcID      string
	ProgramName string
	// Parent is the name of the image this incremental dump builds on;
	// empty for full dumps.
	Parent      string
	Incremental bool
	PC          uint64
	Regs        [16]uint64
	Steps       uint64
	// LogicalBytes is the declared process footprint.
	LogicalBytes int64
	// RealPages is the total page count of the address space.
	RealPages uint32
	// PageSize is the page granularity the image was taken at.
	PageSize uint32
	// DumpedPages is the number of page records following the header.
	DumpedPages uint32
}

type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

// scanReader is the one pass over a stored image: every byte it returns
// has been counted, folded into the CRC and, when a manifest will be
// checked, into the SHA-256.
type scanReader struct {
	r   io.Reader
	dig digester // hashes nothing when the caller checks no manifest
	crc uint32
	n   int64
}

func (s *scanReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.crc = crc32.Update(s.crc, crc32.IEEETable, p[:n])
	if s.dig.sha != nil {
		s.dig.write(p[:n])
	}
	s.n += int64(n)
	return n, err
}

// imageDigest identifies the exact bytes a store returned for an image:
// what a manifest attests.
type imageDigest struct {
	size int64
	sum  [sha256.Size]byte // zero unless the scan was hashed
}

// maxPageChunk caps a single page-buffer allocation. An arena's chunks are
// sized from the image's own DumpedPages x PageSize, which a corrupt header
// controls; the cap bounds what such a header can make the reader allocate
// before the truncated stream is noticed.
const maxPageChunk = 1 << 20

// scanImage reads the image stored under name exactly once: one Open, one
// sequential pass. It decodes the header, bounds-checks every page record,
// verifies the CRC trailer and, with hashed set, digests every stored byte
// (trailer and anything after it included) for the manifest check. Each
// record's page is read straight into the slot its caller names for it:
// slots is shown the decoded header and returns the func that maps a
// record's page index to the h.PageSize bytes to fill. No error is returned
// alongside a header.
func scanImage(store storage.Store, name string, hashed bool, slots func(h *Header) func(idx int) []byte) (*Header, imageDigest, error) {
	r, err := store.Open(name)
	if err != nil {
		return nil, imageDigest{}, fmt.Errorf("checkpoint: open image %q: %w", name, err)
	}
	defer r.Close()
	s := &scanReader{r: r}
	if hashed {
		s.dig.sha = sha256.New()
		defer s.dig.stop()
	}
	h, err := decodeHeader(s)
	if err != nil {
		return nil, imageDigest{}, fmt.Errorf("checkpoint: image %q: %w", name, err)
	}
	slot := slots(h)
	tail := make([]byte, 512)
	for left := h.DumpedPages; left > 0; left-- {
		if _, err := io.ReadFull(s, tail[:4]); err != nil {
			return nil, imageDigest{}, fmt.Errorf("%w: image %q: truncated page records: %v", ErrCorrupt, name, err)
		}
		idx := binary.BigEndian.Uint32(tail)
		if idx >= h.RealPages {
			return nil, imageDigest{}, fmt.Errorf("%w: image %q: page index %d out of range", ErrCorrupt, name, idx)
		}
		if _, err := io.ReadFull(s, slot(int(idx))); err != nil {
			return nil, imageDigest{}, fmt.Errorf("%w: image %q: truncated page records: %v", ErrCorrupt, name, err)
		}
	}
	sum := s.crc // the trailer is hashed but is not part of its own CRC
	if _, err := io.ReadFull(s, tail[:4]); err != nil {
		return nil, imageDigest{}, fmt.Errorf("%w: image %q: missing crc: %v", ErrCorrupt, name, err)
	}
	if want := binary.BigEndian.Uint32(tail); sum != want {
		return nil, imageDigest{}, fmt.Errorf("%w: image %q: crc mismatch (got %08x, want %08x)", ErrCorrupt, name, sum, want)
	}
	// Bytes past the trailer are no part of the image, but they are part
	// of the stored object the manifest's size and hash cover.
	for {
		if _, err := s.Read(tail); err == io.EOF {
			break
		} else if err != nil {
			return nil, imageDigest{}, fmt.Errorf("checkpoint: image %q: reading past the trailer: %w", name, err)
		}
	}
	d := imageDigest{size: s.n}
	if hashed {
		s.dig.sum(d.sum[:0])
	}
	return h, d, nil
}

// scratch is the slots of a scan that keeps no page: one buffer for all.
func scratch(h *Header) func(int) []byte {
	page := make([]byte, h.PageSize)
	return func(int) []byte { return page }
}

func writeString(w io.Writer, s string) error {
	if len(s) > maxSaneStringLen {
		return fmt.Errorf("checkpoint: string field of %d bytes too long", len(s))
	}
	if err := binary.Write(w, binary.BigEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return "", fmt.Errorf("%w: truncated string length: %v", ErrCorrupt, err)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("%w: truncated string field: %v", ErrCorrupt, err)
	}
	return string(buf), nil
}

func encodeHeader(w io.Writer, h *Header) error {
	if _, err := w.Write(Magic[:]); err != nil {
		return err
	}
	flags := uint16(0)
	if h.Incremental {
		flags |= flagIncremental
	}
	for _, v := range []any{Version, flags} {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return err
		}
	}
	for _, s := range []string{h.ProcID, h.ProgramName, h.Parent} {
		if err := writeString(w, s); err != nil {
			return err
		}
	}
	fixed := []any{h.PC, h.Regs, h.Steps, h.LogicalBytes, h.RealPages, h.PageSize, h.DumpedPages}
	for _, v := range fixed {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func decodeHeader(r io.Reader) (*Header, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic[:])
	}
	var version, flags uint16
	if err := binary.Read(r, binary.BigEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: reading version: %v", ErrCorrupt, err)
	}
	if version != Version {
		return nil, fmt.Errorf("checkpoint: unsupported image version %d", version)
	}
	if err := binary.Read(r, binary.BigEndian, &flags); err != nil {
		return nil, fmt.Errorf("%w: reading flags: %v", ErrCorrupt, err)
	}
	h := &Header{Incremental: flags&flagIncremental != 0}
	var err error
	if h.ProcID, err = readString(r); err != nil {
		return nil, err
	}
	if h.ProgramName, err = readString(r); err != nil {
		return nil, err
	}
	if h.Parent, err = readString(r); err != nil {
		return nil, err
	}
	fixed := []any{&h.PC, &h.Regs, &h.Steps, &h.LogicalBytes, &h.RealPages, &h.PageSize, &h.DumpedPages}
	for _, v := range fixed {
		if err := binary.Read(r, binary.BigEndian, v); err != nil {
			return nil, fmt.Errorf("%w: reading fixed header: %v", ErrCorrupt, err)
		}
	}
	if h.DumpedPages > h.RealPages {
		return nil, fmt.Errorf("%w: %d dumped pages exceed %d real pages", ErrCorrupt, h.DumpedPages, h.RealPages)
	}
	if h.PageSize == 0 || h.PageSize > maxSanePageSize {
		return nil, fmt.Errorf("%w: nonsense page size %d", ErrCorrupt, h.PageSize)
	}
	if h.RealPages > maxSanePages {
		return nil, fmt.Errorf("%w: nonsense page count %d", ErrCorrupt, h.RealPages)
	}
	if h.LogicalBytes < 0 {
		return nil, fmt.Errorf("%w: negative logical size %d", ErrCorrupt, h.LogicalBytes)
	}
	return h, nil
}
