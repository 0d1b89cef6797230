package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"preemptsched/internal/proc"
	"preemptsched/internal/storage"
)

// The three-pass restore this package used before the read path became
// read-once, kept as a test-only reference: Chain decodes every link to
// follow Parent, refVerifyImage streams each link for SHA-256,
// refReadImage streams it again for CRC and pages, refReadInfo decodes the
// tip once more.
// TestRestoreMatchesReference holds Engine.Restore to its outcomes. Do not
// "fix" or share code with it: it is useful only as long as it stays what
// shipped.

type refCRCReader struct {
	r   io.Reader
	crc uint32
}

func (c *refCRCReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func refReadImage(store storage.Store, name string) (*Header, map[int][]byte, error) {
	r, err := store.Open(name)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: open image %q: %w", name, err)
	}
	defer r.Close()
	cr := &refCRCReader{r: r}
	h, err := decodeHeader(cr)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: image %q: %w", name, err)
	}
	pages := make(map[int][]byte)
	for i := uint32(0); i < h.DumpedPages; i++ {
		var idx uint32
		if err := binary.Read(cr, binary.BigEndian, &idx); err != nil {
			return nil, nil, fmt.Errorf("%w: image %q: truncated page index: %v", ErrCorrupt, name, err)
		}
		if idx >= h.RealPages {
			return nil, nil, fmt.Errorf("%w: image %q: page index %d out of range", ErrCorrupt, name, idx)
		}
		data := make([]byte, h.PageSize)
		if _, err := io.ReadFull(cr, data); err != nil {
			return nil, nil, fmt.Errorf("%w: image %q: truncated page %d: %v", ErrCorrupt, name, idx, err)
		}
		pages[int(idx)] = data
	}
	sum := cr.crc
	var want uint32
	if err := binary.Read(r, binary.BigEndian, &want); err != nil {
		return nil, nil, fmt.Errorf("%w: image %q: missing crc: %v", ErrCorrupt, name, err)
	}
	if sum != want {
		return nil, nil, fmt.Errorf("%w: image %q: crc mismatch (got %08x, want %08x)", ErrCorrupt, name, sum, want)
	}
	return h, pages, nil
}

func refReadInfo(store storage.Store, name string) (*ImageInfo, error) {
	h, pages, err := refReadImage(store, name)
	if err != nil {
		return nil, err
	}
	size, err := store.Size(name)
	if err != nil {
		return nil, err
	}
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
		DumpedPages:       len(pages),
		StoredBytes:       size,
		LogicalBytes:      logical,
		TotalLogicalBytes: h.LogicalBytes,
	}, nil
}

func refChain(store storage.Store, name string) ([]string, error) {
	var rev []string
	cur := name
	for depth := 0; ; depth++ {
		if depth >= maxChainDepth {
			return nil, fmt.Errorf("%w: image chain from %q exceeds depth %d (cycle?)", ErrCorrupt, name, maxChainDepth)
		}
		h, _, err := refReadImage(store, cur)
		if err != nil {
			return nil, err
		}
		rev = append(rev, cur)
		if h.Parent == "" {
			break
		}
		cur = h.Parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

func refVerifyImage(store storage.Store, image string) error {
	wantSum, wantSize, err := readManifest(store, image)
	if err != nil {
		return err
	}
	r, err := store.Open(image)
	if err != nil {
		return fmt.Errorf("%w: image %q: %v", ErrVerifyFailed, image, err)
	}
	defer r.Close()
	h := sha256.New()
	n, err := io.Copy(h, r)
	if err != nil {
		return fmt.Errorf("%w: image %q: reading: %v", ErrVerifyFailed, image, err)
	}
	if n != wantSize {
		return fmt.Errorf("%w: image %q: %d bytes stored, manifest says %d", ErrVerifyFailed, image, n, wantSize)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSum {
		return fmt.Errorf("%w: image %q: sha256 %s, manifest says %s", ErrVerifyFailed, image, got, wantSum)
	}
	return nil
}

func refRestore(registry *proc.Registry, store storage.Store, name string) (*proc.Process, *ImageInfo, error) {
	chain, err := refChain(store, name)
	if err != nil {
		return nil, nil, err
	}
	var (
		mem  *proc.Memory
		tip  *Header
		seen = make(map[int]bool)
	)
	for i, imgName := range chain {
		if verr := refVerifyImage(store, imgName); verr != nil && !errors.Is(verr, ErrNoManifest) {
			return nil, nil, verr
		}
		h, pages, err := refReadImage(store, imgName)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			if h.Incremental {
				return nil, nil, fmt.Errorf("%w: chain base %q is incremental", ErrCorrupt, imgName)
			}
			if h.PageSize != proc.PageSize {
				return nil, nil, fmt.Errorf("checkpoint: image %q page size %d unsupported", imgName, h.PageSize)
			}
			mem, err = proc.NewMemory(int64(h.RealPages)*proc.PageSize, h.LogicalBytes)
			if err != nil {
				return nil, nil, fmt.Errorf("checkpoint: rebuild memory for %q: %w", imgName, err)
			}
		} else {
			if h.ProcID != tip.ProcID {
				return nil, nil, fmt.Errorf("%w: image %q is for process %q, chain is for %q", ErrCorrupt, imgName, h.ProcID, tip.ProcID)
			}
			if h.RealPages != tip.RealPages {
				return nil, nil, fmt.Errorf("%w: image %q page count %d != base %d", ErrCorrupt, imgName, h.RealPages, tip.RealPages)
			}
		}
		for idx, data := range pages {
			if err := mem.SetPage(idx, data); err != nil {
				return nil, nil, fmt.Errorf("checkpoint: apply page %d of %q: %w", idx, imgName, err)
			}
			seen[idx] = true
		}
		tip = h
	}
	if len(seen) < int(tip.RealPages) {
		return nil, nil, fmt.Errorf("%w: restored only %d of %d pages", ErrCorrupt, len(seen), tip.RealPages)
	}
	program, err := registry.New(tip.ProgramName)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: restore %q: %w", name, err)
	}
	mem.ClearSoftDirty()
	p := proc.Rebuild(tip.ProcID, program, mem, proc.Registers{PC: tip.PC, R: tip.Regs}, tip.Steps)
	info, err := refReadInfo(store, name)
	if err != nil {
		return nil, nil, err
	}
	return p, info, nil
}
