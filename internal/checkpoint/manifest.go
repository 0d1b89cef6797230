package checkpoint

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"preemptsched/internal/storage"
)

// Every image gets a sidecar manifest ("<name>.sum") recording the
// SHA-256 and byte size of the exact object the dump published. Restore
// verifies the stored bytes against the manifest BEFORE reviving a
// process, closing the gap the per-image CRC leaves: a CRC lives inside
// the object it protects, so a store that silently replays an old object
// or truncates past the trailer can still present a self-consistent
// image. The manifest is an independent witness written through a
// separate Create, in the spirit of CRIU's stats/inventory sidecars.

// ManifestSuffix is appended to an image name to form its manifest name.
const ManifestSuffix = ".sum"

// ErrVerifyFailed is wrapped by every manifest-verification failure: the
// stored image bytes do not match what the dump recorded.
var ErrVerifyFailed = errors.New("checkpoint: image failed manifest verification")

// ErrNoManifest denotes an image without a sidecar manifest (e.g. written
// by an older build). Callers decide whether that is acceptable.
var ErrNoManifest = errors.New("checkpoint: image has no manifest")

// ManifestName returns the manifest object name for an image name.
func ManifestName(image string) string { return image + ManifestSuffix }

// hashWriter tees writes into a running SHA-256; the caller must stop its
// digester on every path that does not take the sum.
type hashWriter struct {
	w io.Writer
	d digester
}

func newHashWriter(w io.Writer) *hashWriter {
	return &hashWriter{w: w, d: digester{sha: sha256.New()}}
}

func (hw *hashWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	hw.d.write(p[:n])
	return n, err
}

func (hw *hashWriter) sum() string { return hex.EncodeToString(hw.d.sum(nil)) }

// writeManifest publishes the manifest for an image whose bytes hashed to
// sum256 over size bytes.
func writeManifest(store storage.Store, image, sum256 string, size int64) error {
	w, err := store.Create(ManifestName(image))
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "crgo-sum v1\nsha256=%s\nsize=%d\n", sum256, size); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// readManifest loads and parses an image's manifest.
func readManifest(store storage.Store, image string) (sum256 string, size int64, err error) {
	r, err := store.Open(ManifestName(image))
	if err != nil {
		if errors.Is(err, storage.ErrNotExist) {
			return "", 0, fmt.Errorf("%w: %q", ErrNoManifest, image)
		}
		return "", 0, err
	}
	defer r.Close()
	size = -1
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "sha256="):
			sum256 = strings.TrimPrefix(line, "sha256=")
		case strings.HasPrefix(line, "size="):
			size, err = strconv.ParseInt(strings.TrimPrefix(line, "size="), 10, 64)
			if err != nil {
				return "", 0, fmt.Errorf("%w: image %q: bad manifest size: %v", ErrVerifyFailed, image, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", 0, err
	}
	if len(sum256) != sha256.Size*2 || size < 0 {
		return "", 0, fmt.Errorf("%w: image %q: malformed manifest", ErrVerifyFailed, image)
	}
	return sum256, size, nil
}

// checkManifest compares the digest of an image's stored bytes with what
// its manifest recorded: ErrVerifyFailed (wrapped) on any mismatch.
func checkManifest(image string, got imageDigest, wantSum string, wantSize int64) error {
	if got.size != wantSize {
		return fmt.Errorf("%w: image %q: %d bytes stored, manifest says %d", ErrVerifyFailed, image, got.size, wantSize)
	}
	if sum := hex.EncodeToString(got.sum[:]); sum != wantSum {
		return fmt.Errorf("%w: image %q: sha256 %s, manifest says %s", ErrVerifyFailed, image, sum, wantSum)
	}
	return nil
}
