package dfs

import (
	"fmt"
	"hash/crc32"
)

// Block integrity follows HDFS: every stored block carries per-chunk
// CRC32C checksums computed when the bytes land on a DataNode. Reads
// re-verify before returning, so a replica whose bytes rotted at rest is
// detected at the first touch instead of silently resuming wrong state
// upstream (a corrupted checkpoint image would otherwise revive a wrong
// process). HDFS chunks at 512 bytes; the mini-DFS uses 64 KiB chunks,
// which keeps the checksum overhead per 8 MiB block negligible while
// still localizing damage to one chunk.

// ChecksumChunkSize is the granularity block checksums are computed at.
const ChecksumChunkSize = 64 << 10

// castagnoli is the CRC32C polynomial table (the checksum HDFS uses).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumChunks returns the CRC32C of each ChecksumChunkSize chunk of
// data (the final chunk may be short). Empty data has no chunks.
func checksumChunks(data []byte) []uint32 {
	return appendChecksums(make([]uint32, 0, (len(data)+ChecksumChunkSize-1)/ChecksumChunkSize), data)
}

// appendChecksums appends data's chunk checksums to sums.
func appendChecksums(sums []uint32, data []byte) []uint32 {
	for off := 0; off < len(data); off += ChecksumChunkSize {
		end := off + ChecksumChunkSize
		if end > len(data) {
			end = len(data)
		}
		sums = append(sums, crc32.Checksum(data[off:end], castagnoli))
	}
	return sums
}

// verifyChunks re-computes data's chunk checksums against sums and
// returns an ErrCorruptBlock-wrapped error naming the first bad chunk,
// or nil when every chunk matches.
func verifyChunks(data []byte, sums []uint32) error {
	want := (len(data) + ChecksumChunkSize - 1) / ChecksumChunkSize
	if len(sums) != want {
		return fmt.Errorf("%w: %d checksum chunks for %d data chunks", ErrCorruptBlock, len(sums), want)
	}
	for i, sum := range sums {
		off := i * ChecksumChunkSize
		end := off + ChecksumChunkSize
		if end > len(data) {
			end = len(data)
		}
		if crc32.Checksum(data[off:end], castagnoli) != sum {
			return fmt.Errorf("%w: chunk %d (bytes %d-%d) failed crc32c", ErrCorruptBlock, i, off, end)
		}
	}
	return nil
}
