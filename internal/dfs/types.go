// Package dfs implements a miniature distributed file system in the shape
// of HDFS: a NameNode owning the namespace and block map, DataNodes
// storing replicated blocks, a write pipeline that daisy-chains replicas,
// and a client that implements storage.Store so the checkpoint engine can
// dump images into the DFS exactly as the paper's CRIU+libhdfs extension
// does (Section 3.2.2). Storing checkpoints in the DFS is what makes
// remote resumption possible: any node can restore any task.
//
// Failure handling follows production HDFS: the client retries transient
// faults with exponential backoff and jitter, reads fail over across
// surviving replicas, a broken write pipeline is reconstructed without the
// failed DataNode (the final replica set is reported back to the
// NameNode), and the NameNode keeps a heartbeat-based liveness view that
// decommissions and re-replicates dead DataNodes.
//
// Two transports are provided: an in-process transport used by the
// event-driven cluster emulation, and a TCP transport (gob-encoded
// messages, block bytes as raw length-bounded frames; see tcp.go) used by
// cmd/dfs and the integration tests, which keeps the substrate honestly
// distributed.
package dfs

import (
	"errors"
	"fmt"
)

// BlockID identifies a block cluster-wide. IDs are allocated by the
// NameNode and never reused.
type BlockID int64

// DataNodeInfo identifies and addresses a DataNode.
type DataNodeInfo struct {
	// ID is the unique DataNode name (e.g. "dn-3").
	ID string
	// Addr is the transport address. For the in-process transport it
	// equals ID; for TCP it is a host:port.
	Addr string
}

// BlockLocation names a block and the replicas holding it, in pipeline
// order.
type BlockLocation struct {
	ID       BlockID
	Replicas []DataNodeInfo
}

// FileInfo describes a file in the namespace.
type FileInfo struct {
	Path     string
	Size     int64
	Complete bool
	Blocks   []BlockLocation
}

// NameNodeAPI is the client-visible NameNode protocol.
type NameNodeAPI interface {
	// Register announces a DataNode. Re-registering an ID updates its
	// address.
	Register(dn DataNodeInfo) error
	// Heartbeat refreshes a DataNode's liveness timestamp (registering it
	// if unknown). Nodes that stop heartbeating are eventually declared
	// dead and decommissioned.
	Heartbeat(dn DataNodeInfo) error
	// ReportBlock replaces the recorded replica set of a block after the
	// client rebuilt a failed write pipeline, so the NameNode's block map
	// reflects where the data actually landed.
	ReportBlock(path string, id BlockID, replicas []DataNodeInfo) error
	// Create starts a new file, truncating any existing entry. It returns
	// the blocks of the replaced file (if any) so the caller can reclaim
	// them from the DataNodes.
	Create(path string) ([]BlockLocation, error)
	// AddBlock allocates the next block of an open file and chooses its
	// replica set, placing the first replica on preferred when possible.
	AddBlock(path, preferred string) (BlockLocation, error)
	// Complete seals a file, recording its total size.
	Complete(path string, size int64) error
	// Stat describes a file.
	Stat(path string) (FileInfo, error)
	// Delete removes a file from the namespace and returns its blocks for
	// reclamation.
	Delete(path string) (FileInfo, error)
	// List returns the complete files whose path begins with prefix,
	// sorted.
	List(prefix string) ([]string, error)
	// ReportBadReplica flags one replica of a block as corrupt (detected by
	// a reader's or scrubber's checksum verification). The NameNode
	// quarantines the copy — removes it from the block map and deletes it —
	// and re-replicates the block from a verified surviving replica.
	ReportBadReplica(id BlockID, bad DataNodeInfo) error
	// BlockReport announces the full set of blocks a DataNode holds
	// (registering the node if unknown). The NameNode reconciles its block
	// map — attaching the node to known blocks — and returns the IDs the
	// namespace no longer references, for the DataNode to delete.
	BlockReport(dn DataNodeInfo, blocks []BlockID) ([]BlockID, error)
}

// DataNodeAPI is the block-transfer protocol.
type DataNodeAPI interface {
	// WriteBlock stores a block and forwards it to the remaining pipeline.
	// data is lent for the call: the caller may reuse it once it returns.
	WriteBlock(id BlockID, data []byte, pipeline []DataNodeInfo) error
	// ReadBlock returns a block's contents in a slice that is the caller's
	// alone from then on.
	ReadBlock(id BlockID) ([]byte, error)
	// DeleteBlock removes a block. Deleting an absent block is not an
	// error, so reclamation is idempotent.
	DeleteBlock(id BlockID) error
}

// Transport resolves API stubs for cluster components.
type Transport interface {
	NameNode() (NameNodeAPI, error)
	DataNode(dn DataNodeInfo) (DataNodeAPI, error)
}

// PathError decorates DFS errors with the path they concern.
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string { return fmt.Sprintf("dfs: %s %q: %v", e.Op, e.Path, e.Err) }
func (e *PathError) Unwrap() error { return e.Err }

// Sentinel errors shared across transports. The TCP transport maps each to
// a wire code and rehydrates it client-side, so errors.Is works identically
// whether a call was in-process or remote.
var (
	// ErrNotFound denotes a path absent from the namespace.
	ErrNotFound = errors.New("file not found")
	// ErrIncomplete denotes a file still open (never sealed by Complete).
	ErrIncomplete = errors.New("file is not complete")
	// ErrFileOpen denotes a create racing an in-progress write.
	ErrFileOpen = errors.New("file already open for writing")
	// ErrSealed denotes a write operation on a completed file.
	ErrSealed = errors.New("file is sealed")
	// ErrNoDataNodes denotes block allocation with zero live DataNodes.
	ErrNoDataNodes = errors.New("no datanodes registered")
	// ErrBlockMissing denotes a block not stored on the asked DataNode.
	ErrBlockMissing = errors.New("block not stored here")
	// ErrNodeDown denotes a crashed (or fault-injected) DataNode.
	ErrNodeDown = errors.New("datanode is down")
	// ErrUnknownBlock denotes a replica report for a block the file does
	// not contain.
	ErrUnknownBlock = errors.New("block not in file")
	// ErrCorruptBlock denotes a stored replica whose bytes no longer match
	// their checksums. Readers treat it like a dead replica: fail over and
	// report the bad copy so the NameNode quarantines and re-replicates it.
	ErrCorruptBlock = errors.New("block failed checksum verification")
)

// errCodes maps sentinel errors to stable wire codes (satellite of the
// fault-tolerance work: gob RPC flattens errors to strings, so without the
// code the client could not rehydrate error identity). Code 0 means "no
// sentinel"; the message alone crosses the wire.
var errCodes = []struct {
	code uint8
	err  error
}{
	{1, ErrNotFound},
	{2, ErrIncomplete},
	{3, ErrFileOpen},
	{4, ErrSealed},
	{5, ErrNoDataNodes},
	{6, ErrBlockMissing},
	{7, ErrNodeDown},
	{8, ErrUnknownBlock},
	{9, ErrCorruptBlock},
}

// errToCode finds the wire code for err's sentinel, if any.
func errToCode(err error) uint8 {
	for _, ec := range errCodes {
		if errors.Is(err, ec.err) {
			return ec.code
		}
	}
	return 0
}

// codeToErr returns the sentinel for a wire code, or nil.
func codeToErr(code uint8) error {
	for _, ec := range errCodes {
		if ec.code == code {
			return ec.err
		}
	}
	return nil
}

// rpcError is a flattened remote error carrying its rehydrated sentinel:
// Error() preserves the server's message, Unwrap() restores identity for
// errors.Is.
type rpcError struct {
	msg      string
	sentinel error
}

func (e *rpcError) Error() string { return e.msg }
func (e *rpcError) Unwrap() error { return e.sentinel }

// IsTransient reports whether err is worth retrying: anything that is not
// a definitive semantic answer from the NameNode. Injected faults, broken
// connections, and down DataNodes are transient; "file not found" is not.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	for _, permanent := range []error{ErrNotFound, ErrIncomplete, ErrFileOpen, ErrSealed, ErrUnknownBlock, ErrCorruptBlock} {
		if errors.Is(err, permanent) {
			return false
		}
	}
	return true
}
