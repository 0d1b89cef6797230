package dfs

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"preemptsched/internal/wire"
)

// The TCP transport carries one request/response pair per round trip over
// a persistent connection. It exists so the DFS substrate is demonstrably a
// distributed system (cmd/dfs runs namenode and datanodes as separate
// processes) rather than a map behind interfaces.
//
// Every message is a gob-encoded rpcRequest or rpcResponse. Block bytes do
// not ride inside the gob message: a WriteBlock request and a ReadBlock
// response announce them in the message's Payload field and the bytes
// follow the message as one raw frame,
//
//	| gob(rpcRequest{Method: "WriteBlock", Payload: n, ...}) | n raw bytes |
//	| gob(rpcResponse{Payload: n, ...})                      | n raw bytes |
//
// which the receiver reads with a single io.ReadFull into a buffer of
// exactly n bytes — on a server, where it becomes the stored replica, a
// listed one for a frame the size of a listed replica and a fresh one for
// any other; a listed one on a client. n is bounded by MaxBlockPayload; a
// negative or larger n, a frame announced on any other message, or a frame
// cut short closes the connection, since the stream can no longer be
// trusted to be in step. NameNode metadata RPCs carry no frame.

// MaxBlockPayload is the largest raw block frame either side of the TCP
// transport accepts, and so the largest block the transport can carry. It
// bounds what one hostile length field can make a peer allocate.
const MaxBlockPayload = 64 << 20

// rpcRequest is the union of all request payloads; Method selects the
// operation. A single fat struct keeps the gob stream self-describing
// without per-method type registration.
type rpcRequest struct {
	Method    string
	Path      string
	Preferred string
	Prefix    string
	Size      int64
	DN        DataNodeInfo
	Block     BlockID
	Pipeline  []DataNodeInfo
	Blocks    []BlockID
	// Payload is the length of the raw block frame that follows the
	// message (WriteBlock only).
	Payload int
}

// rpcResponse is the union of all response payloads. Err carries the
// flattened error message (empty means success); ErrCode carries the
// sentinel's wire code so the client can rehydrate error identity for
// errors.Is checks.
type rpcResponse struct {
	Err     string
	ErrCode uint8
	Stale   []BlockLocation
	Loc     BlockLocation
	Info    FileInfo
	Names   []string
	Blocks  []BlockID
	// Payload is the length of the raw block frame that follows the
	// message (a successful ReadBlock only).
	Payload int
}

// rpcConn frames one connection: gob messages, each optionally followed by
// the raw block frame it announces. The decoder reads through br, which
// is an io.ByteReader, so gob consumes exactly its message and the frame
// can be read from br right after it.
type rpcConn struct {
	w   io.Writer
	br  *bufio.Reader
	enc *gob.Encoder
	dec *gob.Decoder
}

func newRPCConn(rw io.ReadWriter) *rpcConn {
	br := bufio.NewReader(rw)
	return &rpcConn{w: rw, br: br, enc: gob.NewEncoder(rw), dec: gob.NewDecoder(br)}
}

// checkFrameSize refuses a block too large to cross the transport, before
// the peer would drop the connection over it.
func checkFrameSize(id BlockID, block []byte) error {
	if len(block) > MaxBlockPayload {
		return fmt.Errorf("dfs: block %d of %d bytes exceeds the %d-byte frame bound", id, len(block), MaxBlockPayload)
	}
	return nil
}

// send writes one message and then the block frame it announced.
func (c *rpcConn) send(msg any, frame []byte) error {
	if err := c.enc.Encode(msg); err != nil {
		return err
	}
	if len(frame) == 0 {
		return nil
	}
	_, err := c.w.Write(frame)
	return err
}

// recvFrame reads the n-byte block frame the message just decoded
// announced into a buffer from alloc. allowed says whether that message may
// carry one at all. Any error leaves the stream out of step: the caller
// must drop the connection.
func (c *rpcConn) recvFrame(n int, allowed bool, alloc func(int) []byte) ([]byte, error) {
	switch {
	case n == 0:
		return nil, nil
	case !allowed:
		return nil, fmt.Errorf("dfs: rpc: %d-byte block frame on a message that carries none", n)
	case n < 0 || n > MaxBlockPayload:
		return nil, fmt.Errorf("dfs: rpc: block frame of %d bytes outside [0, %d]", n, MaxBlockPayload)
	}
	frame := alloc(n)
	if _, err := io.ReadFull(c.br, frame); err != nil {
		return nil, fmt.Errorf("dfs: rpc: block frame cut short: %w", err)
	}
	return frame, nil
}

// recvRequest reads one request and its block frame: listed storage for a
// frame the size of a listed replica, fresh storage for any other.
func (c *rpcConn) recvRequest() (*rpcRequest, []byte, error) {
	var req rpcRequest
	if err := c.dec.Decode(&req); err != nil {
		return nil, nil, err
	}
	frame, err := c.recvFrame(req.Payload, req.Method == "WriteBlock", replicaFrame)
	if err != nil {
		return nil, nil, err
	}
	return &req, frame, nil
}

// roundTrip sends one request with its block frame and reads the response
// with its own, a listed buffer the caller owns.
func (c *rpcConn) roundTrip(req *rpcRequest, frame []byte) (*rpcResponse, []byte, error) {
	if err := c.send(req, frame); err != nil {
		return nil, nil, err
	}
	var resp rpcResponse
	if err := c.dec.Decode(&resp); err != nil {
		return nil, nil, err
	}
	data, err := c.recvFrame(resp.Payload, req.Method == "ReadBlock" && resp.Err == "", getBlock)
	if err != nil {
		return nil, nil, err
	}
	return &resp, data, nil
}

// replicaFrame is the storage a server reads an n-byte WriteBlock frame
// into, which a *DataNode keeps as the replica.
func replicaFrame(n int) []byte {
	if listedSize(n) {
		return getBlock(n)
	}
	return make([]byte, n)
}

// setErr flattens err into the response, preserving sentinel identity via
// the wire code.
func (r *rpcResponse) setErr(err error) {
	if err == nil {
		return
	}
	r.Err = err.Error()
	r.ErrCode = errToCode(err)
}

// asError rehydrates the response's error, or returns nil on success.
func (r *rpcResponse) asError() error {
	if r.Err == "" {
		return nil
	}
	if sentinel := codeToErr(r.ErrCode); sentinel != nil {
		return &rpcError{msg: r.Err, sentinel: sentinel}
	}
	return errors.New(r.Err)
}

// Serve runs an RPC loop for either node role until the listener closes.
// Pass exactly one non-nil API. Closing the listener is a clean shutdown:
// Serve closes every open connection, waits for the per-connection
// goroutines to drain, and returns nil. Any other accept error is
// returned.
func Serve(l net.Listener, nn NameNodeAPI, dn DataNodeAPI) error {
	if (nn == nil) == (dn == nil) {
		return errors.New("dfs: Serve requires exactly one of namenode or datanode")
	}
	return wire.Serve(l, func(conn net.Conn) { serveConn(conn, nn, dn) })
}

// serveConn answers requests until the peer goes away or sends something
// that is not a well-formed request; returning drops the connection.
func serveConn(conn io.ReadWriter, nn NameNodeAPI, dn DataNodeAPI) {
	c := newRPCConn(conn)
	for {
		req, frame, err := c.recvRequest()
		if err != nil {
			return
		}
		var (
			resp rpcResponse
			sent storedBlock
		)
		if nn != nil {
			resp = dispatchNameNode(nn, req)
		} else {
			resp, sent = dispatchDataNode(dn, req, frame)
		}
		err = c.send(&resp, sent.data)
		sent.release()
		if err != nil {
			return
		}
	}
}

func dispatchNameNode(nn NameNodeAPI, req *rpcRequest) rpcResponse {
	var resp rpcResponse
	switch req.Method {
	case "Register":
		resp.setErr(nn.Register(req.DN))
	case "Heartbeat":
		resp.setErr(nn.Heartbeat(req.DN))
	case "Create":
		stale, err := nn.Create(req.Path)
		resp.Stale = stale
		resp.setErr(err)
	case "AddBlock":
		loc, err := nn.AddBlock(req.Path, req.Preferred)
		resp.Loc = loc
		resp.setErr(err)
	case "ReportBlock":
		resp.setErr(nn.ReportBlock(req.Path, req.Block, req.Pipeline))
	case "Complete":
		resp.setErr(nn.Complete(req.Path, req.Size))
	case "Stat":
		info, err := nn.Stat(req.Path)
		resp.Info = info
		resp.setErr(err)
	case "Delete":
		info, err := nn.Delete(req.Path)
		resp.Info = info
		resp.setErr(err)
	case "List":
		names, err := nn.List(req.Prefix)
		resp.Names = names
		resp.setErr(err)
	case "ReportBadReplica":
		resp.setErr(nn.ReportBadReplica(req.Block, req.DN))
	case "BlockReport":
		stale, err := nn.BlockReport(req.DN, req.Blocks)
		resp.Blocks = stale
		resp.setErr(err)
	default:
		resp.Err = fmt.Sprintf("dfs: unknown namenode method %q", req.Method)
	}
	return resp
}

// dispatchDataNode runs one DataNode request; frame is the block a
// WriteBlock carried, the returned replica holds the block a ReadBlock
// fetched, for the caller to send and release. A *DataNode copies neither:
// it keeps the frame as the replica, and answers from the stored replica,
// which is immutable and held until the send is done.
func dispatchDataNode(dn DataNodeAPI, req *rpcRequest, frame []byte) (resp rpcResponse, sent storedBlock) {
	node, _ := dn.(*DataNode)
	switch req.Method {
	case "WriteBlock":
		if node != nil {
			resp.setErr(node.writeOwned(req.Block, frame, req.Pipeline))
		} else {
			resp.setErr(dn.WriteBlock(req.Block, frame, req.Pipeline))
		}
	case "ReadBlock":
		var err error
		if node != nil {
			sent, err = node.viewBlock(req.Block)
		} else {
			sent.data, err = dn.ReadBlock(req.Block)
		}
		if err == nil {
			err = checkFrameSize(req.Block, sent.data)
		}
		if err != nil {
			sent.release()
			sent = storedBlock{}
		}
		resp.Payload = len(sent.data)
		resp.setErr(err)
	case "DeleteBlock":
		resp.setErr(dn.DeleteBlock(req.Block))
	default:
		resp.Err = fmt.Sprintf("dfs: unknown datanode method %q", req.Method)
	}
	return resp, sent
}

// tcpPeer issues calls to one remote address over the shared connection
// layer: one lazily dialed, reused connection, a deadline per round trip,
// one redial after a transport or framing error.
type tcpPeer struct {
	*wire.Peer[*rpcConn]
}

// call issues a request that carries and fetches no block frame.
func (p tcpPeer) call(req *rpcRequest) (*rpcResponse, error) {
	resp, _, err := p.exchange(req, nil)
	return resp, err
}

// exchange sends req with its block frame and returns the response with its
// own. A transport failure comes back wrapped, the error a well-formed
// response carries rehydrated.
func (p tcpPeer) exchange(req *rpcRequest, frame []byte) (resp *rpcResponse, data []byte, err error) {
	err = p.RoundTrip(func(c *rpcConn) (err error) {
		resp, data, err = c.roundTrip(req, frame)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("dfs: %w", err)
	}
	return resp, data, resp.asError()
}

// DefaultRPCTimeout bounds each RPC round trip (dial, write, read). Large
// enough for an 8 MiB block transfer on a slow link, small enough that a
// dead peer is detected promptly.
const DefaultRPCTimeout = 30 * time.Second

// TCPTransport resolves NameNode and DataNode stubs over TCP.
type TCPTransport struct {
	namenodeAddr string
	mu           sync.Mutex
	peers        map[string]tcpPeer
}

// NewTCPTransport returns a transport whose NameNode lives at
// namenodeAddr.
func NewTCPTransport(namenodeAddr string) *TCPTransport {
	return &TCPTransport{namenodeAddr: namenodeAddr, peers: make(map[string]tcpPeer)}
}

var _ Transport = (*TCPTransport)(nil)

func (t *TCPTransport) peer(addr string) tcpPeer {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[addr]
	if !ok {
		p = tcpPeer{wire.NewPeer(addr, DefaultRPCTimeout, func(conn net.Conn) *rpcConn { return newRPCConn(conn) })}
		t.peers[addr] = p
	}
	return p
}

// NameNode implements Transport.
func (t *TCPTransport) NameNode() (NameNodeAPI, error) {
	return &tcpNameNode{peer: t.peer(t.namenodeAddr)}, nil
}

// DataNode implements Transport.
func (t *TCPTransport) DataNode(info DataNodeInfo) (DataNodeAPI, error) {
	if info.Addr == "" {
		return nil, fmt.Errorf("dfs: datanode %q has no address", info.ID)
	}
	return &tcpDataNode{peer: t.peer(info.Addr)}, nil
}

// Close drops all pooled connections.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.peers {
		p.Close()
	}
	t.peers = make(map[string]tcpPeer)
}

type tcpNameNode struct{ peer tcpPeer }

var _ NameNodeAPI = (*tcpNameNode)(nil)

func (n *tcpNameNode) Register(dn DataNodeInfo) error {
	_, err := n.peer.call(&rpcRequest{Method: "Register", DN: dn})
	return err
}

func (n *tcpNameNode) Heartbeat(dn DataNodeInfo) error {
	_, err := n.peer.call(&rpcRequest{Method: "Heartbeat", DN: dn})
	return err
}

func (n *tcpNameNode) Create(path string) ([]BlockLocation, error) {
	resp, err := n.peer.call(&rpcRequest{Method: "Create", Path: path})
	if err != nil {
		return nil, err
	}
	return resp.Stale, nil
}

func (n *tcpNameNode) AddBlock(path, preferred string) (BlockLocation, error) {
	resp, err := n.peer.call(&rpcRequest{Method: "AddBlock", Path: path, Preferred: preferred})
	if err != nil {
		return BlockLocation{}, err
	}
	return resp.Loc, nil
}

func (n *tcpNameNode) ReportBlock(path string, id BlockID, replicas []DataNodeInfo) error {
	_, err := n.peer.call(&rpcRequest{Method: "ReportBlock", Path: path, Block: id, Pipeline: replicas})
	return err
}

func (n *tcpNameNode) Complete(path string, size int64) error {
	_, err := n.peer.call(&rpcRequest{Method: "Complete", Path: path, Size: size})
	return err
}

func (n *tcpNameNode) Stat(path string) (FileInfo, error) {
	resp, err := n.peer.call(&rpcRequest{Method: "Stat", Path: path})
	if err != nil {
		return FileInfo{}, err
	}
	return resp.Info, nil
}

func (n *tcpNameNode) Delete(path string) (FileInfo, error) {
	resp, err := n.peer.call(&rpcRequest{Method: "Delete", Path: path})
	if err != nil {
		return FileInfo{}, err
	}
	return resp.Info, nil
}

func (n *tcpNameNode) List(prefix string) ([]string, error) {
	resp, err := n.peer.call(&rpcRequest{Method: "List", Prefix: prefix})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

func (n *tcpNameNode) ReportBadReplica(id BlockID, bad DataNodeInfo) error {
	_, err := n.peer.call(&rpcRequest{Method: "ReportBadReplica", Block: id, DN: bad})
	return err
}

func (n *tcpNameNode) BlockReport(dn DataNodeInfo, blocks []BlockID) ([]BlockID, error) {
	resp, err := n.peer.call(&rpcRequest{Method: "BlockReport", DN: dn, Blocks: blocks})
	if err != nil {
		return nil, err
	}
	return resp.Blocks, nil
}

type tcpDataNode struct{ peer tcpPeer }

var _ DataNodeAPI = (*tcpDataNode)(nil)

func (d *tcpDataNode) WriteBlock(id BlockID, data []byte, pipeline []DataNodeInfo) error {
	if err := checkFrameSize(id, data); err != nil {
		return err
	}
	_, _, err := d.peer.exchange(&rpcRequest{Method: "WriteBlock", Block: id, Pipeline: pipeline, Payload: len(data)}, data)
	return err
}

func (d *tcpDataNode) ReadBlock(id BlockID) ([]byte, error) {
	_, data, err := d.peer.exchange(&rpcRequest{Method: "ReadBlock", Block: id}, nil)
	return data, err
}

func (d *tcpDataNode) DeleteBlock(id BlockID) error {
	_, err := d.peer.call(&rpcRequest{Method: "DeleteBlock", Block: id})
	return err
}
