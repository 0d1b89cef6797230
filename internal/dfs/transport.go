package dfs

import (
	"fmt"
	"sync"
)

// InProcTransport wires clients, the NameNode, and DataNodes by direct
// method calls within one process. The event-driven cluster emulation uses
// it: bytes move for real, time is accounted by storage devices.
type InProcTransport struct {
	mu        sync.RWMutex
	namenode  NameNodeAPI
	datanodes map[string]DataNodeAPI
}

// NewInProcTransport returns an empty transport.
func NewInProcTransport() *InProcTransport {
	return &InProcTransport{datanodes: make(map[string]DataNodeAPI)}
}

var _ Transport = (*InProcTransport)(nil)

// SetNameNode installs the NameNode.
func (t *InProcTransport) SetNameNode(nn NameNodeAPI) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.namenode = nn
}

// AddDataNode installs a DataNode under its ID.
func (t *InProcTransport) AddDataNode(info DataNodeInfo, dn DataNodeAPI) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.datanodes[info.ID] = dn
}

// NameNode implements Transport.
func (t *InProcTransport) NameNode() (NameNodeAPI, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.namenode == nil {
		return nil, fmt.Errorf("dfs: no namenode installed")
	}
	return t.namenode, nil
}

// DataNode implements Transport.
func (t *InProcTransport) DataNode(info DataNodeInfo) (DataNodeAPI, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	dn, ok := t.datanodes[info.ID]
	if !ok {
		return nil, fmt.Errorf("dfs: unknown datanode %q", info.ID)
	}
	return dn, nil
}

// Cluster bundles a complete in-process DFS: one NameNode, n DataNodes,
// and a transport. The package's tests build on it; yarn and the examples
// assemble their own.
type Cluster struct {
	NameNode  *NameNode
	DataNodes []*DataNode
	Transport *InProcTransport
}

// NewCluster builds an in-process DFS with n DataNodes named "dn-0" ...
// "dn-<n-1>" and the given replication factor.
func NewCluster(n, replication int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dfs: cluster needs at least one datanode, got %d", n)
	}
	t := NewInProcTransport()
	nn := NewNameNode(replication)
	t.SetNameNode(nn)
	// Self-healing after bad-replica reports copies blocks over the same
	// in-process transport the clients use.
	nn.AttachTransport(t)
	c := &Cluster{NameNode: nn, Transport: t}
	for i := 0; i < n; i++ {
		info := DataNodeInfo{ID: fmt.Sprintf("dn-%d", i), Addr: fmt.Sprintf("dn-%d", i)}
		dn := NewDataNode(info, t)
		t.AddDataNode(info, dn)
		if err := nn.Register(info); err != nil {
			return nil, err
		}
		c.DataNodes = append(c.DataNodes, dn)
	}
	return c, nil
}

// ClientAt returns a client co-located with DataNode i.
func (c *Cluster) ClientAt(i int, opts ...ClientOption) *Client {
	opts = append([]ClientOption{WithLocalNode(fmt.Sprintf("dn-%d", i))}, opts...)
	return NewClient(c.Transport, opts...)
}
