package faults

import (
	"preemptsched/internal/dfs"
)

// WrapTransport interposes the injector between every component and the
// DFS. Build the real cluster on an inner transport, then hand every
// client *and* every DataNode this wrapper, so pipeline forwarding between
// DataNodes suffers the same faults client RPCs do.
func WrapTransport(inner dfs.Transport, in *Injector) dfs.Transport {
	return &faultTransport{inner: inner, in: in}
}

type faultTransport struct {
	inner dfs.Transport
	in    *Injector
}

var _ dfs.Transport = (*faultTransport)(nil)

func (t *faultTransport) NameNode() (dfs.NameNodeAPI, error) {
	nn, err := t.inner.NameNode()
	if err != nil {
		return nil, err
	}
	return &faultNameNode{inner: nn, in: t.in}, nil
}

func (t *faultTransport) DataNode(info dfs.DataNodeInfo) (dfs.DataNodeAPI, error) {
	dn, err := t.inner.DataNode(info)
	if err != nil {
		return nil, err
	}
	return &faultDataNode{inner: dn, id: info.ID, in: t.in}, nil
}

// faultNameNode injects failures ahead of NameNode calls. Faults fire
// before the inner call runs, so an injected failure never leaves hidden
// server-side effects — retried operations stay idempotent.
type faultNameNode struct {
	inner dfs.NameNodeAPI
	in    *Injector
}

var _ dfs.NameNodeAPI = (*faultNameNode)(nil)

func (n *faultNameNode) pre(op string) error {
	if n.in.roll(n.in.plan.NameNodeErrorRate) {
		return n.in.inject(ModeNameNodeRPCErrors, op)
	}
	return nil
}

func (n *faultNameNode) Register(dn dfs.DataNodeInfo) error {
	if err := n.pre("register"); err != nil {
		return err
	}
	return n.inner.Register(dn)
}

func (n *faultNameNode) Heartbeat(dn dfs.DataNodeInfo) error {
	if err := n.pre("heartbeat"); err != nil {
		return err
	}
	return n.inner.Heartbeat(dn)
}

func (n *faultNameNode) Create(path string) ([]dfs.BlockLocation, error) {
	if err := n.pre("create"); err != nil {
		return nil, err
	}
	return n.inner.Create(path)
}

func (n *faultNameNode) AddBlock(path, preferred string) (dfs.BlockLocation, error) {
	if err := n.pre("addblock"); err != nil {
		return dfs.BlockLocation{}, err
	}
	return n.inner.AddBlock(path, preferred)
}

func (n *faultNameNode) ReportBlock(path string, id dfs.BlockID, replicas []dfs.DataNodeInfo) error {
	if err := n.pre("reportblock"); err != nil {
		return err
	}
	return n.inner.ReportBlock(path, id, replicas)
}

func (n *faultNameNode) Complete(path string, size int64) error {
	if err := n.pre("complete"); err != nil {
		return err
	}
	return n.inner.Complete(path, size)
}

func (n *faultNameNode) Stat(path string) (dfs.FileInfo, error) {
	if err := n.pre("stat"); err != nil {
		return dfs.FileInfo{}, err
	}
	return n.inner.Stat(path)
}

func (n *faultNameNode) Delete(path string) (dfs.FileInfo, error) {
	if err := n.pre("delete"); err != nil {
		return dfs.FileInfo{}, err
	}
	return n.inner.Delete(path)
}

func (n *faultNameNode) List(prefix string) ([]string, error) {
	if err := n.pre("list"); err != nil {
		return nil, err
	}
	return n.inner.List(prefix)
}

func (n *faultNameNode) ReportBadReplica(id dfs.BlockID, bad dfs.DataNodeInfo) error {
	if err := n.pre("reportbadreplica"); err != nil {
		return err
	}
	return n.inner.ReportBadReplica(id, bad)
}

func (n *faultNameNode) BlockReport(dn dfs.DataNodeInfo, blocks []dfs.BlockID) ([]dfs.BlockID, error) {
	if err := n.pre("blockreport"); err != nil {
		return nil, err
	}
	return n.inner.BlockReport(dn, blocks)
}

// faultDataNode injects failures ahead of DataNode calls: random per-op
// errors, the configured crash-at-Nth-block-write, and permanent death
// after the crash.
type faultDataNode struct {
	inner dfs.DataNodeAPI
	id    string
	in    *Injector
}

var _ dfs.DataNodeAPI = (*faultDataNode)(nil)

func (d *faultDataNode) pre(op string) error {
	if d.in.nodeCrashed(d.id) {
		return d.in.inject(ModeDeadNodeRPCs, d.id+" "+op)
	}
	if d.in.rpcEligible(d.id) && d.in.roll(d.in.plan.RPCErrorRate) {
		return d.in.inject(ModeDataNodeRPCErrors, d.id+" "+op)
	}
	return nil
}

// blockCorrupter is implemented by *dfs.DataNode: flip one stored payload
// bit underneath its checksums. Only reachable through the in-process
// transport, where the wrapper holds the concrete node — which is exactly
// where the bit-flip chaos scenarios run.
type blockCorrupter interface {
	CorruptStoredBlock(id dfs.BlockID, bit int) bool
}

func (d *faultDataNode) WriteBlock(id dfs.BlockID, data []byte, pipeline []dfs.DataNodeInfo) error {
	if err := d.pre("writeblock"); err != nil {
		return err
	}
	if d.in.noteWrite(d.id) {
		return d.in.inject(ModeCrashedWrites, d.id)
	}
	if err := d.inner.WriteBlock(id, data, pipeline); err != nil {
		return err
	}
	// At-rest bit rot: the write (and its pipeline forwarding) succeeded;
	// only THIS node's stored copy decays. Pipeline peers took their own
	// independent roll when the forwarded write passed through their
	// wrappers.
	if bc, ok := d.inner.(blockCorrupter); ok {
		if bit, flip := d.in.noteBitFlip(int64(id)); flip {
			if bc.CorruptStoredBlock(id, bit) {
				d.in.count(ModeBitFlips)
			}
		}
	}
	return nil
}

func (d *faultDataNode) ReadBlock(id dfs.BlockID) ([]byte, error) {
	if err := d.pre("readblock"); err != nil {
		return nil, err
	}
	return d.inner.ReadBlock(id)
}

func (d *faultDataNode) DeleteBlock(id dfs.BlockID) error {
	if err := d.pre("deleteblock"); err != nil {
		return err
	}
	return d.inner.DeleteBlock(id)
}
