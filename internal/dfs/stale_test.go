package dfs

import (
	"fmt"
	"testing"
)

// threeNodeNameNode is a NameNode at replication 2 over three registered
// DataNodes.
func threeNodeNameNode(t *testing.T) *NameNode {
	t.Helper()
	nn := NewNameNode(2)
	for i := 0; i < 3; i++ {
		if err := nn.Register(DataNodeInfo{ID: fmt.Sprintf("dn-%d", i), Addr: fmt.Sprintf("a%d", i)}); err != nil {
			t.Fatalf("register dn-%d: %v", i, err)
		}
	}
	return nn
}

// TestCreateStaleDetached pins what re-creating a path returns: the old
// incarnation's blocks, for the caller's replica cleanup, and nothing of
// the new one. It cannot catch a missing detach in Create: the replaced
// entry is unreachable from the namespace, so nothing ever writes the
// array the returned list would share.
func TestCreateStaleDetached(t *testing.T) {
	nn := threeNodeNameNode(t)
	if _, err := nn.Create("/f"); err != nil {
		t.Fatalf("create: %v", err)
	}
	b1, err := nn.AddBlock("/f", "")
	if err != nil {
		t.Fatalf("add block: %v", err)
	}
	if err := nn.Complete("/f", 1); err != nil {
		t.Fatalf("complete: %v", err)
	}

	stale, err := nn.Create("/f")
	if err != nil {
		t.Fatalf("recreate: %v", err)
	}
	if len(stale) != 1 || stale[0].ID != b1.ID {
		t.Fatalf("stale = %+v, want the single original block %v", stale, b1.ID)
	}

	// Keep mutating: the new incarnation grows blocks; the caller's
	// cleanup list must not move under it.
	if _, err := nn.AddBlock("/f", ""); err != nil {
		t.Fatalf("add block to new incarnation: %v", err)
	}
	if len(stale) != 1 || stale[0].ID != b1.ID {
		t.Fatalf("stale snapshot changed after later namespace mutation: %+v", stale)
	}
}

// TestStatDetached guards Stat's deep copy: a caller rewriting the
// returned block list or a block's replica list must not corrupt the
// live entry, whose replica lists decommission and block reports
// rewrite in place.
func TestStatDetached(t *testing.T) {
	nn := threeNodeNameNode(t)
	if _, err := nn.Create("/f"); err != nil {
		t.Fatalf("create: %v", err)
	}
	b, err := nn.AddBlock("/f", "")
	if err != nil {
		t.Fatalf("add block: %v", err)
	}
	if err := nn.Complete("/f", 1); err != nil {
		t.Fatalf("complete: %v", err)
	}
	fi, err := nn.Stat("/f")
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	fi.Blocks[0].Replicas[0].ID = "scribbled"
	fi.Blocks[0] = BlockLocation{}
	again, err := nn.Stat("/f")
	if err != nil {
		t.Fatalf("stat again: %v", err)
	}
	if got := again.Blocks[0]; got.ID != b.ID || got.Replicas[0].ID != b.Replicas[0].ID {
		t.Fatalf("NameNode entry corrupted through a Stat result: %+v, want %+v", got, b)
	}
}
