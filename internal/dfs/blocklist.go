package dfs

import "sync"

// blockList is the free list every block-sized buffer of the package comes
// from and goes back to: the block a fileWriter fills, the one a fileReader
// holds, the frame the TCP client reads a ReadBlock response into, the copy
// an in-process DataNode.ReadBlock hands out, and a listed replica, which a
// TCP server reads a WriteBlock frame into and its last holder gives back.
// A buffer has one owner at a time, or a replica's counted holders (DESIGN
// §9 has the table); one dropped, not given back, costs an allocation, never
// correctness.
var blockList sync.Pool

// boxList keeps the *[]byte a listed buffer was held in once getBlock has
// taken the buffer out, for putBlock to list the next one in: a box made
// per putBlock would cost one allocation every get/put cycle.
var boxList sync.Pool

// getBlock returns n bytes holding whatever their last owner left: every
// user overwrites [0:n) before reading it. A listed buffer too small is
// dropped, so the list converges on the sizes asked for; a miss allocates n.
func getBlock(n int) []byte {
	if box, _ := blockList.Get().(*[]byte); box != nil {
		b := *box
		*box = nil
		boxList.Put(box)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// putBlock gives b back; the caller must hold the only reference. Nothing
// larger than DefaultBlockSize is kept (frames go up to MaxBlockPayload).
func putBlock(b []byte) {
	if cap(b) > 0 && cap(b) <= DefaultBlockSize {
		box, _ := boxList.Get().(*[]byte)
		if box == nil {
			box = new([]byte)
		}
		*box = b
		blockList.Put(box)
	}
}
