package checkpoint

import (
	"bytes"
	"testing"

	"preemptsched/internal/proc"
	"preemptsched/internal/storage"
)

// Address-space lifetimes across a checkpoint; DESIGN §16.6 has the owner
// table. CI runs these five more times under -race.

// memoryBytes copies out every page of p.
func memoryBytes(p *proc.Process) []byte {
	m := p.Memory()
	out := make([]byte, 0, m.RealBytes())
	for i := 0; i < m.NumPages(); i++ {
		out = append(out, m.Page(i)...)
	}
	return out
}

// Released space under an image.
// GIVEN a process dumped in full, restored, run on and dumped incrementally
// on top, into a MemStore and into a FileStore,
// WHEN each dumped process is released as soon as its Dump returns, a
// process of the same size is built over its array and scribbled on, and the
// image just written is then restored,
// THEN the restore holds exactly the bytes the process had when it was
// dumped: no store keeps a reference to the pages a dump wrote, so the owner
// of a frozen dump may give them back at once.
func TestReleasedSpaceNeverShowsThroughImage(t *testing.T) {
	const pages = 12
	e := newTestEngine(t)
	files, err := storage.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []storage.Store{storage.NewMemStore(), files} {
		p := newFillProc(t, pages, 40, 3)
		parent := ""
		for _, name := range []string{"rel/full", "rel/incr"} {
			stepN(t, p, 7)
			if err := p.Suspend(); err != nil {
				t.Fatal(err)
			}
			want := memoryBytes(p)
			opts := DumpOpts{}
			if parent != "" {
				opts = DumpOpts{Incremental: true, Parent: parent}
			}
			if _, err := e.Dump(p, store, name, opts); err != nil {
				t.Fatal(err)
			}
			released := p.Memory().Page(0)
			p.Release()

			q := newFillProc(t, pages, 1, 1)
			if &q.Memory().Page(0)[0] != &released[0] {
				t.Fatalf("%T %s: the next process is not built on the released array", store, name)
			}
			if err := q.Memory().WriteAt(bytes.Repeat([]byte{0xEE}, pages*proc.PageSize), 0); err != nil {
				t.Fatal(err)
			}

			restored, _, err := e.Restore(store, name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(memoryBytes(restored), want) {
				t.Errorf("%T %s: the restore differs from the process as dumped", store, name)
			}
			p, parent = restored, name
		}
	}
}
