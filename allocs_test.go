package eos

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// TestAllocsPerOp pins the heap allocations of the read, scan, insert,
// delete and commit paths on both volume kinds.  An allocation count does
// not depend on the machine, so each row is exact: a change that adds an
// allocation fails here, and one that removes an allocation must lower its
// row, so the figure never drifts above what the code does.  The race
// detector adds an allocation to each commit, and drops some of the memory
// an insert or a delete hands back for reuse, so those rows do not run
// under it.  The insert and delete rows' new segments cannot go right after
// the pages they read, so each waits in the write-behind set: its image is
// memory the operation allocates and the set keeps.
func TestAllocsPerOp(t *testing.T) {
	const ps = 4096
	pages := make([][]byte, 64)
	for i := range pages {
		pages[i] = pat(i+1, ps)
	}
	simStore := func(t *testing.T) *Store {
		vol := disk.MustNewVolume(ps, 8192, disk.DefaultCostModel())
		logVol := disk.MustNewVolume(ps, 8192, disk.DefaultCostModel())
		s, err := Format(vol, logVol, Options{Threshold: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fileStore := func(t *testing.T) *Store {
		s, err := CreateAt(t.TempDir(), Options{PageSize: ps, DataPages: 8192, LogPages: 2048, Threshold: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	fileVolume := func(t *testing.T) *disk.FileVolume {
		v, err := disk.CreateFileVolume(filepath.Join(t.TempDir(), "vol.eos"), ps, 4096, disk.FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = v.Close() })
		return v
	}
	// object creates an object of size bytes on s, appended in chunk-sized
	// pieces so that it spans several segments.
	object := func(t *testing.T, s *Store, size, chunk int) *Object {
		o, err := s.Create("x", 0)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < size; off += chunk {
			if err := o.Append(pat(off+1, chunk)); err != nil {
				t.Fatal(err)
			}
		}
		return o
	}
	read64KB := func(t *testing.T, o *Object) func() {
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, 64<<10)
		return func() {
			if err := o.ReadAt(buf, rng.Int63n(o.Size()-int64(len(buf)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// commit replaces n bytes of o in one transaction, each call at the
	// next offset.
	commit := func(t *testing.T, o *Object, n int) func() {
		data := pat(7, n)
		off := int64(0)
		return func() {
			tx, err := o.s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Replace("x", off, data); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			off = (off + int64(n)) % o.Size()
		}
	}
	// edit inserts or deletes 4 KB at a random offset of a 512 KB object of
	// 32 KB segments: with T = 8 every edit reshuffles bytes of its
	// neighbours into the segment it writes.  edited is the store it edits.
	var edited *Store
	edit := func(t *testing.T, insert bool) func() {
		edited = simStore(t)
		o := object(t, edited, 512<<10, 32<<10)
		rng := rand.New(rand.NewSource(3))
		data := pat(9, ps)
		return func() {
			var err error
			if insert {
				err = o.Insert(rng.Int63n(o.Size()+1), data)
			} else {
				err = o.Delete(rng.Int63n(o.Size()-ps+1), ps)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, row := range []struct {
		name   string
		allocs float64
		racy   bool // the race detector changes the count
		// bytesBelow, when not 0, bounds the bytes an operation allocates;
		// pendingBelow bounds them by the pages it leaves in the edited
		// store's write-behind set, plus that many pages more.
		bytesBelow   uint64
		pendingBelow int
		op           func(t *testing.T) func()
	}{
		{"sim/read 64KB", 2, false, 0, 0, func(t *testing.T) func() {
			return read64KB(t, object(t, simStore(t), 256<<10, 32<<10))
		}},
		{"sim/scan 256KB", 0, false, 0, 0, func(t *testing.T) func() {
			o := object(t, simStore(t), 256<<10, 32<<10)
			buf := make([]byte, 64<<10)
			return func() {
				r := o.NewReader()
				for {
					if n, err := r.Read(buf); n == 0 || err != nil {
						break
					}
				}
			}
		}},
		{"sim/commit 512B replace", 26, true, 0, 0, func(t *testing.T) func() {
			return commit(t, object(t, simStore(t), 64<<10, 64<<10), 512)
		}},
		// An insert leaves a new segment of at least T = 8 pages in the
		// write-behind set, whose image it allocates; the set's bookkeeping
		// for it takes less than another four pages.
		{"sim/insert 4KB", 13, true, 0, 4, func(t *testing.T) func() { return edit(t, true) }},
		{"sim/delete 4KB", 13, true, 0, 0, func(t *testing.T) func() { return edit(t, false) }},
		{"file/WriteRun", 1, false, 0, 0, func(t *testing.T) func() {
			v := fileVolume(t)
			return func() {
				if err := v.WriteRun(0, pages); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"file/WritePages", 0, false, 0, 0, func(t *testing.T) func() {
			v := fileVolume(t)
			return func() {
				for p, page := range pages {
					if err := v.WritePages(disk.PageNum(p), 1, page); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
		{"file/commit 4KB replace", 25, true, 0, 0, func(t *testing.T) func() {
			return commit(t, object(t, fileStore(t), ps, ps), ps)
		}},
		{"file/read 64KB", 1, false, 0, 0, func(t *testing.T) func() {
			o := object(t, fileStore(t), 4<<20, 256<<10)
			if err := o.s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			return read64KB(t, o)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			if row.racy && raceEnabled {
				t.Skip("the race detector allocates on this path")
			}
			op := row.op(t)
			if got := testing.AllocsPerRun(50, op); got != row.allocs {
				t.Errorf("%.0f allocations per operation, want %.0f", got, row.allocs)
			}
			if row.bytesBelow == 0 && row.pendingBelow == 0 {
				return
			}
			var before, after runtime.MemStats
			pending := func() int64 { return edited.Stats().LOB.PendingPages }
			var p0 int64
			if row.pendingBelow > 0 {
				p0 = pending()
			}
			runtime.ReadMemStats(&before)
			for i := 0; i < 50; i++ {
				op()
			}
			runtime.ReadMemStats(&after)
			bound := row.bytesBelow
			if row.pendingBelow > 0 {
				// No checkpoint runs, so the set still holds every page
				// the operations left in it.
				bound = uint64((pending()-p0)/50+int64(row.pendingBelow)) * ps
			}
			if got := (after.TotalAlloc - before.TotalAlloc) / 50; got >= bound {
				t.Errorf("%d bytes allocated per operation, want fewer than %d", got, bound)
			}
		})
	}
}
