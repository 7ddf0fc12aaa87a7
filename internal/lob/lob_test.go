package lob

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/eosdb/eos/internal/buddy"
	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
)

// env bundles a fresh storage stack for one test.
type env struct {
	vol  *disk.Volume
	pool *buffer.Pool
	bm   *buddy.Manager
	m    *Manager
}

// newEnv builds a volume of numSpaces buddy spaces with the given
// capacity each.
func newEnv(t testing.TB, pageSize, numSpaces, capacity int, cfg Config) *env {
	t.Helper()
	return newEnvFrames(t, pageSize, numSpaces, capacity, 64, cfg)
}

// newEnvFrames is newEnv with a buffer pool of the given size.
func newEnvFrames(t testing.TB, pageSize, numSpaces, capacity, frames int, cfg Config) *env {
	t.Helper()
	pages := disk.PageNum(1 + numSpaces*(capacity+1))
	vol := disk.MustNewVolume(pageSize, pages, disk.DefaultCostModel())
	pool := buffer.MustNewPool(vol, frames)
	bm, err := buddy.FormatVolume(pool, vol, 1, numSpaces, capacity, true)
	if err != nil {
		t.Fatalf("FormatVolume: %v", err)
	}
	m, err := NewManager(vol, pool, bm, cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return &env{vol: vol, pool: pool, bm: bm, m: m}
}

func (e *env) freePages(t testing.TB) int {
	t.Helper()
	n, err := e.bm.FreePages()
	if err != nil {
		t.Fatalf("FreePages: %v", err)
	}
	return n
}

// pattern generates a deterministic, position-identifiable byte sequence.
func pattern(seed, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte((seed*131 + i*7) ^ (i >> 8))
	}
	return out
}

func mustContent(t *testing.T, o *Object, want []byte) {
	t.Helper()
	if o.Size() != int64(len(want)) {
		t.Fatalf("size = %d, want %d", o.Size(), len(want))
	}
	if len(want) == 0 {
		return
	}
	got, err := o.Read(0, int64(len(want)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("content differs at byte %d of %d (got %d want %d)", i, len(want), got[i], want[i])
			}
		}
	}
}

func mustCheck(t *testing.T, o *Object) {
	t.Helper()
	if err := o.Check(); err != nil {
		t.Fatalf("tree check: %v", err)
	}
}

func TestCreateWithHintSingleSegment(t *testing.T) {
	// Figure 5.a: a 1820-byte object created with a size hint occupies
	// one ceil(1820/100) = 19-page segment addressed by a one-pair root.
	e := newEnv(t, 100, 2, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	data := pattern(1, 1820)
	if err := o.AppendWithHint(data, 1820); err != nil {
		t.Fatal(err)
	}
	mustContent(t, o, data)
	mustCheck(t, o)
	u, err := o.Usage()
	if err != nil {
		t.Fatal(err)
	}
	if u.SegmentCount != 1 {
		t.Errorf("segments = %d, want 1", u.SegmentCount)
	}
	if u.SegmentPages != 19 {
		t.Errorf("segment pages = %d, want 19", u.SegmentPages)
	}
	if u.TreeHeight != 1 || len(o.root.entries) != 1 {
		t.Errorf("height=%d rootEntries=%d, want height 1, 1 entry", u.TreeHeight, len(o.root.entries))
	}
}

func TestAppendUnknownSizeDoubling(t *testing.T) {
	// Figure 5.b: appending 1820 bytes in sub-page chunks with unknown
	// final size grows segments 1, 2, 4, 8 pages, then the last segment
	// is trimmed to 4 pages: [100, 200, 400, 800, 320] bytes.
	e := newEnv(t, 100, 2, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	data := pattern(2, 1820)
	a := o.OpenAppender(0)
	for off := 0; off < len(data); off += 70 {
		end := off + 70
		if end > len(data) {
			end = len(data)
		}
		if _, err := a.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	mustContent(t, o, data)
	mustCheck(t, o)
	pages, err := o.SegmentPageCounts()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4, 8, 4}
	if fmt.Sprint(pages) != fmt.Sprint(want) {
		t.Errorf("segment pages = %v, want %v (doubling growth + trim)", pages, want)
	}
	// Trim means zero wasted pages beyond the last partial page.
	u, _ := o.Usage()
	if u.SegmentPages != 19 {
		t.Errorf("segment pages total = %d, want 19", u.SegmentPages)
	}
}

func TestSearchFigure5Cost(t *testing.T) {
	// §4.2 worked example: reading 320 bytes from byte 1470 of the
	// Figure 5.c object costs 3 seeks + 6 page transfers (one internal
	// node + 4 pages of one segment + 1 page of the next, excluding the
	// root); the same read on the single-segment object of Figure 5.a is
	// 1 seek + 4 contiguous page transfers.
	e := newEnv(t, 100, 2, 256, Config{Threshold: 1})
	m := e.m

	// Build Figure 5.c explicitly: root -> [child(1020), child(800)],
	// right child -> segments of 280, 430, 90 bytes.
	mkSeg := func(n int64, seed int) entry {
		segs, err := m.allocSegments(n)
		if err != nil || len(segs) != 1 {
			t.Fatalf("allocSegments(%d): %v (%d segs)", n, err, len(segs))
		}
		if err := m.writeSegment(segs[0].ptr, pattern(seed, int(n))); err != nil {
			t.Fatal(err)
		}
		return segs[0]
	}
	// The left child holds 1020 bytes (two segments to satisfy the
	// occupancy floor; it is never read in this example).
	leftChild := &node{level: 1, entries: []entry{mkSeg(520, 9), mkSeg(500, 10)}}
	rightChild := &node{level: 1, entries: []entry{mkSeg(280, 11), mkSeg(430, 12), mkSeg(90, 13)}}
	lp, err := m.writeNode(0, leftChild)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := m.writeNode(0, rightChild)
	if err != nil {
		t.Fatal(err)
	}
	o := m.NewObject(1)
	o.root = &node{level: 2, entries: []entry{
		{bytes: 1020, ptr: lp}, {bytes: 800, ptr: rp},
	}}
	o.size = 1820
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}

	// Cold caches, fresh counters.
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.pool.DiscardAll()
	e.vol.ResetStats()
	if _, err := o.Read(1470, 320); err != nil {
		t.Fatal(err)
	}
	s := e.vol.Stats()
	if s.Seeks != 3 {
		t.Errorf("Figure 5.c read: %d seeks, want 3", s.Seeks)
	}
	if s.PagesRead != 6 {
		t.Errorf("Figure 5.c read: %d page transfers, want 6 (1 index + 4 + 1)", s.PagesRead)
	}

	// Figure 5.a equivalent: single segment.
	o2 := m.NewObject(0)
	if err := o2.AppendWithHint(pattern(14, 1820), 1820); err != nil {
		t.Fatal(err)
	}
	e.vol.ResetStats()
	if _, err := o2.Read(1470, 320); err != nil {
		t.Fatal(err)
	}
	s = e.vol.Stats()
	if s.Seeks != 1 {
		t.Errorf("Figure 5.a read: %d seeks, want 1", s.Seeks)
	}
	if s.PagesRead != 4 {
		t.Errorf("Figure 5.a read: %d page transfers, want 4", s.PagesRead)
	}
}

func TestReadBounds(t *testing.T) {
	e := newEnv(t, 100, 2, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	if err := o.Append(pattern(3, 500)); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ off, n int64 }{
		{-1, 10}, {0, 501}, {500, 1}, {200, -1}, {501, 0},
	}
	for _, c := range cases {
		if _, err := o.Read(c.off, c.n); !errors.Is(err, ErrOutOfBounds) {
			t.Errorf("Read(%d,%d): err = %v, want ErrOutOfBounds", c.off, c.n, err)
		}
	}
	// Zero-length read at the boundary is fine.
	if _, err := o.Read(500, 0); err != nil {
		t.Errorf("Read(500,0): %v", err)
	}
}

func TestReplaceInPlace(t *testing.T) {
	e := newEnv(t, 100, 2, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	model := pattern(4, 1337)
	if err := o.Append(model); err != nil {
		t.Fatal(err)
	}
	u1, _ := o.Usage()

	for _, c := range []struct {
		off int64
		n   int
	}{
		{0, 1}, {0, 100}, {50, 200}, {99, 2}, {1300, 37}, {700, 637}, {0, 1337},
	} {
		repl := pattern(int(c.off)+77, c.n)
		if err := o.Replace(c.off, repl); err != nil {
			t.Fatalf("Replace(%d,%d): %v", c.off, c.n, err)
		}
		copy(model[c.off:], repl)
		mustContent(t, o, model)
	}
	// Replace never grows or moves the object.
	u2, _ := o.Usage()
	if u1 != u2 {
		t.Errorf("usage changed across replaces: %+v -> %+v", u1, u2)
	}
	if err := o.Replace(1330, pattern(0, 8)); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("overlong replace: err = %v", err)
	}
}

// TestReplacePlan: a plan reads each touched page run exactly once and
// yields the pre-image and its physical extents; nothing is written
// until Apply, which reads nothing and leaves what Replace would have.
// ApplyShared leaves the same bytes but keeps what a neighbour wrote
// around the range in the boundary pages since the plan was prepared.
func TestReplacePlan(t *testing.T) {
	for _, shared := range []bool{false, true} {
		e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
		o := e.m.NewObject(0)
		model := pattern(4, 1337)
		a := o.OpenAppender(0) // size unknown: segments of 1, 2, 4 and 7 pages
		if _, err := a.Write(model); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := o.Segments()
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) < 2 {
			t.Fatalf("object has %d segments, want several", len(segs))
		}
		for _, c := range []struct {
			off int64
			n   int
		}{
			{0, 1}, {50, 200}, {99, 2}, {550, 100}, {0, 1337},
		} {
			// One request per segment the range overlaps.
			pieces := int64(0)
			for _, sg := range segs {
				if sg.LogicalOff < c.off+int64(c.n) && c.off < sg.LogicalOff+sg.Bytes {
					pieces++
				}
			}
			repl := pattern(int(c.off)+77, c.n)
			before := e.vol.Stats()
			plan, err := o.PrepareReplace(c.off, repl, nil)
			if err != nil {
				t.Fatalf("PrepareReplace(%d,%d): %v", c.off, c.n, err)
			}
			mid := e.vol.Stats()
			if got := mid.Reads - before.Reads; got != pieces || mid.Writes != before.Writes {
				t.Errorf("PrepareReplace(%d,%d): %d reads, %d writes; want %d, 0",
					c.off, c.n, got, mid.Writes-before.Writes, pieces)
			}
			if !bytes.Equal(plan.Old(), model[c.off:c.off+int64(c.n)]) {
				t.Errorf("PrepareReplace(%d,%d): wrong pre-image", c.off, c.n)
			}
			// The extents locate the pre-image on the volume, in order.
			var at []byte
			for _, x := range plan.Extents() {
				page, err := e.vol.Read(x.Page, 1)
				if err != nil {
					t.Fatal(err)
				}
				at = append(at, page[x.Off:x.Off+x.Len]...)
			}
			if !bytes.Equal(at, plan.Old()) {
				t.Errorf("PrepareReplace(%d,%d): extents do not hold the pre-image", c.off, c.n)
			}
			mustContent(t, o, model)
			if plan.Applied() {
				t.Error("plan applied before Apply")
			}

			before = e.vol.Stats()
			if shared {
				// A neighbour rewrites the byte just past the range.
				if end := c.off + int64(c.n); end < int64(len(model)) {
					model[end] ^= 0xff
					if err := o.Replace(end, model[end:end+1]); err != nil {
						t.Fatal(err)
					}
				}
				err = plan.ApplyShared()
			} else {
				err = plan.Apply()
				if after := e.vol.Stats(); after.Reads != before.Reads || after.Writes-before.Writes != pieces {
					t.Errorf("Apply(%d,%d): %d reads, %d writes; want 0, %d",
						c.off, c.n, after.Reads-before.Reads, after.Writes-before.Writes, pieces)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			copy(model[c.off:], repl)
			mustContent(t, o, model)
			if !plan.Applied() {
				t.Error("plan not marked applied")
			}
		}
		if _, err := o.PrepareReplace(1330, pattern(0, 8), nil); !errors.Is(err, ErrOutOfBounds) {
			t.Errorf("overlong plan: err = %v", err)
		}
		mustCheck(t, o)
	}
}

func TestReplaceTouchesNoIndexPages(t *testing.T) {
	// §4.5: replace "modifies the leaf pages without affecting the
	// internal nodes of the tree".
	e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	if err := o.Append(pattern(5, 5000)); err != nil {
		t.Fatal(err)
	}
	rootBefore := fmt.Sprint(o.root.entries)
	if err := o.Replace(2345, pattern(6, 789)); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(o.root.entries) != rootBefore {
		t.Error("replace altered the root")
	}
	mustCheck(t, o)
}

func TestInsertMiddleSmall(t *testing.T) {
	e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	model := pattern(7, 1900)
	if err := o.AppendWithHint(model, 1900); err != nil {
		t.Fatal(err)
	}
	ins := pattern(8, 40)
	if err := o.Insert(955, ins); err != nil {
		t.Fatal(err)
	}
	model = append(model[:955:955], append(append([]byte{}, ins...), model[955:]...)...)
	mustContent(t, o, model)
	mustCheck(t, o)

	// The split produced (up to) three segments: L, N, R.
	u, _ := o.Usage()
	if u.SegmentCount < 2 || u.SegmentCount > 3 {
		t.Errorf("segments after insert = %d, want 2..3", u.SegmentCount)
	}
}

func TestInsertCostIndependentOfObjectSize(t *testing.T) {
	// §1 objective 3: piece-wise operation cost depends on the bytes
	// involved, not the object size.  A small middle insert must not
	// read or write more than a handful of pages regardless of size.
	for _, objPages := range []int{10, 100, 1000} {
		e := newEnv(t, 512, 8, 1024, Config{Threshold: 1})
		o := e.m.NewObject(0)
		n := objPages * 512
		if err := o.AppendWithHint(pattern(9, n), int64(n)); err != nil {
			t.Fatal(err)
		}
		e.vol.ResetStats()
		if err := o.Insert(int64(n/2), pattern(10, 64)); err != nil {
			t.Fatal(err)
		}
		s := e.vol.Stats()
		if s.PagesMoved() > 12 {
			t.Errorf("object of %d pages: insert moved %d pages, want <= 12", objPages, s.PagesMoved())
		}
	}
}

func TestInsertAtStartAndEnd(t *testing.T) {
	e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	model := pattern(11, 730)
	if err := o.Append(model); err != nil {
		t.Fatal(err)
	}
	head := pattern(12, 55)
	if err := o.Insert(0, head); err != nil {
		t.Fatal(err)
	}
	model = append(append([]byte{}, head...), model...)
	mustContent(t, o, model)

	tail := pattern(13, 66)
	if err := o.Insert(int64(len(model)), tail); err != nil {
		t.Fatal(err)
	}
	model = append(model, tail...)
	mustContent(t, o, model)
	mustCheck(t, o)

	if err := o.Insert(int64(len(model))+1, []byte{1}); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("insert past end: err = %v", err)
	}
}

func TestInsertIntoEmptyObject(t *testing.T) {
	e := newEnv(t, 100, 2, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	data := pattern(14, 250)
	if err := o.Insert(0, data); err != nil {
		t.Fatal(err)
	}
	mustContent(t, o, data)
	mustCheck(t, o)
}

func TestInsertLargerThanMaxSegment(t *testing.T) {
	// PS=100 gives max segment 128 pages; inserting 300 pages of bytes
	// must split N across several segments.
	e := newEnv(t, 100, 8, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	model := pattern(15, 500)
	if err := o.Append(model); err != nil {
		t.Fatal(err)
	}
	big := pattern(16, 30000)
	if err := o.Insert(250, big); err != nil {
		t.Fatal(err)
	}
	model = append(model[:250:250], append(append([]byte{}, big...), model[250:]...)...)
	mustContent(t, o, model)
	mustCheck(t, o)
}

func TestDeleteMiddle(t *testing.T) {
	e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	model := pattern(17, 1900)
	if err := o.AppendWithHint(model, 1900); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(700, 441); err != nil {
		t.Fatal(err)
	}
	model = append(model[:700:700], model[700+441:]...)
	mustContent(t, o, model)
	mustCheck(t, o)
}

func TestDeleteCleanCutTouchesNoDataPages(t *testing.T) {
	// §4.3.2: "deletions where the last byte to be deleted happens to be
	// the last byte of a page ... can be completed without accessing any
	// segment".
	e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	model := pattern(18, 2000)
	if err := o.AppendWithHint(model, 2000); err != nil {
		t.Fatal(err)
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.vol.ResetStats()
	// Delete bytes [500,800): ends at byte 799, the last byte of page 7.
	if err := o.Delete(500, 300); err != nil {
		t.Fatal(err)
	}
	s := e.vol.Stats()
	if s.PagesRead != 0 {
		t.Errorf("clean-cut delete read %d pages, want 0", s.PagesRead)
	}
	model = append(model[:500:500], model[800:]...)
	mustContent(t, o, model)
	mustCheck(t, o)
}

func TestTruncateAndDestroyFreeEverything(t *testing.T) {
	e := newEnv(t, 100, 8, 256, Config{Threshold: 4})
	base := e.freePages(t)
	o := e.m.NewObject(0)
	model := pattern(19, 40000)
	if err := o.Append(model); err != nil {
		t.Fatal(err)
	}
	// Truncation reads no data pages.
	e.vol.ResetStats()
	if err := o.Truncate(20000); err != nil {
		t.Fatal(err)
	}
	if s := e.vol.Stats(); s.PagesRead > 3 { // index nodes only
		t.Errorf("truncate read %d pages, want only index nodes", s.PagesRead)
	}
	mustContent(t, o, model[:20000])
	mustCheck(t, o)

	if err := o.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if o.Size() != 0 {
		t.Errorf("size after truncate(0) = %d", o.Size())
	}
	if got := e.freePages(t); got != base {
		t.Errorf("free pages after truncate(0) = %d, want %d (no leaks)", got, base)
	}

	// Rebuild and destroy.
	if err := o.Append(pattern(20, 12345)); err != nil {
		t.Fatal(err)
	}
	if err := o.Destroy(); err != nil {
		t.Fatal(err)
	}
	if got := e.freePages(t); got != base {
		t.Errorf("free pages after destroy = %d, want %d (no leaks)", got, base)
	}
	if err := e.bm.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteWholeObjectViaRange(t *testing.T) {
	e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
	base := e.freePages(t)
	o := e.m.NewObject(0)
	if err := o.Append(pattern(21, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(0, 3000); err != nil {
		t.Fatal(err)
	}
	if o.Size() != 0 {
		t.Errorf("size = %d", o.Size())
	}
	if got := e.freePages(t); got != base {
		t.Errorf("free pages = %d, want %d", got, base)
	}
}

func TestThresholdKeepsSegmentsSafe(t *testing.T) {
	// §4.4: with threshold T, an update may not leave two adjacent
	// segments one of which is smaller than T when they fit in one.
	// After a small middle insert with T=8, no resulting boundary
	// segment may be unsafe unless it has no mergeable neighbour.
	const T = 8
	e := newEnv(t, 100, 8, 256, Config{Threshold: T})
	o := e.m.NewObject(0)
	model := pattern(22, 3000) // 30 pages
	if err := o.AppendWithHint(model, 3000); err != nil {
		t.Fatal(err)
	}
	ins := pattern(23, 25)
	if err := o.Insert(1501, ins); err != nil {
		t.Fatal(err)
	}
	model = append(model[:1501:1501], append(append([]byte{}, ins...), model[1501:]...)...)
	mustContent(t, o, model)
	mustCheck(t, o)

	pages, err := o.SegmentPageCounts()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pages {
		if p >= T {
			continue
		}
		// An unsafe segment is tolerable only if merging with either
		// neighbour would exceed the maximum segment size — impossible
		// here — or it has no neighbour... which cannot happen mid-list.
		if len(pages) > 1 {
			t.Errorf("segment %d has %d pages (< T=%d) after threshold insert: %v", i, p, T, pages)
		}
	}
}

func TestThresholdOneFragmentsFreely(t *testing.T) {
	// T=1 disables page reshuffling; repeated middle inserts fragment
	// the object into small segments (the failure mode §4.4 describes).
	e := newEnv(t, 100, 16, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	model := pattern(24, 4000)
	if err := o.AppendWithHint(model, 4000); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		off := int64(rng.Intn(int(o.Size())))
		ins := pattern(i, 10)
		if err := o.Insert(off, ins); err != nil {
			t.Fatal(err)
		}
		model = append(model[:off:off], append(append([]byte{}, ins...), model[off:]...)...)
	}
	mustContent(t, o, model)
	u, _ := o.Usage()
	if u.SegmentCount < 20 {
		t.Errorf("T=1 after 20 inserts: %d segments, expected heavy fragmentation", u.SegmentCount)
	}

	// The same workload under T=8 stays far less fragmented.
	e2 := newEnv(t, 100, 16, 256, Config{Threshold: 8})
	o2 := e2.m.NewObject(0)
	model2 := pattern(24, 4000)
	if err := o2.AppendWithHint(model2, 4000); err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		off := int64(rng.Intn(int(o2.Size())))
		if err := o2.Insert(off, pattern(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	u2, _ := o2.Usage()
	if u2.SegmentCount >= u.SegmentCount {
		t.Errorf("T=8 segments (%d) not fewer than T=1 segments (%d)", u2.SegmentCount, u.SegmentCount)
	}
}

func TestDescriptorRoundTrip(t *testing.T) {
	e := newEnv(t, 100, 4, 256, Config{Threshold: 4})
	o := e.m.NewObject(0)
	model := pattern(25, 2500)
	if err := o.Append(model); err != nil {
		t.Fatal(err)
	}
	o.SetLSN(42)
	desc := o.EncodeDescriptor()

	o2, err := e.m.OpenDescriptor(desc)
	if err != nil {
		t.Fatal(err)
	}
	mustContent(t, o2, model)
	mustCheck(t, o2)
	if o2.LSN() != 42 {
		t.Errorf("LSN = %d, want 42", o2.LSN())
	}
	if o2.Threshold() != 4 {
		t.Errorf("threshold = %d, want 4", o2.Threshold())
	}
	// Continue operating on the reopened object.
	if err := o2.Insert(1000, pattern(26, 99)); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, o2)

	if _, err := e.m.OpenDescriptor([]byte("garbage")); err == nil {
		t.Error("garbage descriptor accepted")
	}
}

func TestDeepTreeGrowsAndShrinks(t *testing.T) {
	// PS=100 gives fanout 5, so a few hundred segments force a 3+ level
	// tree; deleting everything must collapse it back.
	e := newEnv(t, 100, 32, 256, Config{Threshold: 1, MaxRootEntries: 4})
	base := e.freePages(t)
	o := e.m.NewObject(0)
	var model []byte
	// Many small appends with trims create many 1-page segments.
	for i := 0; i < 300; i++ {
		chunk := pattern(i, 90)
		if err := o.Append(chunk); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		model = append(model, chunk...)
		o.nextGrow = 1 // force 1-page segments to deepen the tree
	}
	mustContent(t, o, model)
	mustCheck(t, o)
	if o.root.level < 3 {
		t.Errorf("tree height = %d, want >= 3", o.root.level)
	}

	// Random deletions shrink it back down.
	rng := rand.New(rand.NewSource(9))
	for o.Size() > 0 {
		n := int64(1 + rng.Intn(2000))
		if n > o.Size() {
			n = o.Size()
		}
		off := int64(0)
		if o.Size() > n {
			off = int64(rng.Intn(int(o.Size() - n + 1)))
		}
		if err := o.Delete(off, n); err != nil {
			t.Fatalf("delete(%d,%d) size=%d: %v", off, n, o.Size(), err)
		}
		model = append(model[:off:off], model[off+n:]...)
		mustCheck(t, o)
	}
	if len(model) != 0 {
		t.Fatal("model bookkeeping broken")
	}
	if got := e.freePages(t); got != base {
		t.Errorf("free pages = %d, want %d after emptying", got, base)
	}
	if o.root.level != 1 {
		t.Errorf("root level = %d after emptying, want 1", o.root.level)
	}
}

// TestRandomOpsAgainstModel is the workhorse: random appends, inserts,
// deletes, replaces and reads cross-checked byte for byte against an
// in-memory model, under several page sizes, thresholds, and manager
// modes, verifying tree invariants and page conservation throughout.
func TestRandomOpsAgainstModel(t *testing.T) {
	configs := []struct {
		name     string
		pageSize int
		spaces   int
		capacity int
		cfg      Config
	}{
		{"ps100-t1", 100, 24, 256, Config{Threshold: 1}},
		{"ps100-t4", 100, 24, 256, Config{Threshold: 4}},
		{"ps100-t8-shadow", 100, 24, 256, Config{Threshold: 8, ShadowIndexPages: true}},
		{"ps256-t4-adaptive", 256, 8, 512, Config{Threshold: 4, AdaptiveThreshold: true}},
		{"ps512-t16", 512, 4, 1024, Config{Threshold: 16}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, tc.pageSize, tc.spaces, tc.capacity, tc.cfg)
			base := e.freePages(t)
			o := e.m.NewObject(0)
			var model []byte
			rng := rand.New(rand.NewSource(int64(tc.pageSize)))
			maxBytes := tc.spaces * tc.capacity * tc.pageSize / 4

			for op := 0; op < 400; op++ {
				kind := rng.Intn(10)
				switch {
				case kind < 3 && len(model) < maxBytes: // append
					n := 1 + rng.Intn(3*tc.pageSize)
					data := pattern(op, n)
					if err := o.Append(data); err != nil {
						t.Fatalf("op %d append(%d): %v", op, n, err)
					}
					model = append(model, data...)
				case kind < 6 && len(model) < maxBytes: // insert
					n := 1 + rng.Intn(2*tc.pageSize)
					off := int64(rng.Intn(len(model) + 1))
					data := pattern(op, n)
					if err := o.Insert(off, data); err != nil {
						t.Fatalf("op %d insert(%d,%d): %v", op, off, n, err)
					}
					model = append(model[:off:off], append(append([]byte{}, data...), model[off:]...)...)
				case kind < 8 && len(model) > 0: // delete
					n := int64(1 + rng.Intn(len(model)))
					off := int64(rng.Intn(len(model) - int(n) + 1))
					if err := o.Delete(off, n); err != nil {
						t.Fatalf("op %d delete(%d,%d) size=%d: %v", op, off, n, len(model), err)
					}
					model = append(model[:off:off], model[off+n:]...)
				case kind == 8 && len(model) > 0: // replace
					n := 1 + rng.Intn(min(len(model), 2*tc.pageSize))
					off := int64(rng.Intn(len(model) - n + 1))
					data := pattern(op, n)
					if err := o.Replace(off, data); err != nil {
						t.Fatalf("op %d replace(%d,%d): %v", op, off, n, err)
					}
					copy(model[off:], data)
				default: // read a random slice
					if len(model) == 0 {
						continue
					}
					n := 1 + rng.Intn(len(model))
					off := int64(rng.Intn(len(model) - n + 1))
					got, err := o.Read(off, int64(n))
					if err != nil {
						t.Fatalf("op %d read(%d,%d): %v", op, off, n, err)
					}
					if !bytes.Equal(got, model[off:off+int64(n)]) {
						t.Fatalf("op %d read(%d,%d): content mismatch", op, off, n)
					}
				}
				if o.Size() != int64(len(model)) {
					t.Fatalf("op %d: size %d != model %d", op, o.Size(), len(model))
				}
				if op%25 == 0 {
					mustCheck(t, o)
					mustContent(t, o, model)
				}
			}
			mustCheck(t, o)
			mustContent(t, o, model)

			if err := o.Destroy(); err != nil {
				t.Fatal(err)
			}
			if got := e.freePages(t); got != base {
				t.Errorf("free pages after destroy = %d, want %d (leak)", got, base)
			}
			if err := e.bm.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUtilizationFormula(t *testing.T) {
	// §4.4: for segments of size T the per-segment utilization averages
	// 1 - 1/2T.  Build objects whose segments are exactly T pages with
	// uniformly random final-page fill and verify the measured mean.
	for _, T := range []int{4, 16, 64} {
		want := 1 - 1/(2*float64(T))
		var sum float64
		const trials = 200
		rng := rand.New(rand.NewSource(int64(T)))
		ps := 100
		for i := 0; i < trials; i++ {
			fill := 1 + rng.Intn(ps) // bytes in last page
			segBytes := (T-1)*ps + fill
			sum += float64(segBytes) / float64(T*ps)
		}
		got := sum / trials
		if diff := got - want; diff > 0.02 || diff < -0.02 {
			t.Errorf("T=%d: mean utilization %.3f, want ~%.3f", T, got, want)
		}
	}
}

func TestCompactLeafNodeMergesUnsafeRuns(t *testing.T) {
	// [Bili91a]: a leaf parent about to split first scans itself and, for
	// any run of two or more adjacent segments with fewer than T pages,
	// allocates a single larger segment for the group.
	e := newEnv(t, 100, 8, 256, Config{Threshold: 4, AdaptiveThreshold: true})
	m := e.m

	// Build a leaf parent of five small segments (1 page each) around one
	// large (6-page) segment: runs [0,1] and [3,4] should each coalesce.
	var model []byte
	nd := &node{level: 1}
	mk := func(n int64, seed int) {
		segs, err := m.allocSegments(n)
		if err != nil || len(segs) != 1 {
			t.Fatalf("allocSegments(%d): %v", n, err)
		}
		data := pattern(seed, int(n))
		if err := m.writeSegment(segs[0].ptr, data); err != nil {
			t.Fatal(err)
		}
		model = append(model, data...)
		nd.entries = append(nd.entries, segs[0])
	}
	mk(80, 1)
	mk(90, 2)
	mk(600, 3)
	mk(70, 4)
	mk(100, 5)

	if err := m.compactLeafNode(nd, 4); err != nil {
		t.Fatal(err)
	}
	if len(nd.entries) != 3 {
		t.Fatalf("entries after compaction = %d, want 3", len(nd.entries))
	}
	if st := m.Stats(); st.LeafCompactions != 2 || st.SegmentsCompacted != 4 {
		t.Errorf("stats = %+v, want 2 compactions of 4 segments", st)
	}

	// Content must be preserved byte for byte.
	var got []byte
	var off int64
	for _, en := range nd.entries {
		buf := make([]byte, en.bytes)
		if _, err := m.readSegRange(en.ptr, 0, buf); err != nil {
			t.Fatal(err)
		}
		got = append(got, buf...)
		off += en.bytes
	}
	if !bytes.Equal(got, model) {
		t.Error("compaction corrupted content")
	}

	// Safe segments are untouched: the 600-byte segment survives as-is.
	if nd.entries[1].bytes != 600 {
		t.Errorf("middle entry = %d bytes, want 600", nd.entries[1].bytes)
	}
}

func TestAdaptiveThresholdScalesWithOccupancy(t *testing.T) {
	e := newEnv(t, 100, 8, 256, Config{Threshold: 2, AdaptiveThreshold: true})
	o := e.m.NewObject(0)
	fan := maxFanout(100)
	if got := o.effectiveThreshold(fan / 4); got != 2 {
		t.Errorf("low occupancy T = %d, want 2", got)
	}
	if got := o.effectiveThreshold(fan); got <= 2 {
		t.Errorf("full-parent T = %d, want > 2", got)
	}
	// Without the option the threshold is constant.
	e2 := newEnv(t, 100, 8, 256, Config{Threshold: 2})
	o2 := e2.m.NewObject(0)
	if got := o2.effectiveThreshold(fan); got != 2 {
		t.Errorf("static T = %d, want 2", got)
	}
}

func TestSequentialReadSeeksReflectSegments(t *testing.T) {
	// Good sequential access (§1 objective 3): a full scan of an object
	// held in k segments costs about k seeks.
	e := newEnv(t, 100, 8, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	data := pattern(31, 12800) // 128 pages
	if err := o.AppendWithHint(data, 12800); err != nil {
		t.Fatal(err)
	}
	u, _ := o.Usage()
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.vol.ResetStats()
	if _, err := o.Read(0, o.Size()); err != nil {
		t.Fatal(err)
	}
	s := e.vol.Stats()
	maxSeeks := int64(u.SegmentCount + u.IndexPages + 2)
	if s.Seeks > maxSeeks {
		t.Errorf("full scan: %d seeks for %d segments (+%d index), want <= %d",
			s.Seeks, u.SegmentCount, u.IndexPages, maxSeeks)
	}
}

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	n := &node{level: 3, entries: []entry{
		{bytes: 100, ptr: 7}, {bytes: 1, ptr: 9}, {bytes: 1 << 40, ptr: 12345},
	}}
	img := make([]byte, 256)
	if err := encodeNode(n, img); err != nil {
		t.Fatal(err)
	}
	got, err := decodeNode(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.level != 3 || len(got.entries) != 3 {
		t.Fatalf("decoded %+v", got)
	}
	for i := range n.entries {
		if got.entries[i] != n.entries[i] {
			t.Errorf("entry %d: %+v != %+v", i, got.entries[i], n.entries[i])
		}
	}

	// Corruption cases.
	if _, err := decodeNode(make([]byte, 256)); err == nil {
		t.Error("zero page decoded")
	}
	if _, err := decodeNode([]byte{1}); err == nil {
		t.Error("short page decoded")
	}
}

func TestChildIndex(t *testing.T) {
	n := &node{level: 2, entries: []entry{
		{bytes: 100, ptr: 1}, {bytes: 50, ptr: 2}, {bytes: 200, ptr: 3},
	}}
	cases := []struct {
		off       int64
		wantIdx   int
		wantStart int64
	}{
		{0, 0, 0}, {99, 0, 0}, {100, 1, 100}, {149, 1, 100},
		{150, 2, 150}, {349, 2, 150}, {350, 2, 150}, // off==size -> last
	}
	for _, c := range cases {
		i, s := n.childIndex(c.off)
		if i != c.wantIdx || s != c.wantStart {
			t.Errorf("childIndex(%d) = (%d,%d), want (%d,%d)", c.off, i, s, c.wantIdx, c.wantStart)
		}
	}
}

func TestPagesFor(t *testing.T) {
	cases := []struct {
		b    int64
		ps   int
		want int
	}{
		{0, 100, 0}, {1, 100, 1}, {100, 100, 1}, {101, 100, 2}, {1820, 100, 19},
	}
	for _, c := range cases {
		if got := pagesFor(c.b, c.ps); got != c.want {
			t.Errorf("pagesFor(%d,%d) = %d, want %d", c.b, c.ps, got, c.want)
		}
	}
}

// TestQuickDescriptorRoundTrip: arbitrary valid objects survive the
// descriptor codec.
func TestQuickDescriptorRoundTrip(t *testing.T) {
	e := newEnv(t, 100, 8, 256, Config{Threshold: 2})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := e.m.NewObject(1 + int(seed%7&3))
		total := 0
		for i := 0; i < 1+rng.Intn(5); i++ {
			n := 1 + rng.Intn(500)
			if err := o.Append(pattern(int(seed)+i, n)); err != nil {
				return false
			}
			total += n
		}
		desc := o.EncodeDescriptor()
		o2, err := e.m.OpenDescriptor(desc)
		if err != nil || o2.Size() != int64(total) || o2.Threshold() != o.Threshold() {
			return false
		}
		a, err1 := o.Read(0, o.Size())
		b, err2 := o2.Read(0, o2.Size())
		ok := err1 == nil && err2 == nil && bytes.Equal(a, b)
		o.Destroy()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestReshuffleStatsAccumulate: the reshuffling counters move when byte
// or page reshuffling fires.
func TestReshuffleStatsAccumulate(t *testing.T) {
	e := newEnv(t, 100, 8, 256, Config{Threshold: 8})
	o := e.m.NewObject(0)
	if err := o.AppendWithHint(pattern(1, 5000), 5000); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(2050, pattern(2, 30)); err != nil {
		t.Fatal(err)
	}
	st := e.m.Stats()
	if st.BytesReshuffled == 0 {
		t.Error("no bytes reshuffled recorded for a threshold insert")
	}
	if st.PagesReshuffled == 0 {
		t.Error("no pages reshuffled recorded for a threshold insert")
	}
}
