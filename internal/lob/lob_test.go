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
	if cfg.Pending == nil {
		// Plain appends write behind, as in a store, which bounds the set by
		// its log; here the bound is three times the pool's frames.
		cfg.Pending = NewPending(vol, 3*frames)
	}
	m, err := NewManager(vol, pool, releasing{bm, cfg.Pending}, cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return &env{vol: vol, pool: pool, bm: bm, m: m}
}

// releasing is the buddy system as the allocator of a manager with a
// write-behind set: it frees at once, so it drops the freed pages' images
// first, as the store does when the reclamation queue releases a run.
type releasing struct {
	*buddy.Manager
	pending *Pending
}

func (a releasing) Free(start disk.PageNum, n int) error {
	a.pending.Release(start, n)
	return a.Manager.Free(start, n)
}

// pendingIn returns the first pending page among [start, start+n) and how
// many pages of the range are pending.
func pendingIn(m *Manager, start disk.PageNum, n int) (disk.PageNum, int) {
	pages := m.cfg.Pending.load().between(start, n)
	if len(pages) == 0 {
		return 0, 0
	}
	return pages[0].page, len(pages)
}

// flush writes every pending page, as a checkpoint does.
func flush(t *Pending) error { return t.Write(t.Capture(0)) }

// tailRun returns the first pending page of o's open tail segment and how
// many of its pages are pending.
func tailRun(o *Object) (disk.PageNum, int) { return pendingIn(o.m, o.tailStart, o.tailAlloc) }

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
	// right child -> segments of 280, 430, 90 bytes.  A 100-byte node
	// holds 9 entries, so a non-root node holds at least 4: the left
	// child takes four segments, and the right child's first 280 bytes,
	// which the read does not reach, are two segments of 140.
	mkSeg := func(n int64, seed int) entry {
		segs, _, err := m.allocSegments(n, 0, false)
		if err != nil || len(segs) != 1 {
			t.Fatalf("allocSegments(%d): %v (%d segs)", n, err, len(segs))
		}
		if err := m.writeSegment(segs[0].ptr, pattern(seed, int(n))); err != nil {
			t.Fatal(err)
		}
		return segs[0]
	}
	if maxFanout(100) != 9 || minFanout(100) != 4 {
		t.Fatalf("100-byte node: fanout %d, floor %d, want 9 and 4", maxFanout(100), minFanout(100))
	}
	// The left child holds 1020 bytes; it is never read in this example.
	leftChild := &node{level: 1, entries: []entry{mkSeg(255, 9), mkSeg(255, 10), mkSeg(255, 15), mkSeg(255, 16)}}
	rightChild := &node{level: 1, entries: []entry{mkSeg(140, 11), mkSeg(140, 17), mkSeg(430, 12), mkSeg(90, 13)}}
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
	if err := flush(e.m.cfg.Pending); err != nil { // its pages wait for a checkpoint
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

// TestReplacePlan: a plan reads only the bytes the edge pages of each piece
// keep — one request for both edges of a piece when the pages between are
// few, none for a page-aligned piece — and yields the pre-image; nothing is
// written by Hold, which reads nothing and makes the manager's reads see the
// new bytes — but not another manager's over the same volume and
// write-behind set, the store's, until PendHeld hands the images to the set.
func TestReplacePlan(t *testing.T) {
	e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
	other, err := NewManager(e.vol, e.pool, e.m.alloc, e.m.cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	var pages []int
	for _, sg := range segs {
		pages = append(pages, sg.Pages)
	}
	if fmt.Sprint(pages) != "[1 2 4 7]" {
		t.Fatalf("segments of %v pages, want [1 2 4 7]", pages)
	}
	for _, c := range []struct {
		off   int64
		n     int
		reads int64
	}{
		{0, 1, 1},     // the first page's last 99 bytes
		{50, 200, 2},  // the first page's first 50 bytes, and the last 50 of the second segment's page 1
		{99, 2, 2},    // an edge in each of the first two segments
		{550, 100, 1}, // both edges of one piece, adjacent pages: one request
		{0, 1337, 1},  // three page-aligned pieces read nothing; the last page's slack
	} {
		repl := pattern(int(c.off)+77, c.n)
		before := e.vol.Stats()
		plan, err := o.PrepareReplace(c.off, repl, nil)
		if err != nil {
			t.Fatalf("PrepareReplace(%d,%d): %v", c.off, c.n, err)
		}
		mid := e.vol.Stats()
		if got := mid.Reads - before.Reads; got != c.reads || mid.Writes != before.Writes {
			t.Errorf("PrepareReplace(%d,%d): %d reads, %d writes; want %d, 0",
				c.off, c.n, got, mid.Writes-before.Writes, c.reads)
		}
		mustContent(t, o, model)
		committed := append([]byte{}, model...)

		before = e.vol.Stats()
		plan.Hold()
		if after := e.vol.Stats(); after.Reads != before.Reads || after.Writes != before.Writes {
			t.Errorf("Hold(%d,%d): %d reads, %d writes; want 0, 0",
				c.off, c.n, after.Reads-before.Reads, after.Writes-before.Writes)
		}
		copy(model[c.off:], repl)
		mustContent(t, o, model)
		seen, err := other.OpenDescriptor(o.EncodeDescriptor())
		if err != nil {
			t.Fatal(err)
		}
		mustContent(t, seen, committed)
		before = e.vol.Stats()
		if err := e.m.PendHeld(); err != nil {
			t.Fatal(err)
		}
		if after := e.vol.Stats(); after.Writes != before.Writes {
			t.Errorf("PendHeld(%d,%d): %d writes, want 0: the pages wait in the write-behind set", c.off, c.n, after.Writes-before.Writes)
		}
		mustContent(t, seen, model)
		mustContent(t, o, model)
		if err := flush(e.m.cfg.Pending); err != nil { // the next plan reads its pages from the device
			t.Fatal(err)
		}
	}
	if _, err := o.PrepareReplace(1330, pattern(0, 8), nil); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("overlong plan: err = %v", err)
	}
	mustCheck(t, o)
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

// freeRecorder is an allocator that notes the first page of every run it
// is asked to free.
type freeRecorder struct {
	Allocator
	freed []disk.PageNum
}

func (r *freeRecorder) Free(p disk.PageNum, n int) error {
	r.freed = append(r.freed, p)
	return r.Allocator.Free(p, n)
}

// TestDestroyFreesEachPageAfterItsSubtree: Destroy frees every segment from
// its parent's entry and every index page after the pages below it — the
// order of a post-order recursion over the decoded tree — and reads no
// data page.
func TestDestroyFreesEachPageAfterItsSubtree(t *testing.T) {
	e := newEnv(t, 512, 8, 1024, Config{Threshold: 1, MaxRootEntries: 2})
	o := e.m.NewObject(1)
	for i := 0; i < 120; i++ {
		if err := o.AppendWithHint(pattern(i, 512), 512); err != nil {
			t.Fatal(err)
		}
	}
	if o.root.level != 3 {
		t.Fatalf("tree of height %d, want 3", o.root.level)
	}
	var want []disk.PageNum
	var post func(en entry, level int)
	post = func(en entry, level int) {
		if level > 1 {
			nd, err := e.m.readNode(en.ptr)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range nd.entries {
				post(c, nd.level)
			}
		}
		want = append(want, en.ptr)
	}
	for _, en := range o.root.entries {
		post(en, o.root.level)
	}
	rec := &freeRecorder{Allocator: e.bm}
	o.Rebind(e.m.Derive(rec))
	e.vol.ResetStats()
	if err := o.Destroy(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rec.freed) != fmt.Sprint(want) {
		t.Errorf("Destroy freed runs at %v, want %v", rec.freed, want)
	}
	if s := e.vol.Stats(); s.PagesRead > 5 { // the index pages, at most
		t.Errorf("Destroy read %d pages, want only index pages", s.PagesRead)
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

// TestPublishedDescriptorIsFrozen captures a descriptor at a publish and
// encodes it only after the root changed in place: the bytes are the
// encoding of the published state, and so are those of an encoded capture.
func TestPublishedDescriptorIsFrozen(t *testing.T) {
	e := newEnv(t, 100, 4, 256, Config{Threshold: 2})
	o := e.m.NewObject(0)
	for k := 0; k < 8; k++ {
		if err := o.AppendWithHint(pattern(40+k, 300), 300); err != nil {
			t.Fatal(err)
		}
	}
	// A plain append leaves the tail open: the next one grows the root's
	// last entry in place.
	if err := o.Append(pattern(49, 50)); err != nil {
		t.Fatal(err)
	}
	want := o.EncodeDescriptor()
	published, captured := o.PublishDescriptor(), o.Capture()
	if err := o.Append(pattern(51, 30)); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(450, pattern(50, 700)); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(0, 120); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(o.EncodeDescriptor(), want) {
		t.Fatal("the edits left the descriptor as it was")
	}
	for name, d := range map[string]*Descriptor{"published": published, "captured": captured} {
		if d.Size() != len(want) {
			t.Errorf("%s: Size %d before encoding, want %d", name, d.Size(), len(want))
		}
		if got := d.Bytes(); !bytes.Equal(got, want) || !bytes.Equal(d.Bytes(), want) {
			t.Errorf("%s: the bytes are not the encoding of the state it captured", name)
		}
	}
	if d := EncodedDescriptor(want); d.Size() != len(want) || !bytes.Equal(d.Bytes(), want) {
		t.Error("an encoded descriptor does not keep its bytes")
	}
	// Reinstating either makes the object the state it captured again.
	for name, d := range map[string]*Descriptor{"published": published, "captured": captured} {
		if err := o.Reinstate(d); err != nil || !bytes.Equal(o.EncodeDescriptor(), want) {
			t.Errorf("%s: the reinstated object is not the state the descriptor captured (%v)", name, err)
		}
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
		{"ps256-t32", 256, 8, 512, Config{Threshold: 32}},
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
	// The last entry reaches both widths' limits: a cumulative count of
	// 2^48-1 and page 2^32-1.
	n := &node{level: 3, entries: []entry{
		{bytes: 100, ptr: 7}, {bytes: 1, ptr: 9}, {bytes: 1 << 40, ptr: 12345},
		{bytes: maxEntryCount - 101 - 1<<40, ptr: maxEntryPage},
	}}
	img := make([]byte, 256)
	if err := encodeNode(n, img); err != nil {
		t.Fatal(err)
	}
	got, err := decodeNode(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.level != 3 || len(got.entries) != len(n.entries) {
		t.Fatalf("decoded %+v", got)
	}
	if cum, p := GetEntry(img[nodeHeaderSize+3*EntrySize:]); cum != 1<<48-1 || p != 1<<32-1 {
		t.Errorf("last entry decodes as (%d, %d), want (2^48-1, 2^32-1)", cum, p)
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

// TestNodeViewRejectsWhatDecodeRejects: the in-place scan a look-only
// descent reads an index page with refuses exactly the pages decodeNode
// refuses, with the same ErrCorruptNode error, and reads the entries of the
// pages it accepts as decodeNode decodes them.
func TestNodeViewRejectsWhatDecodeRejects(t *testing.T) {
	const ps = 256
	const hdr = nodeHeaderSize
	valid := func() []byte {
		img := bytes.Repeat([]byte{0xA5}, ps) // a dirty frame
		n := &node{level: 2, entries: []entry{{bytes: 10, ptr: 3}, {bytes: 20, ptr: 4}, {bytes: 5, ptr: 9}}}
		if err := encodeNode(n, img); err != nil {
			t.Fatal(err)
		}
		return img
	}
	// encodeNode writes the same page over a dirty frame as over a zeroed one.
	clean := make([]byte, ps)
	if err := encodeNode(&node{level: 2, entries: []entry{{bytes: 10, ptr: 3}, {bytes: 20, ptr: 4}, {bytes: 5, ptr: 9}}}, clean); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(valid(), clean) {
		t.Fatal("encodeNode left bytes of a dirty frame behind")
	}
	put := func(b []byte, cum int64, p disk.PageNum) {
		if err := PutEntry(b, cum, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		corrupt func(img []byte) []byte
		ok      bool
	}{
		{"valid", func(b []byte) []byte { return b }, true},
		{"no entries", func(b []byte) []byte { b[4], b[5] = 0, 0; return b }, true},
		{"short page", func(b []byte) []byte { return b[:hdr-1] }, false},
		{"bad magic", func(b []byte) []byte { b[0] ^= 1; return b }, false},
		{"level 0", func(b []byte) []byte { b[2] = 0; return b }, false},
		{"count past the page", func(b []byte) []byte { b[4], b[5] = 0, (ps-hdr)/EntrySize+1; return b }, false},
		{"zero first count", func(b []byte) []byte { put(b[hdr:], 0, 3); return b }, false},
		{"equal counts", func(b []byte) []byte { put(b[hdr+EntrySize:], 10, 4); return b }, false},
		{"decreasing counts", func(b []byte) []byte { put(b[hdr+2*EntrySize:], 29, 9); return b }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			img := c.corrupt(valid())
			v, verr := viewNode(img)
			nd, derr := decodeNode(img)
			if !c.ok {
				if !errors.Is(verr, ErrCorruptNode) || !errors.Is(derr, ErrCorruptNode) || verr.Error() != derr.Error() {
					t.Fatalf("viewNode: %v; decodeNode: %v; want the same ErrCorruptNode", verr, derr)
				}
				return
			}
			if verr != nil || derr != nil {
				t.Fatalf("viewNode: %v; decodeNode: %v", verr, derr)
			}
			if v.level != nd.level || v.count() != len(nd.entries) {
				t.Fatalf("view of level %d with %d entries, decoded level %d with %d", v.level, v.count(), nd.level, len(nd.entries))
			}
			var before int64
			for i, want := range nd.entries {
				if got := v.entry(i, before); got != want {
					t.Fatalf("entry %d: view %+v, decoded %+v", i, got, want)
				}
				if j, k, start := v.cover(before, 1); j != i || k != i+1 || start != before {
					t.Fatalf("cover(%d, 1) = [%d, %d) at %d, want [%d, %d) at %d", before, j, k, start, i, i+1, before)
				}
				before += want.bytes
			}
		})
	}
}

// TestDescentsCheckTheNodesTheyRead: every look-only descent — a live
// read's walk, the search an update starts with, a snapshot's, and the
// whole-object walks of Usage, Check, ReachablePages, Segments and Destroy —
// meets a corrupt index page with ErrCorruptNode: one that fails the checks
// decodeNode applies, one a level off its parent's, and one that holds more
// bytes than its parent's entry says.
func TestDescentsCheckTheNodesTheyRead(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(img []byte)
	}{
		{"bad magic", func(img []byte) { img[0] ^= 1 }},
		{"wrong level", func(img []byte) { img[2]++ }},
		{"count past its parent's", func(img []byte) {
			v, err := viewNode(img)
			if err != nil {
				t.Fatal(err)
			}
			last := v.raw[len(v.raw)-EntrySize:]
			cum, p := GetEntry(last)
			if err := PutEntry(last, cum+1, p); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, 256, 8, 256, Config{Threshold: 1, MaxRootEntries: 2})
			o := e.m.NewObject(1)
			for i := 0; i < 12; i++ {
				if err := o.Append(bytes.Repeat([]byte{byte(i)}, 300)); err != nil {
					t.Fatal(err)
				}
				if err := o.Trim(); err != nil {
					t.Fatal(err)
				}
			}
			if o.root.level < 2 {
				t.Fatalf("tree of height %d, want an index page below the root", o.root.level)
			}
			o.Publish()
			v := o.Published()
			page := o.root.entries[0].ptr
			img, err := e.pool.Fix(page)
			if err != nil {
				t.Fatal(err)
			}
			c.corrupt(img)
			e.pool.Unpin(page)
			if _, err := o.Read(0, 10); !errors.Is(err, ErrCorruptNode) {
				t.Errorf("read: %v, want ErrCorruptNode", err)
			}
			if err := o.Insert(5, []byte("x")); !errors.Is(err, ErrCorruptNode) {
				t.Errorf("insert: %v, want ErrCorruptNode", err)
			}
			if err := v.ReadAt(make([]byte, 10), 0); !errors.Is(err, ErrCorruptNode) {
				t.Errorf("snapshot read: %v, want ErrCorruptNode", err)
			}
			if _, err := o.Usage(); !errors.Is(err, ErrCorruptNode) {
				t.Errorf("usage: %v, want ErrCorruptNode", err)
			}
			if err := o.Check(); !errors.Is(err, ErrCorruptNode) {
				t.Errorf("check: %v, want ErrCorruptNode", err)
			}
			if _, err := o.ReachablePages(); !errors.Is(err, ErrCorruptNode) {
				t.Errorf("reachable pages: %v, want ErrCorruptNode", err)
			}
			if _, err := o.Segments(); !errors.Is(err, ErrCorruptNode) {
				t.Errorf("segments: %v, want ErrCorruptNode", err)
			}
			if err := o.Destroy(); !errors.Is(err, ErrCorruptNode) {
				t.Errorf("destroy: %v, want ErrCorruptNode", err)
			}
		})
	}
}

// TestWholeWalkAllocatesOnce: a walk of a whole object allocates as much on
// a tree of height 3 as on one of height 2 — room for the entries of one
// page a level, once a walk — not a slice for every index page it reads.
// Every page below the root covers more entries than a walk keeps on its
// stack, so each level's entries sit in the room the walk allocated, and
// the object still reads back whole.
func TestWholeWalkAllocatesOnce(t *testing.T) {
	allocs := map[int]float64{}
	// One-page segments on 512 B pages: index pages of 25 to 50 entries,
	// under a root of at most 50 entries or of at most 2.
	for _, c := range []struct{ height, segments, rootEntries int }{{2, 1000, 0}, {3, 2000, 2}} {
		e := newEnv(t, 512, 8, 1024, Config{Threshold: 1, MaxRootEntries: c.rootEntries})
		o := e.m.NewObject(1)
		var model []byte
		for i := 0; i < c.segments; i++ {
			p := pattern(i, 512)
			if err := o.AppendWithHint(p, 512); err != nil {
				t.Fatal(err)
			}
			model = append(model, p...)
		}
		mustCheck(t, o)
		u, err := o.Usage()
		if err != nil {
			t.Fatal(err)
		}
		if u.TreeHeight != c.height || u.SegmentCount != c.segments {
			t.Fatalf("a tree of height %d over %d segments, want height %d over %d", u.TreeHeight, u.SegmentCount, c.height, c.segments)
		}
		segs := 0
		allocs[c.height] = testing.AllocsPerRun(20, func() {
			if err := o.walkAll(&walk{seg: func(entry, int64, int64) error { segs++; return nil }}); err != nil {
				t.Fatal(err)
			}
		})
		if segs != 21*c.segments {
			t.Fatalf("height %d: 21 walks met %d segments, want %d each", c.height, segs, c.segments)
		}
		mustContent(t, o, model)
		t.Logf("height %d: %d index pages, %.0f allocations a walk", c.height, u.IndexPages, allocs[c.height])
	}
	if allocs[2] != allocs[3] {
		t.Errorf("a whole walk allocates %.0f times on a tree of height 2 and %.0f on one of height 3", allocs[2], allocs[3])
	}
}

// TestEntryCodecRefusesWhatItCannotHold: a count of 2^48 or a page of 2^32
// is an error, not a truncated entry, from the codec and from the node and
// descriptor encoders above it.
func TestEntryCodecRefusesWhatItCannotHold(t *testing.T) {
	b := make([]byte, EntrySize)
	for _, c := range []struct {
		cum int64
		p   disk.PageNum
	}{{1 << 48, 1}, {1, 1 << 32}, {-1, 1}, {1, -1}} {
		if err := PutEntry(b, c.cum, c.p); !errors.Is(err, errEntryRange) {
			t.Errorf("PutEntry(%d, %d) = %v, want errEntryRange", c.cum, c.p, err)
		}
	}
	img := make([]byte, 512)
	for _, n := range []*node{
		{level: 1, entries: []entry{{bytes: 1 << 47, ptr: 1}, {bytes: 1 << 47, ptr: 2}}},
		{level: 1, entries: []entry{{bytes: 1, ptr: 1 << 32}}},
	} {
		if err := encodeNode(n, img); !errors.Is(err, errEntryRange) {
			t.Errorf("encodeNode(%+v) = %v, want errEntryRange", n.entries, err)
		}
	}
	e := newEnv(t, 512, 1, 16, Config{})
	o := e.m.NewObject(1)
	o.root = &node{level: 1, entries: []entry{{bytes: 1, ptr: 1 << 32}}}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("EncodeDescriptor of a root naming page 2^32 returned")
			}
		}()
		o.EncodeDescriptor()
	}()
}

// bigDevice reports a geometry larger than the volume behind it; NewManager
// reads nothing else of it.
type bigDevice struct {
	disk.Device
	pages    disk.PageNum
	pageSize int
}

func (d bigDevice) NumPages() disk.PageNum { return d.pages }
func (d bigDevice) PageSize() int          { return d.pageSize }

// TestNewManagerRefusesAVolumeEntriesCannotAddress: 2^32 pages and 2^48
// bytes are the most an entry names.
func TestNewManagerRefusesAVolumeEntriesCannotAddress(t *testing.T) {
	e := newEnv(t, 512, 1, 16, Config{})
	for _, c := range []struct {
		pages    disk.PageNum
		pageSize int
		ok       bool
	}{
		{1 << 32, 512, true},
		{1<<32 + 1, 512, false}, // a page number past 32 bits
		{1 << 32, 1 << 16, true},
		{1 << 31, 1 << 17, true},
		{1<<31 + 1, 1 << 17, false}, // a byte count past 48 bits
	} {
		_, err := NewManager(bigDevice{e.vol, c.pages, c.pageSize}, e.pool, e.bm, Config{Threshold: 1})
		if c.ok && err != nil || !c.ok && !errors.Is(err, ErrBadConfig) {
			t.Errorf("NewManager over %d pages of %d bytes: %v, want ok=%v", c.pages, c.pageSize, err, c.ok)
		}
	}
}

// TestIndexDensity pins what ten-byte entries buy: the node capacity at
// 4 KB and 512-byte pages, and the index pages of a fixed sequence of
// appends: 500 one-page segments, which the rightmost node's splits leave
// in 19 half-full leaf nodes (with 16-byte entries a 512-byte node holds
// 31, and the same sequence needs 31 pages).
func TestIndexDensity(t *testing.T) {
	if maxFanout(4096) != 409 || maxFanout(512) != 50 {
		t.Fatalf("maxFanout: %d at 4 KB, %d at 512 B, want 409 and 50", maxFanout(4096), maxFanout(512))
	}
	e := newEnv(t, 512, 4, 256, Config{Threshold: 1})
	o := e.m.NewObject(1)
	for i := 0; i < 500; i++ {
		if err := o.AppendWithHint(pattern(i, 512), 512); err != nil {
			t.Fatal(err)
		}
	}
	mustCheck(t, o)
	u, err := o.Usage()
	if err != nil {
		t.Fatal(err)
	}
	if u.SegmentCount != 500 || u.IndexPages != 19 || u.TreeHeight != 2 {
		t.Errorf("500 appends: %d segments, %d index pages, height %d, want 500, 19 and 2", u.SegmentCount, u.IndexPages, u.TreeHeight)
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
		// A descriptor names pages: the pending run goes to them first, as
		// a checkpoint's does before its image.
		if err := flush(e.m.cfg.Pending); err != nil {
			return false
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
