package lob

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// The executable floor table.  For each of the paper's operations and a
// table of geometries, floorRequests derives — from the object's segment
// layout, the request, and T alone — the device requests the paper's
// algorithm cannot do without (§4.2 search, §4.3.1 insert, §4.3.2 delete,
// §4.4 reshuffling, §4.5 in-place replace), under the one request-shaping
// rule of DESIGN.md §5: two page runs of one segment are fetched together
// when at most CostModel.BridgePages pages lie between them.  TestOpFloor
// then drives the operation on a simulated volume and requires the traced
// requests to BE that list: same order, same pages, and the same request,
// page and seek counts as the literal the row carries.  A change that
// adds a request fails here, not only in the benchmark.

// ioCount is what one operation asks of the data volume.
type ioCount struct {
	reads, pagesRead, writes, pagesWritten, seeks int64
}

func (c ioCount) String() string {
	return fmt.Sprintf("%d reads/%d pages, %d writes/%d pages, %d seeks",
		c.reads, c.pagesRead, c.writes, c.pagesWritten, c.seeks)
}

// floorReq is one device request the floor allows.  start is -1 for the
// write of a freshly allocated segment, whose address is the allocator's
// business; such a write always repositions.
type floorReq struct {
	write bool
	start disk.PageNum
	pages int
}

func countRequests(reqs []floorReq) ioCount {
	var c ioCount
	head := disk.PageNum(-1)
	for _, r := range reqs {
		if r.write {
			c.writes++
			c.pagesWritten += int64(r.pages)
		} else {
			c.reads++
			c.pagesRead += int64(r.pages)
		}
		if r.start < 0 || r.start != head {
			c.seeks++
		}
		head = r.start + disk.PageNum(r.pages)
		if r.start < 0 {
			head = -1
		}
	}
	return c
}

// matchFloor checks the traced requests against the floor's, in order:
// reads at the floor's addresses (so no read ever leaves its segment) and
// of its sizes, in-place writes likewise, and a new segment's pages
// written once each.  A new segment is one write unless the allocator had
// no single run for it (§3.2's graceful degradation) and handed out
// several; split counts those extra writes.
func matchFloor(traced []disk.TraceEvent, floor []floorReq) (split int, err error) {
	k := 0
	for _, f := range floor {
		for pages := 0; pages < f.pages; k++ {
			if k == len(traced) {
				return 0, fmt.Errorf("traced %v stops short of floor %v", traced, floor)
			}
			ev := traced[k]
			if ev.Write != f.write || (f.start >= 0 && (ev.Start != f.start || ev.Pages != f.pages)) || pages+ev.Pages > f.pages {
				return 0, fmt.Errorf("request %d is %+v, floor %+v", k, ev, f)
			}
			if pages > 0 {
				split++
			}
			pages += ev.Pages
		}
	}
	if k != len(traced) {
		return 0, fmt.Errorf("traced %v goes on past floor %v", traced, floor)
	}
	return split, nil
}

// floorGeom is what the floor may look at: the layout, the page size, T
// and the largest segment.
type floorGeom struct {
	segs   []SegmentInfo
	ps     int64
	t      int
	maxSeg int64 // bytes
	bridge int
	// read-replace only: the byte range read before the replace.
	keepOff, keepN int64
	// append only: the pages the last segment is allocated while a plain
	// Append has left it open (0 once trimmed), and whether the object
	// remembers the bytes of its partial last page.
	tailPages int
	tailImage bool
}

// withTail adds what an append's floor depends on beyond the layout.
func (g floorGeom) withTail(o *Object) floorGeom {
	g.tailPages, g.tailImage = o.tailAlloc, len(o.tailImg) > 0
	return g
}

func newFloorGeom(e *env, segs []SegmentInfo, t int) floorGeom {
	ps := int64(e.vol.PageSize())
	return floorGeom{
		segs: segs, ps: ps, t: t,
		maxSeg: int64(e.bm.MaxSegmentPages()) * ps,
		bridge: disk.DefaultCostModel().BridgePages(),
	}
}

// pageRun is pages [lo, hi] of one segment.
type pageRun struct {
	seg    int
	lo, hi int64
}

// runs maps the logical byte range [off, off+n) to page runs, one per
// segment it touches.
func (g floorGeom) runs(off, n int64) []pageRun {
	var out []pageRun
	for i, s := range g.segs {
		lo, hi := max(off, s.LogicalOff), min(off+n, s.LogicalOff+s.Bytes)
		if lo < hi {
			out = append(out, pageRun{i, (lo - s.LogicalOff) / g.ps, (hi - 1 - s.LogicalOff) / g.ps})
		}
	}
	return out
}

// reads turns the page runs an operation needs into read requests: runs of
// one segment with at most bridge pages between them become one request.
func (g floorGeom) reads(runs []pageRun) []floorReq {
	var merged []pageRun
	for _, r := range runs {
		if k := len(merged) - 1; k >= 0 && merged[k].seg == r.seg && r.lo-merged[k].hi-1 <= int64(g.bridge) {
			merged[k].hi = max(merged[k].hi, r.hi)
			continue
		}
		merged = append(merged, r)
	}
	var out []floorReq
	for _, r := range merged {
		out = append(out, floorReq{start: g.segs[r.seg].StartPage + disk.PageNum(r.lo), pages: int(r.hi - r.lo + 1)})
	}
	return out
}

// segAt returns the index of the segment holding byte off (the last one
// for off = size).
func (g floorGeom) segAt(off int64) int {
	for i, s := range g.segs {
		if off < s.LogicalOff+s.Bytes {
			return i
		}
	}
	return len(g.segs) - 1
}

// pageBytes is the number of bytes segment s keeps in its page p.
func (g floorGeom) pageBytes(s SegmentInfo, p int64) int64 {
	return min(g.ps, s.Bytes-p*g.ps)
}

// newSegment is the one write that creates a segment of n bytes.
func (g floorGeom) newSegment(n int64) floorReq {
	return floorReq{write: true, start: -1, pages: pagesFor(n, int(g.ps))}
}

// floorRequests is the table's formula column.
func (g floorGeom) floorRequests(op string, off, n int64) []floorReq {
	switch op {
	case "read":
		// §4.2: one multi-page request per segment touched.
		return g.reads(g.runs(off, n))

	case "append", "append-plain":
		// §4.1.  On a trimmed tail the bytes go to a segment of their own,
		// written once, nothing read.  The room of a tail a plain Append left
		// open is filled first, in place, by one write from its partial page
		// on — that page's old bytes come from the image the last append
		// left, or are read back.
		var out []floorReq
		if last := g.segs[len(g.segs)-1]; g.tailPages > 0 {
			if w := min(int64(g.tailPages)*g.ps-last.Bytes, n); w > 0 {
				lo, hi := last.Bytes/g.ps, (last.Bytes+w-1)/g.ps
				at := last.StartPage + disk.PageNum(lo)
				if last.Bytes%g.ps != 0 && !g.tailImage {
					out = append(out, floorReq{start: at, pages: 1})
				}
				out = append(out, floorReq{write: true, start: at, pages: int(hi - lo + 1)})
				n -= w
			}
		}
		if n > 0 {
			out = append(out, g.newSegment(n))
		}
		return out

	case "replace":
		// §4.5: per segment piece, the bytes the piece's first and last
		// page keep are read, then the piece's page run is written in place.
		var out []floorReq
		for _, r := range g.runs(off, n) {
			s := g.segs[r.seg]
			lo, hi := max(off, s.LogicalOff), min(off+n, s.LogicalOff+s.Bytes)
			var need []pageRun
			if (lo-s.LogicalOff)%g.ps != 0 {
				need = append(need, pageRun{r.seg, r.lo, r.lo})
			}
			if (hi-s.LogicalOff)%g.ps != 0 {
				need = append(need, pageRun{r.seg, r.hi, r.hi})
			}
			out = append(out, g.reads(need)...)
			out = append(out, floorReq{write: true, start: s.StartPage + disk.PageNum(r.lo), pages: int(r.hi - r.lo + 1)})
		}
		return out

	case "replace-shared":
		// Byte-range locking (§4.5): PrepareReplace reads each piece's page
		// run whole for the pre-image; ApplyShared then is a replace.
		return append(g.floorRequests("read", off, n), g.floorRequests("replace", off, n)...)

	case "read-replace":
		// A transaction's read-modify-write: the read of [keepOff,
		// keepOff+keepN) is §4.2's; the replace that follows needs the whole
		// page run of each of its pieces for the pre-image, and reads only
		// those the read did not already transfer whole; Apply then writes
		// each run in place without reading.
		kept := g.runs(g.keepOff, g.keepN)
		out := g.reads(kept)
		pieces := g.runs(off, n)
		for _, r := range pieces {
			covered := false
			for _, k := range kept {
				covered = covered || (k.seg == r.seg && k.lo <= r.lo && r.hi <= k.hi)
			}
			if !covered {
				out = append(out, g.reads([]pageRun{r})...)
			}
		}
		for _, r := range pieces {
			out = append(out, floorReq{write: true, start: g.segs[r.seg].StartPage + disk.PageNum(r.lo), pages: int(r.hi - r.lo + 1)})
		}
		return out

	case "insert":
		// §4.3.1: S splits at page P into L | N | R; N takes the new bytes
		// and P's suffix, reshuffling adds L's tail and R's head.  Those
		// old bytes are contiguous in S: one read.  N is written once.
		s := g.segs[g.segAt(off)]
		rel := off - s.LogicalOff
		p := min(rel/g.ps, int64(s.Pages)-1)
		suffix := g.pageBytes(s, p) - (rel - p*g.ps)
		rc := max(0, s.Bytes-(p+1)*g.ps)
		res := reshuffle(rel, n+suffix, rc, g.t, int(g.ps), g.maxSeg)
		out := g.reads(g.runs(off-res.moveL, res.moveL+suffix+res.moveR))
		return append(out, g.newSegment(res.nc))

	case "delete":
		// §4.3.2: whole segments inside the range go to the free space
		// unread.  Of S' (holding the last deleted byte, in its page Q)
		// N takes Q's suffix, then reshuffling adds L's tail (in S) and
		// R's head.  A cut that leaves Q no suffix reads and writes nothing.
		sl, sr := g.segs[g.segAt(off)], g.segs[g.segAt(off+n-1)]
		lc := off - sl.LogicalOff
		relR := off + n - sr.LogicalOff
		q := (relR - 1) / g.ps
		suffix := g.pageBytes(sr, q) - (relR - q*g.ps)
		if suffix == 0 {
			return nil
		}
		rc := max(0, sr.Bytes-(q+1)*g.ps)
		res := reshuffle(lc, suffix, rc, g.t, int(g.ps), g.maxSeg)
		need := append(g.runs(off-res.moveL, res.moveL), g.runs(off+n, suffix+res.moveR)...)
		return append(g.reads(need), g.newSegment(res.nc))
	}
	panic("floor: unknown op " + op)
}

// runTraced performs op on o and on model, and returns the model and what
// the data volume saw: the requests in order and their counts.
func runTraced(t *testing.T, e *env, o *Object, model []byte, op string, off int64, data []byte, keep [2]int64) ([]byte, []disk.TraceEvent, disk.Stats) {
	t.Helper()
	n := int64(len(data))
	var traced []disk.TraceEvent
	e.vol.ResetStats()
	e.vol.SetTracer(func(ev disk.TraceEvent) { traced = append(traced, ev) })
	var err error
	switch op {
	case "read":
		var got []byte
		if got, err = o.Read(off, n); err == nil && !bytes.Equal(got, model[off:off+n]) {
			t.Errorf("read(%d,%d) returned the wrong bytes", off, n)
		}
	case "append":
		err = o.AppendWithHint(data, n)
		model = append(model, data...)
	case "append-plain":
		err = o.Append(data)
		model = append(model, data...)
	case "replace":
		err = o.Replace(off, data)
		copy(model[off:], data)
	case "replace-shared":
		var plan *ReplacePlan
		if plan, err = o.PrepareReplace(off, data, nil); err == nil {
			err = plan.ApplyShared()
		}
		copy(model[off:], data)
	case "read-replace":
		var kept PageImages
		var got []byte
		if got, err = o.ReadKeeping(keep[0], keep[1], &kept); err == nil && !bytes.Equal(got, model[keep[0]:keep[0]+keep[1]]) {
			t.Errorf("read(%d,%d) returned the wrong bytes", keep[0], keep[1])
		}
		var plan *ReplacePlan
		if err == nil {
			plan, err = o.PrepareReplace(off, data, &kept)
		}
		if err == nil {
			if !bytes.Equal(plan.Old(), model[off:off+n]) {
				t.Errorf("replace(%d,%d) after read(%d,%d): wrong pre-image", off, n, keep[0], keep[1])
			}
			err = plan.Apply()
		}
		copy(model[off:], data)
	case "insert":
		err = o.Insert(off, data)
		model = append(model[:off:off], append(data[:n:n], model[off:]...)...)
	case "delete":
		err = o.Delete(off, n)
		model = append(model[:off:off], model[off+n:]...)
	}
	e.vol.SetTracer(nil)
	if err != nil {
		t.Fatalf("%s(%d,%d): %v", op, off, n, err)
	}
	return model, traced, e.vol.Stats()
}

type floorRow struct {
	name   string
	segs   []int64 // layout: bytes per segment, each laid down by one sized append
	t      int     // segment size threshold T, pages
	op     string  // read, append, append-plain, replace, replace-shared, read-replace, insert, delete
	off, n int64
	want   ioCount
}

// tailRow is a floor row whose layout ends with a plain Append of open
// bytes, which leaves the tail segment open to T pages, and then — when cut
// is not 0 — a truncate to cut bytes, the tail edit that closes it again.
type tailRow struct {
	floorRow
	open, cut int64
}

// §4.1, a stream of Append calls on one object.
var tailTable = []tailRow{
	{floorRow{"append into reserved tail", []int64{800}, 4, "append-plain", 0, 150, ioCount{0, 0, 1, 2, 1}}, 130, 0},
	{floorRow{"append into reserved tail, within the partial page", []int64{800}, 4, "append-plain", 0, 50, ioCount{0, 0, 1, 1, 1}}, 130, 0},
	{floorRow{"append crossing out of a full reservation", []int64{800}, 4, "append-plain", 0, 350, ioCount{0, 0, 2, 4, 2}}, 130, 0},
	{floorRow{"hinted append into a reserved tail: the same fill", []int64{800}, 4, "append", 0, 150, ioCount{0, 0, 1, 2, 1}}, 130, 0},
	{floorRow{"first append after a tail edit", []int64{800}, 4, "append-plain", 0, 150, ioCount{0, 0, 1, 2, 1}}, 130, 850},
}

// The page size is 100 bytes, so byte offsets read as page.byte; the
// bridge is disk.DefaultCostModel().BridgePages() = 14 pages.
var floorTable = []floorRow{
	// §4.2 search: one request per segment touched.
	{"read inside one segment", []int64{6400}, 1, "read", 250, 900, ioCount{1, 10, 0, 0, 1}},
	{"read one byte", []int64{6400}, 1, "read", 6399, 1, ioCount{1, 1, 0, 0, 1}},
	{"read across three segments, the first two physically consecutive", []int64{800, 330, 800}, 1, "read", 750, 500, ioCount{3, 7, 0, 0, 2}},

	// §4.1 append of a known size on a trimmed tail.
	{"append 250 bytes", []int64{800}, 1, "append", 0, 250, ioCount{0, 0, 1, 3, 1}},

	// §4.5 replace: boundary pages read, run written in place.
	{"replace page-aligned, 2 pages", []int64{6400}, 1, "replace", 300, 200, ioCount{0, 0, 1, 2, 1}},
	{"replace inside one page", []int64{6400}, 1, "replace", 310, 20, ioCount{1, 1, 1, 1, 2}},
	{"replace head-partial only", []int64{6400}, 1, "replace", 350, 150, ioCount{1, 1, 1, 2, 2}},
	{"replace 2 pages", []int64{6400}, 1, "replace", 350, 100, ioCount{1, 2, 1, 2, 2}},
	{"replace 5 pages: interior bridged", []int64{6400}, 1, "replace", 350, 400, ioCount{1, 5, 1, 5, 2}},
	{"replace 16 pages: interior = bridge", []int64{6400}, 1, "replace", 350, 1500, ioCount{1, 16, 1, 16, 2}},
	{"replace 17 pages: interior = bridge + 1", []int64{6400}, 1, "replace", 350, 1600, ioCount{2, 2, 1, 17, 3}},
	{"replace 40 pages", []int64{6400}, 1, "replace", 350, 3900, ioCount{2, 2, 1, 40, 3}},
	{"replace crossing two segments", []int64{800, 330, 800}, 1, "replace", 750, 200, ioCount{2, 2, 2, 3, 4}},
	{"range-locked replace, 5 pages", []int64{6400}, 1, "replace-shared", 350, 400, ioCount{2, 10, 1, 5, 3}},

	// §4.3.1 insert: one read of S, one write of N.
	{"insert mid-page, T=1", []int64{6400}, 1, "insert", 3250, 120, ioCount{1, 1, 1, 2, 2}},
	{"insert mid-page, T=4: N pulled up to T pages", []int64{6400}, 4, "insert", 3250, 120, ioCount{1, 3, 1, 4, 2}},
	{"insert at a page boundary", []int64{6400}, 1, "insert", 3200, 100, ioCount{1, 1, 1, 2, 2}},
	{"insert at the end of a full last page", []int64{800}, 1, "insert", 800, 100, ioCount{0, 0, 1, 1, 1}},
	{"insert into a small segment, T=8: S rewritten whole", []int64{500, 6400}, 8, "insert", 250, 100, ioCount{1, 5, 1, 6, 2}},

	// §4.3.2 delete: the rule's edges.
	{"delete whole segments", []int64{800, 330, 800}, 1, "delete", 800, 330, ioCount{}},
	{"delete to a page boundary", []int64{6400}, 1, "delete", 300, 500, ioCount{}},
	{"delete inside one page: that page read once", []int64{6400}, 1, "delete", 310, 20, ioCount{1, 1, 1, 1, 2}},
	{"delete across adjacent pages", []int64{6400}, 1, "delete", 330, 100, ioCount{1, 2, 1, 1, 2}},
	{"delete, gap = bridge", []int64{6400}, 1, "delete", 330, 1500, ioCount{1, 16, 1, 1, 2}},
	{"delete, gap = bridge + 1", []int64{6400}, 1, "delete", 330, 1600, ioCount{2, 2, 1, 1, 3}},
	{"delete, nothing kept of L's last page", []int64{6400}, 1, "delete", 300, 160, ioCount{1, 1, 1, 1, 2}},
	{"delete across two segments, physically consecutive: not bridged", []int64{800, 800}, 1, "delete", 730, 100, ioCount{2, 2, 1, 1, 2}},
	{"delete, T=4: L falls under T and moves into N whole", []int64{6400}, 4, "delete", 530, 100, ioCount{1, 7, 1, 6, 2}},
}

// A transaction's read, then its replace with the read's page images: only
// pieces the read did not transfer whole are read again.  keep is the
// offset and length of the read.
var readReplaceTable = []struct {
	floorRow
	keep [2]int64
}{
	{floorRow{"read, replace the same bytes", []int64{6400}, 1, "read-replace", 350, 400, ioCount{1, 5, 1, 5, 2}}, [2]int64{350, 400}},
	{floorRow{"read, replace inside it", []int64{6400}, 1, "read-replace", 350, 400, ioCount{1, 10, 1, 5, 2}}, [2]int64{250, 900}},
	{floorRow{"read, replace one page wider each side", []int64{6400}, 1, "read-replace", 250, 600, ioCount{2, 12, 1, 7, 3}}, [2]int64{350, 400}},
	{floorRow{"read, replace shifted over a segment boundary: one piece covered", []int64{800, 330, 800}, 1, "read-replace", 780, 320, ioCount{3, 6, 2, 4, 3}}, [2]int64{750, 200}},
	{floorRow{"read, replace somewhere else", []int64{6400}, 1, "read-replace", 3350, 100, ioCount{2, 7, 1, 2, 3}}, [2]int64{350, 400}},
}

func TestOpFloor(t *testing.T) {
	for _, row := range floorTable {
		t.Run(row.name, func(t *testing.T) { testFloorRow(t, row, [2]int64{}, 0, 0) })
	}
	for _, row := range readReplaceTable {
		t.Run(row.name, func(t *testing.T) { testFloorRow(t, row.floorRow, row.keep, 0, 0) })
	}
	for _, row := range tailTable {
		t.Run(row.name, func(t *testing.T) { testFloorRow(t, row.floorRow, [2]int64{}, row.open, row.cut) })
	}
}

func testFloorRow(t *testing.T, row floorRow, keep [2]int64, open, cut int64) {
	const ps = 100
	e := newEnv(t, ps, 8, 256, Config{Threshold: row.t})
	o := e.m.NewObject(0)
	var model []byte
	for i, n := range row.segs {
		part := pattern(i+1, int(n))
		if err := o.AppendWithHint(part, n); err != nil {
			t.Fatal(err)
		}
		model = append(model, part...)
	}
	want := len(row.segs)
	if open > 0 {
		part := pattern(50, int(open))
		if err := o.Append(part); err != nil {
			t.Fatal(err)
		}
		model = append(model, part...)
		want++
		// Take the page behind the open tail, so that the segment an append
		// starts next repositions the head, as the floor assumes of every
		// new segment.
		if _, err := e.bm.Alloc(1); err != nil {
			t.Fatal(err)
		}
	}
	if cut > 0 {
		if err := o.Truncate(cut); err != nil {
			t.Fatal(err)
		}
		model = model[:cut]
	}
	segs, err := o.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != want {
		t.Fatalf("layout has %d segments, want %d", len(segs), want)
	}
	g := newFloorGeom(e, segs, row.t).withTail(o)
	g.keepOff, g.keepN = keep[0], keep[1]

	floor := g.floorRequests(row.op, row.off, row.n)
	if got := countRequests(floor); got != row.want {
		t.Fatalf("floor formula gives %v, the table says %v", got, row.want)
	}

	model, traced, st := runTraced(t, e, o, model, row.op, row.off, pattern(99, int(row.n)), keep)
	got := ioCount{st.Reads, st.PagesRead, st.Writes, st.PagesWritten, st.Seeks}
	if got != row.want {
		t.Errorf("measured %v, floor %v", got, row.want)
	}
	if split, err := matchFloor(traced, floor); err != nil || split != 0 {
		t.Errorf("%d split segment writes, %v", split, err)
	}
	mustContent(t, o, model)
	mustCheck(t, o)
}

// TestOpFloorRandomMix holds the paper's operation mix (40 % read, 20 %
// insert, 20 % delete, 10 % replace, 10 % append, half of those plain Append
// calls that leave the tail open; lengths on both sides of the bridge) to the same formula on whatever layout the churn has
// produced: every operation's traced requests are its floor, so
// measured ÷ floor is 1 for each operation kind over the whole run.
func TestOpFloorRandomMix(t *testing.T) {
	const ps = 100
	const threshold = 8
	// A pool the index never outgrows: write-back of shadowed index pages
	// is not part of any one operation's floor.
	e := newEnvFrames(t, ps, 32, 256, 2048, Config{Threshold: threshold})
	o := e.m.NewObject(0)
	model := pattern(7, 40000)
	if err := o.AppendWithHint(model, int64(len(model))); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	ops := 3000
	if testing.Short() {
		ops = 300
	}
	var measured, floored ioCount
	var splits int64
	for i := 0; i < ops; i++ {
		segs, err := o.Segments()
		if err != nil {
			t.Fatal(err)
		}
		g := newFloorGeom(e, segs, threshold).withTail(o)
		n := min(int64(1+rng.Intn(2000)), o.Size())
		off := rng.Int63n(o.Size() - n + 1)
		data := pattern(i, int(n))
		var op string
		switch p := rng.Intn(100); {
		case p < 40:
			op = "read"
		case p < 60:
			op, off = "insert", rng.Int63n(o.Size()+1)
		case p < 80:
			op = "delete"
		case p < 90:
			op = "replace"
		case p < 95:
			op, off = "append", 0
		default:
			op, off = "append-plain", 0
		}
		floor := g.floorRequests(op, off, n)

		var traced []disk.TraceEvent
		var st disk.Stats
		model, traced, st = runTraced(t, e, o, model, op, off, data, [2]int64{})
		split, err := matchFloor(traced, floor)
		if err != nil {
			t.Fatalf("op %d: %s(%d,%d): %v", i, op, off, n, err)
		}
		splits += int64(split)
		measured.reads += st.Reads
		measured.pagesRead += st.PagesRead
		measured.writes += st.Writes
		measured.pagesWritten += st.PagesWritten
		fc := countRequests(floor)
		floored.reads += fc.reads
		floored.pagesRead += fc.pagesRead
		floored.writes += fc.writes
		floored.pagesWritten += fc.pagesWritten
	}
	// Seeks are pinned by the table: here a new segment may land where the
	// head happens to be.
	measured.seeks, floored.seeks = 0, 0
	floored.writes += splits
	if measured != floored {
		t.Errorf("measured %v, floor %v (with %d split segment writes)", measured, floored, splits)
	}
	t.Logf("%d operations: %v, = floor but for %d writes of segments the allocator split; %d bridged reads paid %d gap pages",
		ops, measured, splits, e.m.Stats().BridgedReads, e.m.Stats().BridgedGapPages)
	mustContent(t, o, model)
	mustCheck(t, o)
}

// TestBridgeCounters: the two counters report what the rule saved and what
// it paid, and an insert — one byte range, never a bridge — counts nothing.
func TestBridgeCounters(t *testing.T) {
	e := newEnv(t, 100, 8, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	if err := o.AppendWithHint(pattern(1, 6400), 6400); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(3250, pattern(2, 120)); err != nil {
		t.Fatal(err)
	}
	if st := e.m.Stats(); st.BridgedReads != 0 || st.BridgedGapPages != 0 {
		t.Errorf("after an insert: %d bridged reads, %d gap pages; want none", st.BridgedReads, st.BridgedGapPages)
	}
	if err := o.Delete(330, 400); err != nil { // L's tail on page 3, Q = page 7: 3 pages between
		t.Fatal(err)
	}
	if err := o.Replace(1050, pattern(3, 200)); err != nil { // pages 10..12: 1 page between
		t.Fatal(err)
	}
	if st := e.m.Stats(); st.BridgedReads != 2 || st.BridgedGapPages != 4 {
		t.Errorf("%d bridged reads, %d gap pages; want 2, 4", st.BridgedReads, st.BridgedGapPages)
	}
}
