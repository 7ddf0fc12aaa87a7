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
// write of a freshly allocated segment that §3's scan placed, whose address
// is the allocator's business; such a write always repositions.  A new
// segment placed right after the reads before it (newSegment) has its
// address, and follows them without a seek.  One that waits is no request of
// the operation's: an insert's or a delete's new segment not placed so stays
// in the write-behind set (waitingSegment), for the next flush to write.
type floorReq struct {
	write bool
	start disk.PageNum
	pages int
	waits bool
}

func countRequests(reqs []floorReq) ioCount {
	var c ioCount
	head := disk.PageNum(-1)
	for _, r := range reqs {
		if r.waits {
			continue
		}
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
		for pages := 0; pages < f.pages && !f.waits; k++ {
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

// floorGeom is what the floor may look at: the layout, the page size, T,
// the largest segment, the write-behind set's limit, and the free data pages.
type floorGeom struct {
	segs   []SegmentInfo
	ps     int64
	t      int
	maxSeg int64 // bytes
	limit  int   // pages
	bridge int
	// The data pages free in the buddy directories before the operation,
	// and then the room an operation's trimTail gives back.
	free map[disk.PageNum]bool
	// read-replace only: the byte range read before the replace.
	keepOff, keepN int64
	// The pages the last segment is allocated while a plain Append has left
	// it open (0 once trimmed), and its pending pages — pages run.lo..run.hi
	// of the last segment, the write-behind set's only ones here — when
	// pending is set.
	tailPages int
	pending   bool
	run       pageRun
}

// withTail adds what the floor depends on beyond the layout: the open tail.
func (g floorGeom) withTail(o *Object) floorGeom {
	g.tailPages = o.tailAlloc
	if first, n := tailRun(o); n > 0 {
		last := len(g.segs) - 1
		lo := int64(first - g.segs[last].StartPage)
		g.pending, g.run = true, pageRun{last, lo, lo + int64(n) - 1}
	}
	return g
}

// pendingPages returns the volume pages the pending run holds, first and
// last, when there is one.
func (g floorGeom) pendingPages() (lo, hi disk.PageNum, ok bool) {
	if !g.pending {
		return 0, 0, false
	}
	s := g.segs[g.run.seg]
	return s.StartPage + disk.PageNum(g.run.lo), s.StartPage + disk.PageNum(g.run.hi), true
}

// writeRun is the request that writes the pending run, if there is one, and
// drops it.
func (g *floorGeom) writeRun() []floorReq {
	lo, hi, ok := g.pendingPages()
	if !ok {
		return nil
	}
	g.pending = false
	return []floorReq{{write: true, start: lo, pages: int(hi - lo + 1)}}
}

// writeHome is the request that writes pages lo..hi of segment seg in place:
// the pending pages right before or after them go along, and are pending no
// more.
func (g *floorGeom) writeHome(seg int, lo, hi int64) floorReq {
	start, end := g.segs[seg].StartPage+disk.PageNum(lo), g.segs[seg].StartPage+disk.PageNum(hi)
	if plo, phi, ok := g.pendingPages(); ok && plo <= end+1 && start <= phi+1 {
		start, end = min(start, plo), max(end, phi)
		g.pending = false
	}
	return floorReq{write: true, start: start, pages: int(end - start + 1)}
}

// trimTail is writeRun for an operation that cuts or moves the bytes of
// segment seg: if that is the open tail, it closes, and its run is written.
// The room behind its bytes goes back to the free space.
func (g *floorGeom) trimTail(seg int) []floorReq {
	if seg != len(g.segs)-1 || g.tailPages == 0 {
		return nil
	}
	s := g.segs[seg]
	for p := s.Pages; p < g.tailPages; p++ {
		g.free[s.StartPage+disk.PageNum(p)] = true
	}
	return g.writeRun()
}

func newFloorGeom(e *env, segs []SegmentInfo, t int) floorGeom {
	ps := int64(e.vol.PageSize())
	free := make(map[disk.PageNum]bool)
	for _, sp := range e.bm.Spaces() {
		infos, err := sp.Snapshot()
		if err != nil {
			panic(err)
		}
		for _, si := range infos {
			for p := 0; p < si.Pages && !si.Allocated; p++ {
				free[si.Start+disk.PageNum(p)] = true
			}
		}
	}
	return floorGeom{
		segs: segs, ps: ps, t: t,
		maxSeg: int64(e.bm.MaxSegmentPages()) * ps,
		limit:  e.m.cfg.Pending.limit,
		bridge: disk.DefaultCostModel().BridgePages(),
		free:   free,
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

// edges returns the pages of piece r of a replace of [off, off+n) that keep
// bytes the replace does not overwrite: its first page, when the replace
// starts inside it, and its last, when the replace ends inside it.
func (g floorGeom) edges(r pageRun, off, n int64) []pageRun {
	s := g.segs[r.seg]
	lo, hi := max(off, s.LogicalOff), min(off+n, s.LogicalOff+s.Bytes)
	var need []pageRun
	if (lo-s.LogicalOff)%g.ps != 0 {
		need = append(need, pageRun{r.seg, r.lo, r.lo})
	}
	if (hi-s.LogicalOff)%g.ps != 0 {
		need = append(need, pageRun{r.seg, r.hi, r.hi})
	}
	return need
}

// reads turns the page runs an operation needs into read requests: runs of
// one segment with at most bridge pages between them become one request,
// which leaves out the pending pages at either end, and is not made when it
// has no others.
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
		start, end := g.segs[r.seg].StartPage+disk.PageNum(r.lo), g.segs[r.seg].StartPage+disk.PageNum(r.hi)
		if plo, phi, ok := g.pendingPages(); ok {
			if plo <= start && start <= phi {
				start = phi + 1
			}
			if plo <= end && end <= phi {
				end = plo - 1
			}
		}
		if start <= end {
			out = append(out, floorReq{start: start, pages: int(end - start + 1)})
		}
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

// after returns the page after the last of runs, where an update's reads
// of them leave the head (0 when there are none).  It is the page after the
// run requested, pending pages at its end included: the placement follows
// the request, not the device's share of it.
func (g floorGeom) after(runs []pageRun) disk.PageNum {
	if len(runs) == 0 {
		return 0
	}
	r := runs[len(runs)-1]
	return g.segs[r.seg].StartPage + disk.PageNum(r.hi) + 1
}

// newSegment is the one write that creates a segment of n bytes after reads
// that left the head at page at: the segment starts there when it is one
// segment and its pages are all free (DESIGN.md §3's placement), and
// wherever §3's scan puts it otherwise.
func (g floorGeom) newSegment(n int64, at disk.PageNum) floorReq {
	pages := pagesFor(n, int(g.ps))
	placed := at != 0 && n <= g.maxSeg
	for p := 0; p < pages && placed; p++ {
		placed = g.free[at+disk.PageNum(p)]
	}
	if !placed {
		at = -1
	}
	return floorReq{write: true, start: at, pages: pages}
}

// waitingSegment is newSegment for an insert's or a delete's N: one not
// placed right after the reads waits in the write-behind set while its pages
// stay under the set's limit, and the operation writes nothing.
func (g floorGeom) waitingSegment(n int64, at disk.PageNum) floorReq {
	w := g.newSegment(n, at)
	w.waits = w.start < 0 && w.pages < g.limit
	return w
}

// waiting returns the pages of the requests that wait.
func waiting(reqs []floorReq) int {
	n := 0
	for _, r := range reqs {
		if r.waits {
			n += r.pages
		}
	}
	return n
}

// floorRequests is the table's formula column.
func (g floorGeom) floorRequests(op string, off, n int64) []floorReq {
	switch op {
	case "read":
		// §4.2: one multi-page request per segment touched, for the pages
		// the pending run does not hold.
		return g.reads(g.runs(off, n))

	case "append", "append-plain":
		// §4.1.  On a trimmed tail the bytes go to a segment of their own,
		// nothing read.  The room of a tail a plain Append left open is
		// filled first, in place, from its pending run's first page — or,
		// with none, from its partial page, which is read back.  A hinted
		// append ("append") writes nothing: all it fills waits in the
		// write-behind set for the next flush ("appends") — every row's fits
		// in the set's limit; TestHintedAppendOverTheLimit has one that does
		// not.  A plain Append leaves the last segment's pages pending while
		// it holds fewer than T pages of bytes, and the room it fills with
		// them; anything else is written in one request per segment, the
		// old tail's first.  A tail already full stays pending as it is.
		plain := op == "append-plain"
		through := func(bytes int64) bool { return plain && bytes >= int64(g.t)*g.ps }
		var out []floorReq
		if last := g.segs[len(g.segs)-1]; g.tailPages > 0 {
			if w := min(int64(g.tailPages)*g.ps-last.Bytes, n); w > 0 {
				lo, hi := last.Bytes/g.ps, (last.Bytes+w-1)/g.ps
				if g.pending {
					lo = g.run.lo
				} else if last.Bytes%g.ps != 0 {
					out = append(out, floorReq{start: last.StartPage + disk.PageNum(lo), pages: 1})
				}
				if through(n - w) {
					out = append(out, floorReq{write: true, start: last.StartPage + disk.PageNum(lo), pages: int(hi - lo + 1)})
				}
				n -= w
			}
		}
		if n > 0 && through(n) {
			out = append(out, g.newSegment(n, 0))
		}
		return out

	case "appends":
		// off hinted appends of n bytes each onto a trimmed tail, then the
		// flush a checkpoint makes: each new segment is placed right after the
		// object's last one when its pages are free, so the flush writes them
		// all in one request.
		last := g.segs[len(g.segs)-1]
		return []floorReq{g.newSegment(off*int64(pagesFor(n, int(g.ps)))*g.ps, last.StartPage+disk.PageNum(last.Pages))}

	case "replace":
		// §4.5: per segment piece, the bytes the piece's first and last
		// page keep are read — unless they are pending —, then the piece's
		// page run is written in place, with the pending pages around it.
		var out []floorReq
		for _, r := range g.runs(off, n) {
			out = append(out, g.reads(g.edges(r, off, n))...)
			out = append(out, g.writeHome(r.seg, r.lo, r.hi))
		}
		return out

	case "read-replace":
		// A transaction's read-modify-write: the read of [keepOff,
		// keepOff+keepN) is §4.2's; a piece of the replace that follows whose
		// whole page run the read transferred reads nothing more, any other
		// only the bytes its edge pages keep, as a replace does; each run is
		// then written in place without reading.
		kept := g.runs(g.keepOff, g.keepN)
		out := g.reads(kept)
		pieces := g.runs(off, n)
		for _, r := range pieces {
			covered := false
			for _, k := range kept {
				covered = covered || (k.seg == r.seg && k.lo <= r.lo && r.hi <= k.hi)
			}
			if !covered {
				out = append(out, g.reads(g.edges(r, off, n))...)
			}
		}
		for _, r := range pieces {
			out = append(out, g.writeHome(r.seg, r.lo, r.hi))
		}
		return out

	case "insert":
		// §4.3.1: S splits at page P into L | N | R; N takes the new bytes
		// and P's suffix, reshuffling adds L's tail and R's head.  Those
		// old bytes are contiguous in S: one read.  N is written once,
		// right after them when the pages there are free; else it waits.
		out := g.trimTail(g.segAt(off))
		s := g.segs[g.segAt(off)]
		rel := off - s.LogicalOff
		p := min(rel/g.ps, int64(s.Pages)-1)
		suffix := g.pageBytes(s, p) - (rel - p*g.ps)
		rc := max(0, s.Bytes-(p+1)*g.ps)
		res := reshuffle(rel, n+suffix, rc, g.t, int(g.ps), g.maxSeg)
		need := g.runs(off-res.moveL, res.moveL+suffix+res.moveR)
		out = append(out, g.reads(need)...)
		return append(out, g.waitingSegment(res.nc, g.after(need)))

	case "inserts":
		// off inserts of n bytes, whole pages, each at the object's end,
		// whose last page is full, with T = 1: nothing read, so no N is
		// placed after a read, and each waits, allocated at the next-fit
		// point behind the one before; then the flush a checkpoint makes
		// writes them all in one request.
		return []floorReq{{write: true, start: -1, pages: int(off) * pagesFor(n, int(g.ps))}}

	case "delete":
		// §4.3.2: whole segments inside the range go to the free space
		// unread.  Of S' (holding the last deleted byte, in its page Q)
		// N takes Q's suffix, then reshuffling adds L's tail (in S) and
		// R's head.  A cut that leaves Q no suffix reads and writes nothing.
		// N goes right after the last read when the pages there are free;
		// else it waits.
		out := g.trimTail(g.segAt(off + n - 1))
		sl, sr := g.segs[g.segAt(off)], g.segs[g.segAt(off+n-1)]
		lc := off - sl.LogicalOff
		relR := off + n - sr.LogicalOff
		q := (relR - 1) / g.ps
		suffix := g.pageBytes(sr, q) - (relR - q*g.ps)
		if suffix == 0 {
			return out
		}
		rc := max(0, sr.Bytes-(q+1)*g.ps)
		res := reshuffle(lc, suffix, rc, g.t, int(g.ps), g.maxSeg)
		need := append(g.runs(off-res.moveL, res.moveL), g.runs(off+n, suffix+res.moveR)...)
		return append(append(out, g.reads(need)...), g.waitingSegment(res.nc, g.after(need)))
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
	case "appends":
		for i := int64(0); i < off && err == nil; i++ {
			err = o.AppendWithHint(data, n)
			model = append(model, data...)
		}
		if err == nil {
			err = flush(o.m.cfg.Pending)
		}
	case "append-plain":
		err = o.Append(data)
		model = append(model, data...)
	case "replace":
		err = o.Replace(off, data)
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
			err = writePlan(plan)
		}
		copy(model[off:], data)
	case "insert":
		err = o.Insert(off, data)
		model = append(model[:off:off], append(data[:n:n], model[off:]...)...)
	case "inserts":
		for i := int64(0); i < off && err == nil; i++ {
			err = o.Insert(int64(len(model)), data)
			model = append(model, data...)
		}
		if err == nil {
			err = flush(o.m.cfg.Pending)
		}
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
	segs   []int64 // layout: bytes per segment, each laid down by one sized append, written through
	t      int     // segment size threshold T, pages
	op     string  // read, append, appends, append-plain, replace, read-replace, insert, inserts, delete
	off, n int64   // appends, inserts: off appends or inserts of n bytes
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
	// Into the room a plain Append left open: nothing read, nothing written —
	// the pages join the pending run.  Nor when the segment fills: it waits in
	// the set, closed, for a checkpoint, and so does the next tail's first
	// page when the bytes cross into it.  Only bytes behind the room that go
	// through — T pages or more — make the filled segment go too, whole, in
	// one request, still nothing read, ahead of its successor.
	{floorRow{"append into reserved tail", []int64{800}, 4, "append-plain", 0, 150, ioCount{}}, 130, 0},
	{floorRow{"append into reserved tail, within the partial page", []int64{800}, 4, "append-plain", 0, 50, ioCount{}}, 130, 0},
	{floorRow{"append filling the reserved tail: nothing written", []int64{800}, 4, "append-plain", 0, 270, ioCount{}}, 130, 0},
	{floorRow{"append crossing out of a full reservation", []int64{800}, 4, "append-plain", 0, 350, ioCount{}}, 130, 0},
	{floorRow{"append crossing out of a full reservation with T pages behind it", []int64{800}, 4, "append-plain", 0, 270 + 400, ioCount{0, 0, 2, 8, 2}}, 130, 0},
	{floorRow{"hinted append into a reserved tail: the same fill", []int64{800}, 4, "append", 0, 150, ioCount{}}, 130, 0},
	{floorRow{"first append after a tail edit", []int64{800}, 4, "append-plain", 0, 150, ioCount{}}, 130, 850},
	// What else meets the pending run: a read, or a replace's read of the
	// bytes around its own, takes its pages from memory; a replace writes
	// them with its own, in one request; an operation that closes the tail
	// writes it first.
	{floorRow{"read reaching into the pending run", []int64{800}, 4, "read", 750, 130, ioCount{1, 1, 0, 0, 1}}, 130, 0},
	{floorRow{"replace into the pending run", []int64{800}, 4, "replace", 850, 20, ioCount{0, 0, 1, 2, 1}}, 130, 0},
	{floorRow{"insert into the open tail", []int64{800}, 4, "insert", 850, 250, ioCount{1, 2, 1, 2, 2}}, 130, 0},
	{floorRow{"delete cutting the open tail", []int64{800}, 4, "delete", 850, 80, ioCount{0, 0, 1, 2, 1}}, 130, 0},
}

// The page size is 100 bytes, so byte offsets read as page.byte; the
// bridge is disk.DefaultCostModel().BridgePages() = 14 pages.
var floorTable = []floorRow{
	// §4.2 search: one request per segment touched.
	{"read inside one segment", []int64{6400}, 1, "read", 250, 900, ioCount{1, 10, 0, 0, 1}},
	{"read one byte", []int64{6400}, 1, "read", 6399, 1, ioCount{1, 1, 0, 0, 1}},
	{"read across three segments, the first two physically consecutive", []int64{800, 330, 800}, 1, "read", 750, 500, ioCount{3, 7, 0, 0, 2}},

	// §4.1 append of a known size on a trimmed tail: nothing written, the
	// pages wait in the write-behind set, each append's placed right after
	// the object's last segment, so the flush behind k of them is one write.
	{"append 250 bytes", []int64{800}, 1, "append", 0, 250, ioCount{}},
	{"4 appends of 250 bytes, then a flush: one run", []int64{800}, 1, "appends", 4, 250, ioCount{0, 0, 1, 12, 1}},
	{"8 appends of a page behind two segments, then a flush: one run", []int64{800, 330}, 1, "appends", 8, 100, ioCount{0, 0, 1, 8, 1}},

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

	// §4.3.1 insert: one read of S, one write of N — none when N cannot go
	// right after the read: it waits in the write-behind set.
	{"insert mid-page, T=1", []int64{6400}, 1, "insert", 3250, 120, ioCount{1, 1, 0, 0, 1}},
	{"insert mid-page, T=4: N pulled up to T pages", []int64{6400}, 4, "insert", 3250, 120, ioCount{1, 3, 0, 0, 1}},
	{"insert at a page boundary", []int64{6400}, 1, "insert", 3200, 100, ioCount{1, 1, 0, 0, 1}},
	{"insert at the end of a full last page", []int64{800}, 1, "insert", 800, 100, ioCount{}},
	// N is placed right after the pages read when they are free — here the
	// 3 pages S's run left over and the start of the free 8-page block
	// behind it — and written without a seek; with a neighbour on them, it
	// waits in the write-behind set, and the insert writes nothing.
	{"insert into a small segment, T=8: S rewritten whole", []int64{500, 6400}, 8, "insert", 250, 100, ioCount{1, 5, 1, 6, 1}},
	{"insert into a small segment, T=8: a neighbour behind S", []int64{500, 300, 6400}, 8, "insert", 250, 100, ioCount{1, 5, 0, 0, 1}},
	// k inserts whose N waits, then a flush: the new segments are
	// allocated one behind the other at the set's next-fit point, and go
	// out in one request.
	{"4 inserts of 3 pages at the end, then a flush: one run", []int64{800}, 1, "inserts", 4, 300, ioCount{0, 0, 1, 12, 1}},
	{"8 inserts of a page at the end of two segments, then a flush: one run", []int64{800, 330}, 1, "inserts", 8, 100, ioCount{0, 0, 1, 8, 1}},

	// §4.3.2 delete: the rule's edges.  An N that cannot go right after the
	// reads waits in the write-behind set.
	{"delete whole segments", []int64{800, 330, 800}, 1, "delete", 800, 330, ioCount{}},
	{"delete to a page boundary", []int64{6400}, 1, "delete", 300, 500, ioCount{}},
	{"delete inside one page: that page read once", []int64{6400}, 1, "delete", 310, 20, ioCount{1, 1, 0, 0, 1}},
	{"delete across adjacent pages", []int64{6400}, 1, "delete", 330, 100, ioCount{1, 2, 0, 0, 1}},
	{"delete, gap = bridge", []int64{6400}, 1, "delete", 330, 1500, ioCount{1, 16, 0, 0, 1}},
	{"delete, gap = bridge + 1", []int64{6400}, 1, "delete", 330, 1600, ioCount{2, 2, 0, 0, 2}},
	{"delete, nothing kept of L's last page", []int64{6400}, 1, "delete", 300, 160, ioCount{1, 1, 0, 0, 1}},
	{"delete across two segments, physically consecutive: not bridged", []int64{800, 800}, 1, "delete", 730, 100, ioCount{2, 2, 0, 0, 1}},
	{"delete, T=4: L falls under T and moves into N whole", []int64{6400}, 4, "delete", 530, 100, ioCount{1, 7, 0, 0, 1}},
	{"delete from a small segment, T=8: S rewritten whole behind itself", []int64{500, 6400}, 8, "delete", 250, 10, ioCount{1, 5, 1, 5, 1}},
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
	{floorRow{"read, replace shifted over a segment boundary: one piece covered", []int64{800, 330, 800}, 1, "read-replace", 780, 320, ioCount{2, 3, 2, 4, 2}}, [2]int64{750, 200}},
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
		// Each segment where §3's scan puts it, written through: what a
		// hinted append does without a write-behind set.
		part := pattern(i+1, int(n))
		if err := o.appendBytes(part, n, 0, trimmed); err != nil {
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
	if row.op == "insert" || row.op == "delete" {
		closed := 0
		o.m.cfg.Pending.load().each(func(p pendingPage) bool {
			if p.kind != openTail {
				closed++
			}
			return true
		})
		if closed != waiting(floor) {
			t.Errorf("%d pages left pending, the floor %d", closed, waiting(floor))
		}
	}
	mustContent(t, o, model)
	mustCheck(t, o)
}

// TestOpFloorRandomMix holds the paper's operation mix (40 % read, 20 %
// insert, 20 % delete, 10 % replace, 10 % append, half of those plain Append
// calls that leave the tail open; lengths on both sides of the bridge) to the same formula on whatever layout the churn has
// produced: every operation's traced requests are its floor, so
// measured ÷ floor is 1 for each operation kind over the whole run.  A
// hinted append, and a plain one that fills its tail, leave closed tails
// pending, an insert or a delete the new segment it could not place after
// its reads — exactly the pages the floor says wait —, and a checkpoint
// writes them between that operation and the next (writeClosed), outside
// both.
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
	if err := flush(e.m.cfg.Pending); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	ops := 3000
	if testing.Short() {
		ops = 300
	}
	var measured, floored ioCount
	var splits int64
	closed, hintedClosed, waited := 0, 0, 0
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
		switch k := writeClosed(t, e.m); op {
		case "append-plain":
			closed += k
		case "append":
			hintedClosed += k
		default:
			if k != waiting(floor) {
				t.Fatalf("op %d: %s(%d,%d) left %d pages pending, the floor %d", i, op, off, n, k, waiting(floor))
			}
			waited += k
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
	if closed == 0 {
		t.Error("no plain append filled its tail and left it pending")
	}
	if waited == 0 {
		t.Error("no insert or delete left its new segment pending")
	}
	t.Logf("%d operations: %v, = floor but for %d writes of segments the allocator split; %d bridged reads paid %d gap pages; %d pages of filled tails, %d of hinted appends and %d of new segments left to the checkpoint",
		ops, measured, splits, e.m.Stats().BridgedReads, e.m.Stats().BridgedGapPages, closed, hintedClosed, waited)
	mustContent(t, o, model)
	mustCheck(t, o)
}

// writeClosed writes the pending pages no open tail holds — the tails
// hinted appends and filling plain ones closed, and the new segments of
// inserts and deletes — as the store's next checkpoint would, one request per run
// of contiguous ones, and returns how many it wrote.  What an operation then
// meets pending is the open tail's run alone, which the floor knows.
func writeClosed(t *testing.T, m *Manager) int {
	t.Helper()
	var closed []pendingPage
	m.cfg.Pending.load().each(func(p pendingPage) bool {
		if p.kind != openTail {
			closed = append(closed, p)
		}
		return true
	})
	for i := 0; i < len(closed); {
		j := runEnd(closed, i)
		if err := m.cfg.Pending.writeRange(closed[i].page, j-i); err != nil {
			t.Fatal(err)
		}
		i = j
	}
	return len(closed)
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

// writePlan writes a plan's page runs home, one request per segment piece,
// without reading: what the pages of a committed replace cost the device
// once the write-behind set writes them with nothing pending around them.
func writePlan(p *ReplacePlan) error {
	for _, run := range p.runs {
		if err := p.o.m.writeHome(run.start, run.raw); err != nil {
			return err
		}
	}
	return nil
}
