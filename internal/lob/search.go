package lob

import (
	"fmt"

	"github.com/eosdb/eos/internal/disk"
)

// The search operation (§4.2) locates byte B by binary-searching the
// counts on the path from the root; at the leaf, byte B within segment S
// is in page S + floor(B/PS), and a range confined to one segment is
// transferred in a single multi-page request — the payoff of physical
// contiguity.

// segmentVisitor receives each (segment, in-segment offset, length)
// triple covering a byte range, in logical order.
type segmentVisitor func(seg entry, segOff int64, n int64) error

// walk is what one descent over a byte range (walkRange) does.  seg
// receives the segment pieces; enter, when set, each index page below the
// root that the range reaches, read in place with its frame pinned, before
// the walk goes below it — e is the parent's entry naming the page; leave,
// when set, each such page's entry once the walk is done below it.  Every
// node of a tree is read this way but the ones a splice edits (splice.go).
type walk struct {
	seg   segmentVisitor
	enter func(e entry, v nodeView) error
	leave func(e entry) error
	// pages holds, for a page that covers more entries than its frame has
	// room for, the covered entries copied off it: those of a level-L page
	// at [(L-1)F, LF), F entries a page.  One page a level is on the path,
	// so the regions are never shared; the walk allocates it once, not once
	// a page.
	pages []entry
}

// walkRange visits the segments covering [off, off+n) of nd's subtree, and
// the index pages on the way to them, in logical order; walkRange(root, 0,
// size, w) walks the whole tree.
func (m *Manager) walkRange(nd *node, off, n int64, w *walk) error {
	return m.walkEntries(nd.level, nd.entries, off, n, w)
}

// walkEntries is walkRange over the entries es of a node of the given level.
func (m *Manager) walkEntries(level int, es []entry, off, n int64, w *walk) error {
	var start int64
	for _, e := range es {
		if n == 0 {
			return nil
		}
		end := start + e.bytes
		if off < end {
			take := min(end-off, n)
			if err := m.walkEntry(e, level, off-start, take, w); err != nil {
				return err
			}
			off += take
			n -= take
		}
		start = end
	}
	return nil
}

// walkEntry visits [off, off+n) of the subtree that e, an entry of a node of
// the given level, names.  It copies the entries the range covers off the
// page and unpins the frame before it goes below it: no frame stays pinned
// across a segment's I/O.  An index page must be one level below its
// parent, so a walk ends however its pages are corrupted, and hold the
// bytes its parent's entry says.
func (m *Manager) walkEntry(e entry, level int, off, n int64, w *walk) error {
	if level == 1 {
		if w.seg == nil {
			return nil
		}
		return w.seg(e, off, n)
	}
	var room [16]entry
	covered := room[:0]
	var first int64 // where covered's first entry starts in e's subtree
	err := m.viewPage(e.ptr, func(v nodeView) error {
		if v.level != level-1 {
			return fmt.Errorf("%w: child level %d under level %d", ErrCorruptNode, v.level, level)
		}
		if v.total() != e.bytes {
			return fmt.Errorf("%w: entry says %d bytes, subtree has %d", ErrCorruptNode, e.bytes, v.total())
		}
		if w.enter != nil {
			if err := w.enter(e, v); err != nil {
				return err
			}
		}
		i, j, at := v.cover(off, n)
		if j-i > len(room) {
			f := maxFanout(m.vol.PageSize())
			if len(w.pages) < v.level*f {
				w.pages = make([]entry, v.level*f)
			}
			covered = w.pages[(v.level-1)*f : (v.level-1)*f]
		}
		first = at
		for ; i < j; i++ {
			ce := v.entry(i, at)
			covered = append(covered, ce)
			at += ce.bytes
		}
		return nil
	})
	if err == nil {
		err = m.walkEntries(level-1, covered, off-first, n, w)
	}
	if err == nil && w.leave != nil {
		err = w.leave(e)
	}
	return err
}

// find walks from root to the leaf entry containing byte off of its subtree
// (off == its size resolves to the last entry) and returns the entry and
// the byte offset where it starts.
func (m *Manager) find(root *node, off int64) (e entry, start int64, err error) {
	size := root.size()
	if size == 0 {
		return entry{}, 0, fmt.Errorf("%w: empty object", ErrOutOfBounds)
	}
	off = min(off, size-1)
	found := false
	err = m.walkRange(root, off, 1, &walk{
		seg: func(seg entry, segOff, _ int64) error {
			e, start, found = seg, off-segOff, true
			return nil
		},
	})
	if err == nil && !found {
		err = fmt.Errorf("%w: no leaf holds byte %d", ErrCorruptNode, off)
	}
	return e, start, err
}

// PageImages is what one read transferred from the data volume: the
// whole-page run of every segment piece it touched, as the device returned
// it.  Leaf segments bypass the buffer pool, so a caller that will rewrite
// the bytes it has just read keeps these and hands them to PrepareReplace
// instead of paying the device a second time.  They are the device's
// bytes only while nothing writes those pages: whoever keeps them
// guarantees that (the transaction layer by its object lock) and drops
// them before anything else.
type PageImages struct {
	runs []pageImage
}

// pageImage is whole pages from page start on.
type pageImage struct {
	start disk.PageNum
	raw   []byte
}

// Pages is the number of pages held.
func (p *PageImages) Pages(pageSize int) int {
	n := 0
	for _, r := range p.runs {
		n += len(r.raw) / pageSize
	}
	return n
}

// take returns the images of pages [start, start+npages) if one kept run
// holds them all, else nil.
func (p *PageImages) take(start disk.PageNum, npages, pageSize int) []byte {
	if p == nil {
		return nil
	}
	for _, r := range p.runs {
		if lo := int(start - r.start); start >= r.start && (lo+npages)*pageSize <= len(r.raw) {
			return r.raw[lo*pageSize : (lo+npages)*pageSize]
		}
	}
	return nil
}

// ReadAt reads len(buf) bytes starting at byte off into buf.  The
// segments are transferred strictly in logical order, one request per
// segment piece (§4.2).
func (o *Object) ReadAt(buf []byte, off int64) error {
	if err := o.checkRange(off, int64(len(buf))); err != nil {
		return err
	}
	o.m.st.reads.Add(1)
	return o.m.readRange(o.root, buf, off, nil, &o.split)
}

// readRange reads len(buf) bytes starting at byte off of root's subtree,
// reporting the page runs it transferred to keep when that is not nil;
// pending pages come from the write-behind set.  It is shared by the live
// read path (under the object latch) and the snapshot read path (over an
// immutable published root, no locks): the walk itself only ever descends
// committed index pages.  Each device request past the read's first that
// repositions — another segment's pages, not the ones right after the last
// request's — counts in split, the object's for the window (policy.go).
func (m *Manager) readRange(root *node, buf []byte, off int64, keep *PageImages, split *windowReads) error {
	pos := 0
	sk := m.seeking(split)
	return m.walkRange(root, off, int64(len(buf)), &walk{seg: func(seg entry, segOff, n int64) error {
		img, dev, err := m.readSegRange(seg.ptr, segOff, buf[pos:pos+int(n)], keep != nil)
		if err != nil {
			return err
		}
		if keep != nil {
			keep.runs = append(keep.runs, img)
		}
		sk.add(dev)
		pos += int(n)
		return nil
	}})
}

// Read returns n bytes starting at off.
func (o *Object) Read(off, n int64) ([]byte, error) { return o.ReadKeeping(off, n, nil) }

// ReadKeeping is Read that also reports, in keep when it is not nil, the
// page runs the read transferred (see PageImages for what the caller takes
// on by keeping them).
func (o *Object) ReadKeeping(off, n int64, keep *PageImages) ([]byte, error) {
	if err := o.checkRange(off, n); err != nil {
		return nil, err
	}
	o.m.st.reads.Add(1)
	buf := make([]byte, n)
	if err := o.m.readRange(o.root, buf, off, keep, &o.split); err != nil {
		return nil, err
	}
	return buf, nil
}

// Replace overwrites len(data) bytes starting at off with data.  Replace
// modifies leaf pages in place without touching any index node — the one
// EOS update that is logged rather than shadowed (§4.5).  Each segment
// piece is planned as PrepareReplace plans it and written home, with the
// images the write-behind set held of its pages dropped, before the next
// is read: recovery's redo and managers without a write scope replace so.
func (o *Object) Replace(off int64, data []byte) error {
	if err := o.checkRange(off, int64(len(data))); err != nil {
		return err
	}
	o.m.st.replaces.Add(1)
	return (&ReplacePlan{o: o}).plan(off, data, nil, func(run planRun) error {
		return o.m.writeHome(run.start, run.raw)
	})
}

// ReplacePlan is an in-place replace prepared but not yet written: the
// post-image of every page the replace touches.  PrepareReplace reads only
// the bytes the touched pages keep; Hold reads nothing.  A plan stays
// correct only while nothing else rewrites or moves the pages it covers —
// the object's write latch, or a transaction's object lock, keeps every
// other writer off them.
type ReplacePlan struct {
	o     *Object
	runs  []planRun
	saved int
	seeks seeks // the plan's reads (policy.go)
}

// planRun is one segment's share of a plan: whole-page images to be
// written from page start on.
type planRun struct {
	start disk.PageNum
	raw   []byte
}

// PrepareReplace plans overwriting len(data) bytes at off with data: one
// tree walk, and per segment piece the post-image of its page run.  A piece
// whose page run have holds — have may be nil — is taken from there; the
// plan then owns those images and writes into them, so have is spent.  Of
// any other piece only the bytes its first and last page keep are read, in
// one request unless the pages between them would cost more to transfer
// than a second reposition (Manager.gather); a page-aligned piece reads
// nothing.  Held and pending pages come from their sets.
func (o *Object) PrepareReplace(off int64, data []byte, have *PageImages) (*ReplacePlan, error) {
	if err := o.checkRange(off, int64(len(data))); err != nil {
		return nil, err
	}
	p := &ReplacePlan{o: o}
	if err := p.plan(off, data, have, func(run planRun) error {
		p.runs = append(p.runs, run)
		return nil
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// plan is the one replace planner: it builds the post-image of each segment
// piece of a replace inside the object, in logical order, and hands it to
// each before it reads the next.  Its requests past the first that
// reposition count in the object's split (policy.go).
func (p *ReplacePlan) plan(off int64, data []byte, have *PageImages, each func(planRun) error) error {
	m := p.o.m
	ps := m.vol.PageSize()
	pos := int64(0)
	p.seeks = m.seeking(&p.o.split)
	return m.walkRange(p.o.root, off, int64(len(data)), &walk{seg: func(seg entry, segOff, n int64) error {
		head, tail, first := disk.Around(seg.ptr, segOff, n, ps)
		run := planRun{start: seg.ptr + first, raw: have.take(seg.ptr+first, int(head.N+n+tail.N)/ps, ps)}
		if run.raw != nil {
			p.saved++
		} else {
			var err error
			if run.raw, _, err = m.gather(nil, head, n, tail, &p.seeks); err != nil {
				return err
			}
		}
		copy(run.raw[head.N:], data[pos:pos+n])
		pos += n
		return each(run)
	}})
}

// ReadsSaved is the number of segment pieces whose page run came from the
// images PrepareReplace was handed rather than from the device.
func (p *ReplacePlan) ReadsSaved() int { return p.saved }

// Hold makes the planned page images the manager's held images of those
// pages (held.go): nothing is written, and the manager's reads see the new
// bytes from now on.  Like Replace it touches no index node.
func (p *ReplacePlan) Hold() {
	m := p.o.m
	var add []heldPage
	for _, run := range p.runs {
		add = append(add, heldImages(run.start, run.raw, m.vol.PageSize())...)
	}
	m.held.hold(add)
	m.st.replaces.Add(1)
}
