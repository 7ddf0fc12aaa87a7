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

// walkRange visits the segments covering [off, off+n) of nd's subtree.  The
// index pages below nd are read in place (walkPage).
func (m *Manager) walkRange(nd *node, off, n int64, visit segmentVisitor) error {
	var cum int64
	for _, e := range nd.entries {
		if n == 0 {
			return nil
		}
		start, end := cum, cum+e.bytes
		cum = end
		if off >= end {
			continue
		}
		take := end - off
		if take > n {
			take = n
		}
		if nd.level == 1 {
			if err := visit(e, off-start, take); err != nil {
				return err
			}
		} else if err := m.walkPage(e.ptr, off-start, take, visit); err != nil {
			return err
		}
		off += take
		n -= take
	}
	return nil
}

// walkPage is walkRange over the index node on page p.  It reads the page
// in place and takes out only the entries the range covers, so the frame is
// unpinned before the walk goes below it: no frame stays pinned across a
// segment's I/O.
func (m *Manager) walkPage(p disk.PageNum, off, n int64, visit segmentVisitor) error {
	var buf [16]entry
	covered := node{entries: buf[:0]}
	var first int64 // where covered's first entry starts in the page's subtree
	err := m.viewPage(p, func(v nodeView) error {
		covered.level = v.level
		var at int64
		for i := 0; i < v.count() && at < off+n; i++ {
			e := v.entry(i, at)
			if at+e.bytes > off {
				if len(covered.entries) == 0 {
					first = at
				}
				covered.entries = append(covered.entries, e)
			}
			at += e.bytes
		}
		return nil
	})
	if err != nil {
		return err
	}
	return m.walkRange(&covered, off-first, n, visit)
}

// find descends from root to the leaf entry containing byte off of its
// subtree (off == its size resolves to the last entry) and returns the
// entry, the byte offset where it starts, and the entry count of its
// parent node.  The index pages below root are read in place.
func (m *Manager) find(root *node, off int64) (e entry, start int64, parentEntries int, err error) {
	if len(root.entries) == 0 {
		return entry{}, 0, 0, fmt.Errorf("%w: empty object", ErrOutOfBounds)
	}
	i, start := root.childIndex(off)
	e, level, parentEntries := root.entries[i], root.level, len(root.entries)
	for level > 1 {
		if e, start, level, parentEntries, err = m.childAt(e.ptr, off, start); err != nil {
			return entry{}, 0, 0, err
		}
	}
	return e, start, parentEntries, nil
}

// childAt reads the index node on page p, whose subtree starts at byte base,
// in place, and returns the entry of its child holding byte off, the byte
// offset where that child's subtree starts, and the node's level and entry
// count.
func (m *Manager) childAt(p disk.PageNum, off, base int64) (e entry, start int64, level, count int, err error) {
	err = m.viewPage(p, func(v nodeView) error {
		if v.count() == 0 {
			return fmt.Errorf("%w: empty node below the root", ErrCorruptNode)
		}
		e, start = v.child(off - base)
		level, count = v.level, v.count()
		return nil
	})
	return e, base + start, level, count, err
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
	return o.m.readRange(o.root, buf, off, nil)
}

// readRange reads len(buf) bytes starting at byte off of root's subtree,
// reporting the page runs it transferred to keep when that is not nil;
// pending pages come from the write-behind set.  It is shared by the live
// read path (under the object latch) and the snapshot read path (over an
// immutable published root, no locks): the walk itself only ever descends
// committed index pages.
func (m *Manager) readRange(root *node, buf []byte, off int64, keep *PageImages) error {
	pos := 0
	return m.walkRange(root, off, int64(len(buf)), func(seg entry, segOff, n int64) error {
		img, err := m.readSegRange(seg.ptr, segOff, buf[pos:pos+int(n)], keep != nil)
		if err != nil {
			return err
		}
		if keep != nil {
			keep.runs = append(keep.runs, img)
		}
		pos += int(n)
		return nil
	})
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
	if err := o.m.readRange(o.root, buf, off, keep); err != nil {
		return nil, err
	}
	return buf, nil
}

// Replace overwrites len(data) bytes starting at off with data.  Replace
// modifies leaf pages in place without touching any index node — the one
// EOS update that is logged rather than shadowed (§4.5).  It writes through:
// the images the write-behind set held of the pages are dropped.
func (o *Object) Replace(off int64, data []byte) error {
	if err := o.checkRange(off, int64(len(data))); err != nil {
		return err
	}
	o.m.st.replaces.Add(1)
	pos := int64(0)
	return o.m.walkRange(o.root, off, int64(len(data)), func(seg entry, segOff, n int64) error {
		err := o.m.replaceInSegment(seg, segOff, data[pos:pos+n])
		pos += n
		return err
	})
}

// ReplacePlan is an in-place replace prepared but not yet written: the
// post-image of every page the replace touches.  PrepareReplace reads each
// touched page run once; Hold reads nothing.  A plan stays correct only
// while nothing else rewrites or moves the pages it covers — the
// transaction layer's object lock keeps every other writer off them.
type ReplacePlan struct {
	o     *Object
	runs  []planRun
	saved int
}

// planRun is one segment's share of a plan: whole-page images to be
// written from page start on.
type planRun struct {
	start disk.PageNum
	raw   []byte
}

// PrepareReplace plans overwriting len(data) bytes at off with data: one
// tree walk, and per segment piece one read of the whole page run the
// piece touches (the non-transactional Replace reads only the boundary
// pages).  A piece whose page run have holds — have may be nil — is taken
// from there instead of the device; the plan then owns those images and
// writes into them, so have is spent.  Held and pending pages come from
// their sets.
func (o *Object) PrepareReplace(off int64, data []byte, have *PageImages) (*ReplacePlan, error) {
	if err := o.checkRange(off, int64(len(data))); err != nil {
		return nil, err
	}
	m := o.m
	ps := m.vol.PageSize()
	p := &ReplacePlan{o: o}
	pos := int64(0)
	err := m.walkRange(o.root, off, int64(len(data)), func(seg entry, segOff, n int64) error {
		first, npages, in := disk.PageSpan(segOff, n, ps)
		run := planRun{start: seg.ptr + first, raw: have.take(seg.ptr+first, npages, ps)}
		if run.raw != nil {
			p.saved++
		} else {
			run.raw = make([]byte, npages*ps)
			if err := m.readPages(run.start, npages, run.raw); err != nil {
				return err
			}
		}
		copy(run.raw[in:], data[pos:pos+n])
		pos += n
		p.runs = append(p.runs, run)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
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

// replaceInSegment rewrites bytes [segOff, segOff+len(data)) of one
// segment: the bytes its first and last page keep are read — in one
// request unless the pages between them would cost more to transfer than
// a second reposition — the pages between are overwritten outright, and
// the whole affected page run is written back in a single contiguous
// request.
func (m *Manager) replaceInSegment(seg entry, segOff int64, data []byte) error {
	head, tail, first := disk.Around(seg.ptr, segOff, int64(len(data)), m.vol.PageSize())
	raw, err := m.gather(nil, head, int64(len(data)), tail)
	if err != nil {
		return err
	}
	copy(raw[head.N:], data)
	return m.writeHome(seg.ptr+first, raw)
}
