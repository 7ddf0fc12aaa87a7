package lob

import (
	"sync"

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

// walkRange visits the segments covering [off, off+n) of nd's subtree.
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
		} else {
			child, err := m.readNode(e.ptr)
			if err != nil {
				return err
			}
			if err := m.walkRange(child, off-start, take, visit); err != nil {
				return err
			}
		}
		off += take
		n -= take
	}
	return nil
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

// ReadAt reads len(buf) bytes starting at byte off into buf.
//
// With Config.ReadWorkers > 1 a range spanning several segments fans its
// per-segment multi-page transfers out to the manager's bounded worker
// pool so they overlap; otherwise the segments are transferred strictly
// in logical order, which also keeps the volume's seek accounting
// deterministic for the experiment harness.
func (o *Object) ReadAt(buf []byte, off int64) error {
	if err := o.checkRange(off, int64(len(buf))); err != nil {
		return err
	}
	o.m.st.reads.Add(1)
	return o.m.readRange(o.root, buf, off, nil)
}

// readRange reads len(buf) bytes starting at byte off of root's subtree,
// reporting the page runs it transferred to keep when that is not nil.
// It is shared by the live read path (under the object latch) and the
// snapshot read path (over an immutable published root, no locks): the
// walk itself only ever descends committed index pages.
func (m *Manager) readRange(root *node, buf []byte, off int64, keep *PageImages) error {
	if m.readSem != nil {
		return m.readRangeFanOut(root, buf, off, keep)
	}
	pos := 0
	return m.walkRange(root, off, int64(len(buf)), func(seg entry, segOff, n int64) error {
		img, err := m.readSegRange(seg.ptr, segOff, buf[pos:pos+int(n)])
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

// segSpan is one segment's share of a read: n bytes starting segOff
// bytes into the segment whose data pages begin at ptr, destined for
// buf[pos:pos+n]; img is the page run its transfer filled.
type segSpan struct {
	ptr    disk.PageNum
	segOff int64
	pos    int
	n      int
	img    pageImage
}

// readRangeFanOut overlaps a multi-segment read's data transfers.  The
// index walk stays sequential — node reads go through the buffer pool
// and are usually hits — collecting the segment spans; the spans are
// then dispatched concurrently, at most ReadWorkers in flight across
// the whole manager.  Each worker writes a disjoint slice of buf and its
// own span, so the workers need no coordination beyond the first-error
// capture.
func (m *Manager) readRangeFanOut(root *node, buf []byte, off int64, keep *PageImages) error {
	var spans []segSpan
	pos := 0
	if err := m.walkRange(root, off, int64(len(buf)), func(seg entry, segOff, n int64) error {
		spans = append(spans, segSpan{ptr: seg.ptr, segOff: segOff, pos: pos, n: int(n)})
		pos += int(n)
		return nil
	}); err != nil {
		return err
	}
	read := func(s *segSpan) (err error) {
		s.img, err = m.readSegRange(s.ptr, s.segOff, buf[s.pos:s.pos+s.n])
		return err
	}
	var firstErr error
	if len(spans) == 1 {
		firstErr = read(&spans[0])
	} else {
		var (
			wg      sync.WaitGroup
			errOnce sync.Once
		)
		for i := range spans {
			m.readSem <- struct{}{}
			wg.Add(1)
			go func(s *segSpan) {
				defer func() {
					<-m.readSem
					wg.Done()
				}()
				if err := read(s); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}(&spans[i])
		}
		wg.Wait()
	}
	if firstErr != nil || keep == nil {
		return firstErr
	}
	for _, s := range spans {
		keep.runs = append(keep.runs, s.img)
	}
	return nil
}

// SegmentRangeAt reports the logical byte range [start, start+n) of the
// leaf segment containing byte off.  The sequential prefetcher uses it
// to size its readahead to exactly one segment, preserving the paper's
// one-request-per-segment transfer discipline.
func (o *Object) SegmentRangeAt(off int64) (start, n int64, err error) {
	if err := o.checkRange(off, 1); err != nil {
		return 0, 0, err
	}
	e, entryStart, _, err := o.findSegment(off)
	if err != nil {
		return 0, 0, err
	}
	return entryStart, e.bytes, nil
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
// EOS update that is logged rather than shadowed (§4.5).
func (o *Object) Replace(off int64, data []byte) error {
	if err := o.checkRange(off, int64(len(data))); err != nil {
		return err
	}
	o.bumpVersion()
	o.m.st.replaces.Add(1)
	o.replacedTo(off + int64(len(data)))
	pos := int64(0)
	return o.m.walkRange(o.root, off, int64(len(data)), func(seg entry, segOff, n int64) error {
		err := o.m.replaceInSegment(seg, segOff, data[pos:pos+n])
		pos += n
		return err
	})
}

// Extent is a physical location of object bytes: Len bytes starting Off
// bytes into volume page Page.
type Extent struct {
	Page disk.PageNum
	Off  int
	Len  int
}

// ReplacePlan is an in-place replace prepared but not yet written: the
// pre-image and physical extents the transaction layer logs, and the
// post-image of every page the replace touches.  PrepareReplace reads
// each touched page run once; Apply reads nothing, so the write can wait
// for the log force that covers the pre-image.  A plan stays correct only
// while nothing else reads, rewrites or moves the pages it covers — the
// caller applies it before any such operation.
type ReplacePlan struct {
	o       *Object
	old     []byte
	exts    []Extent
	runs    []planRun
	saved   int
	applied bool
	end     int64 // logical offset one past the last byte replaced
}

// planRun is one segment's share of a plan: whole-page images to be
// written from page start on, of which raw[in:in+n] are the new bytes.
type planRun struct {
	start disk.PageNum
	raw   []byte
	in, n int64
}

// PrepareReplace plans overwriting len(data) bytes at off with data: one
// tree walk, and per segment piece one read of the whole page run the
// piece touches (the non-transactional Replace reads only the boundary
// pages, but it needs no pre-image).  A piece whose page run have holds —
// have may be nil — is taken from there instead of the device; the plan
// then owns those images and writes into them, so have is spent.
func (o *Object) PrepareReplace(off int64, data []byte, have *PageImages) (*ReplacePlan, error) {
	if err := o.checkRange(off, int64(len(data))); err != nil {
		return nil, err
	}
	m := o.m
	ps := int64(m.vol.PageSize())
	p := &ReplacePlan{o: o, old: make([]byte, 0, len(data)), end: off + int64(len(data))}
	pos := int64(0)
	err := m.walkRange(o.root, off, int64(len(data)), func(seg entry, segOff, n int64) error {
		first, npages, in := disk.PageSpan(segOff, n, int(ps))
		run := planRun{start: seg.ptr + first, raw: have.take(seg.ptr+first, npages, int(ps)), in: in, n: n}
		if run.raw != nil {
			p.saved++
		} else {
			run.raw = make([]byte, npages*int(ps))
			if err := m.vol.ReadPages(run.start, npages, run.raw); err != nil {
				return err
			}
		}
		p.old = append(p.old, run.raw[in:in+n]...)
		copy(run.raw[in:], data[pos:pos+n])
		pos += n
		p.runs = append(p.runs, run)
		for page := run.start; n > 0; page++ {
			l := ps - in
			if l > n {
				l = n
			}
			p.exts = append(p.exts, Extent{Page: page, Off: int(in), Len: int(l)})
			in, n = 0, n-l
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Old returns the bytes the replace overwrites.
func (p *ReplacePlan) Old() []byte { return p.old }

// Extents returns the physical location of Old, page by page in logical
// order: what recovery needs to undo the write if its transaction loses.
func (p *ReplacePlan) Extents() []Extent { return p.exts }

// ReadsSaved is the number of segment pieces whose page run came from the
// images PrepareReplace was handed rather than from the device.
func (p *ReplacePlan) ReadsSaved() int { return p.saved }

// Applied reports whether Apply has started writing.
func (p *ReplacePlan) Applied() bool { return p.applied }

// Apply writes the planned page images home, one contiguous request per
// segment piece.  Like Replace it touches no index node.  It is for a
// caller that has kept every other writer off the object since
// PrepareReplace: the images include the bytes around the range in its
// first and last page as they were then.
func (p *ReplacePlan) Apply() error {
	m := p.begin()
	for _, run := range p.runs {
		if err := m.writeImage(run.start, run.raw); err != nil {
			return err
		}
	}
	return nil
}

// ApplyShared is Apply for a caller that owns only the replaced range
// (byte-range locking): another writer may since have changed the bytes
// around it in its boundary pages, so those pages are read again and only
// the new bytes laid over them.  The caller serializes the in-place
// writers of one object for the duration.
func (p *ReplacePlan) ApplyShared() error {
	m := p.begin()
	for _, run := range p.runs {
		if err := m.replaceInSegment(entry{ptr: run.start}, run.in, run.raw[run.in:run.in+run.n]); err != nil {
			return err
		}
	}
	return nil
}

// begin marks the plan applied and counts the replace.
func (p *ReplacePlan) begin() *Manager {
	p.applied = true
	p.o.bumpVersion()
	p.o.m.st.replaces.Add(1)
	p.o.replacedTo(p.end)
	return p.o.m
}

// replaceInSegment rewrites bytes [segOff, segOff+len(data)) of one
// segment: the bytes its first and last page keep are read — in one
// request unless the pages between them would cost more to transfer than
// a second reposition — the pages between are overwritten outright, and
// the whole affected page run is written back in a single contiguous
// request.
func (m *Manager) replaceInSegment(seg entry, segOff int64, data []byte) error {
	head, tail, first := disk.Around(seg.ptr, segOff, int64(len(data)), m.vol.PageSize())
	raw, err := m.gather(head, int64(len(data)), tail)
	if err != nil {
		return err
	}
	copy(raw[head.N:], data)
	return m.writeImage(seg.ptr+first, raw)
}
