package lob

import (
	"fmt"

	"github.com/eosdb/eos/internal/disk"
)

// Insert inserts data into the object starting at byte off (§4.3.1).
//
// Conceptually the insertion splits the target segment S into a left
// segment L (bytes of S left of the insertion point, kept in place), a
// brand-new segment N (the inserted bytes followed by the tail of the
// split page), and a right segment R (the pages of S after the split
// page, kept in place).  Byte and page reshuffling (steps 3 / §4.4) may
// migrate bytes from L's tail and R's head into N; existing pages are
// never overwritten — migrated bytes are copied into N and their source
// pages freed.
//
// N is written right after the pages the update read when those are free
// (the write then costs no seek), and waits in the write-behind set
// otherwise (newSegments).
func (o *Object) Insert(off int64, data []byte) error {
	sp, err := o.prepareInsert(off, data, true)
	if err != nil || sp == nil {
		return err
	}
	return o.apply(sp)
}

// PrepareInsert is the prepare step of Insert (splice.go); nil when data is
// empty.  N is written through — a transaction's record names it by
// reference —; the Splice replaces S with L, N and R.
func (o *Object) PrepareInsert(off int64, data []byte) (*Splice, error) {
	return o.prepareInsert(off, data, false)
}

// prepareInsert is PrepareInsert, whose N may wait in the write-behind set
// when fit is set (newSegments).
func (o *Object) prepareInsert(off int64, data []byte, fit bool) (*Splice, error) {
	if off < 0 || off > o.size {
		return nil, fmt.Errorf("%w: insert at %d of %d", ErrOutOfBounds, off, o.size)
	}
	if len(data) == 0 {
		return nil, nil
	}
	o.m.st.inserts.Add(1)
	o.adapt()
	m := o.m
	ps := int64(m.vol.PageSize())
	maxSegBytes := int64(m.alloc.MaxSegmentPages()) * ps

	// Empty object: insertion is creation.
	if o.size == 0 {
		mem := m.newSegMem(int64(len(data)), pagesFor(int64(len(data)), int(ps))*int(ps), fit)
		defer m.dropSegMem(&mem)
		return o.newSegments(0, 0, int64(len(data)), m.pageImage(data, false), 0, Extent{}, Extent{}, &mem)
	}

	// Step 1-2: locate S and compute the split geometry.
	S, segStart, err := o.findSegment(off)
	if err != nil {
		return nil, err
	}
	if err := o.trimTail(S); err != nil {
		return nil, err
	}
	rel := off - segStart
	sc := S.bytes
	pagesS := pagesFor(sc, int(ps))
	p := rel / ps
	if p >= int64(pagesS) {
		p = int64(pagesS) - 1 // insertion at segment end on a page boundary
	}
	pb := rel - p*ps
	pc := ps
	if p == int64(pagesS)-1 {
		pc = sc - p*ps
	}
	lc := rel
	var rc int64
	if p < int64(pagesS)-1 {
		rc = sc - (p+1)*ps
	}
	ncBase := int64(len(data)) + (pc - pb)

	// Step 3: reshuffle.
	res := reshuffle(lc, ncBase, rc, o.threshold, int(ps), maxSegBytes)
	o.countReshuffle(res, ps)

	// Step 4: materialize N in one buffer — L's migrated tail, room for
	// the inserted bytes, the split page's suffix and R's migrated prefix.
	// The old bytes are physically contiguous in S, so one multi-page read
	// fetches them (the paper's "one or two pages" plus reshuffled pages,
	// with no extra seeks).  The image is built in scratch memory, or in
	// the write-behind set's when it may wait there (newSegMem).
	a := disk.ByteRange{Start: S.ptr, Off: rel - res.moveL, N: res.moveL}
	b := disk.ByteRange{Start: S.ptr, Off: rel, N: pc - pb + res.moveR}
	mem := m.newSegMem(res.nc, disk.GatherLen(int(ps), a, int64(len(data)), b), fit)
	defer m.dropSegMem(&mem)
	img, next, err := m.gather(mem.buf(), a, int64(len(data)), b, nil)
	if err != nil {
		return nil, err
	}
	if n := res.moveL + int64(len(data)) + pc - pb + res.moveR; n != res.nc {
		return nil, fmt.Errorf("lob: internal error: N has %d bytes, expected %d", n, res.nc)
	}
	copy(img[res.moveL:], data)

	// Step 5: fix the parents — L keeps S's first pages, R its last ones;
	// Apply frees the pages of S between them.
	l := Extent{Start: S.ptr, Bytes: res.lc}
	var r Extent
	if res.rc > 0 {
		if res.moveR%ps != 0 {
			return nil, fmt.Errorf("lob: internal error: partial-page move from surviving R")
		}
		r = Extent{Start: S.ptr + disk.PageNum(int(p)+1+int(res.moveR/ps)), Bytes: res.rc}
	}
	return o.newSegments(segStart, segStart+sc, res.nc, img, next, l, r, &mem)
}

// newSegments allocates segments for the nc bytes of the whole-page image
// img and writes it across them, every segment but the last filling its
// pages, and returns the Splice that puts l, them and r in the place of
// [lo, hi); an l or r of no bytes is left out.  The first segment starts at
// page at, the page after the update's reads, when that page is not 0 and
// its run is free (Manager.allocRun): the write then follows the reads
// without a seek.
//
// When mem says the image may wait in the write-behind set (newSegMem),
// segments not placed so are not written: their pages wait in the set,
// allocated at its next-fit point when that run is free
// (Manager.allocSegments), so that the new segments of consecutive updates
// are one run of pages, which the set writes in one request.  The image
// waits in mem's room in the set's fill memory (Pending.keep).
func (o *Object) newSegments(lo, hi, nc int64, img []byte, at disk.PageNum, l, r Extent, mem *segMem) (*Splice, error) {
	m := o.m
	sp := m.newSplice(lo, hi)
	if l.Bytes > 0 {
		sp.Entries = append(sp.Entries, l)
	}
	if nc > 0 {
		ps := m.vol.PageSize()
		segs, waits, err := m.allocSegments(nc, at, mem.fit)
		if err != nil {
			return nil, err
		}
		for _, se := range segs {
			sp.runs = append(sp.runs, PageRun{Start: se.ptr, Pages: pagesFor(se.bytes, ps)})
			sp.Entries = append(sp.Entries, Extent{Start: se.ptr, Bytes: se.bytes})
		}
		if waits {
			img, sp.fill = m.cfg.Pending.keep(mem.room, img, sp.runs)
			mem.kept = true
		}
		for _, run := range sp.runs {
			n := run.Pages * ps
			if waits {
				sp.pend = append(sp.pend, pageImage{start: run.Start, raw: img[:n:n]})
			} else if err := m.writeImage(run.Start, img[:n]); err != nil {
				return nil, m.giveBack(sp.runs, err)
			}
			img = img[n:]
		}
		sp.wrote = !waits
	}
	if r.Bytes > 0 {
		sp.Entries = append(sp.Entries, r)
	}
	return sp, nil
}

// segMem is the memory an insert's or a delete's new segment N is built in
// (newSegMem).
type segMem struct {
	fit     bool     // N may wait in the write-behind set
	room    fillRoom // N's room in the set's fill memory, when it may
	into    []byte   // the room's memory, which gather builds N in
	scratch *[]byte  // the manager's scratch, which gather builds N in when the room is too small
	kept    bool     // N waits with its image in the room (newSegments)
}

// newSegMem returns the memory to build an nc-byte N in, which takes size
// bytes (disk.GatherLen).  With fit, on a manager with a write-behind set
// whose limit N's pages stay under, N may wait in the set (newSegments), and
// gets room in the set's fill memory (Pending.Hold), where a waiting N's
// image stays: it is built there when the room holds size bytes, and
// copied there from the manager's scratch otherwise.  dropSegMem hands the
// memory back.
func (m *Manager) newSegMem(nc int64, size int, fit bool) segMem {
	ps, limit := m.vol.PageSize(), 0
	if m.cfg.Pending != nil {
		limit = m.cfg.Pending.limit
	}
	s := segMem{fit: fit && pagesFor(nc, ps) < limit}
	if s.fit {
		s.room = m.cfg.Pending.Hold(pagesFor(nc, ps) * ps)
		s.into = s.room.mem
	}
	if len(s.into) < size {
		s.scratch = m.getScratch()
	}
	return s
}

// buf returns the memory gather is to build N in.
func (s *segMem) buf() *[]byte {
	if s.scratch != nil {
		return s.scratch
	}
	return &s.into
}

// dropSegMem hands back what newSegMem returned: the scratch, and the room
// unless N waits with its image in it.  The update has read by now: the fill
// memory its room's Hold found full is written (Pending.writeFull).
func (m *Manager) dropSegMem(s *segMem) {
	if s.scratch != nil {
		m.scratch.Put(s.scratch)
	}
	if !s.kept {
		m.cfg.Pending.unhold(s.room)
	}
	m.cfg.Pending.writeFull(s.room)
}
