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
func (o *Object) Insert(off int64, data []byte) error {
	sp, err := o.PrepareInsert(off, data)
	if err != nil || sp == nil {
		return err
	}
	return o.apply(sp)
}

// PrepareInsert is the prepare step of Insert (splice.go); nil when data is
// empty.  N is written through; the Splice replaces S with L, N and R.
func (o *Object) PrepareInsert(off int64, data []byte) (*Splice, error) {
	if off < 0 || off > o.size {
		return nil, fmt.Errorf("%w: insert at %d of %d", ErrOutOfBounds, off, o.size)
	}
	if len(data) == 0 {
		return nil, nil
	}
	o.m.st.inserts.Add(1)
	m := o.m
	ps := int64(m.vol.PageSize())
	maxSegBytes := int64(m.alloc.MaxSegmentPages()) * ps

	// Empty object: insertion is creation.
	if o.size == 0 {
		return o.newSegments(0, 0, int64(len(data)), m.pageImage(data, false), 0, Extent{}, Extent{})
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
	m.st.bytesReshuffled.Add(res.moveL + res.moveR)
	m.st.pagesReshuffled.Add((res.moveL + res.moveR) / ps)

	// Step 4: materialize N in one buffer — L's migrated tail, room for
	// the inserted bytes, the split page's suffix and R's migrated prefix.
	// The old bytes are physically contiguous in S, so one multi-page read
	// fetches them (the paper's "one or two pages" plus reshuffled pages,
	// with no extra seeks).  The image is only written: it is built in
	// scratch memory.
	tmp := m.getScratch()
	defer m.scratch.Put(tmp)
	img, next, err := m.gather(tmp,
		disk.ByteRange{Start: S.ptr, Off: rel - res.moveL, N: res.moveL}, int64(len(data)),
		disk.ByteRange{Start: S.ptr, Off: rel, N: pc - pb + res.moveR})
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
	return o.newSegments(segStart, segStart+sc, res.nc, img, next, l, r)
}

// newSegments allocates segments for the nc bytes of the whole-page image
// img and writes it across them, every segment but the last filling its
// pages, and returns the Splice that puts l, them and r in the place of
// [lo, hi); an l or r of no bytes is left out.  The first segment starts at
// page at, the page after the update's reads, when that page is not 0 and
// its run is free (Manager.allocRun): the write then follows the reads
// without a seek.
func (o *Object) newSegments(lo, hi, nc int64, img []byte, at disk.PageNum, l, r Extent) (*Splice, error) {
	m := o.m
	sp := m.newSplice(lo, hi)
	if l.Bytes > 0 {
		sp.Entries = append(sp.Entries, l)
	}
	if nc > 0 {
		segs, err := m.allocSegments(nc, at)
		if err != nil {
			return nil, err
		}
		ps := m.vol.PageSize()
		for _, se := range segs {
			sp.runs = append(sp.runs, PageRun{Start: se.ptr, Pages: pagesFor(se.bytes, ps)})
			sp.Entries = append(sp.Entries, Extent{Start: se.ptr, Bytes: se.bytes})
		}
		for _, run := range sp.runs {
			n := run.Pages * ps
			if err := m.writeImage(run.Start, img[:n]); err != nil {
				return nil, m.giveBack(sp.runs, err)
			}
			img = img[n:]
		}
		sp.wrote = true
	}
	if r.Bytes > 0 {
		sp.Entries = append(sp.Entries, r)
	}
	return sp, nil
}
