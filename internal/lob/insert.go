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
	if off < 0 || off > o.size {
		return fmt.Errorf("%w: insert at %d of %d", ErrOutOfBounds, off, o.size)
	}
	if len(data) == 0 {
		return nil
	}
	o.bumpVersion()
	o.m.st.inserts.Add(1)
	m := o.m
	ps := int64(m.vol.PageSize())
	maxSegBytes := int64(m.alloc.MaxSegmentPages()) * ps

	// Empty object: insertion is creation.
	if o.size == 0 {
		segs, err := m.allocSegments(int64(len(data)))
		if err != nil {
			return err
		}
		if err := o.writeNewSegments(segs, m.pageImage(data)); err != nil {
			return err
		}
		return o.spliceLeafRange(0, 0, segs, false, false)
	}

	// Step 1-2: locate S and compute the split geometry.
	S, segStart, parentN, err := o.findSegment(off)
	if err != nil {
		return err
	}
	if err := o.trimTail(S); err != nil {
		return err
	}
	t := o.effectiveThreshold(parentN)
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
	res := reshuffle(lc, ncBase, rc, t, int(ps), maxSegBytes)
	m.st.bytesReshuffled.Add(res.moveL + res.moveR)
	m.st.pagesReshuffled.Add((res.moveL + res.moveR) / ps)

	// Step 4: materialize N in one buffer — L's migrated tail, room for
	// the inserted bytes, the split page's suffix and R's migrated prefix.
	// The old bytes are physically contiguous in S, so one multi-page read
	// fetches them (the paper's "one or two pages" plus reshuffled pages,
	// with no extra seeks).
	img, err := m.gather(
		disk.ByteRange{Start: S.ptr, Off: rel - res.moveL, N: res.moveL}, int64(len(data)),
		disk.ByteRange{Start: S.ptr, Off: rel, N: pc - pb + res.moveR})
	if err != nil {
		return err
	}
	if n := res.moveL + int64(len(data)) + pc - pb + res.moveR; n != res.nc {
		return fmt.Errorf("lob: internal error: N has %d bytes, expected %d", n, res.nc)
	}
	copy(img[res.moveL:], data)
	newSegs, err := m.allocSegments(res.nc)
	if err != nil {
		return err
	}
	if err := o.writeNewSegments(newSegs, img); err != nil {
		return err
	}

	// Free the pages of S that neither L nor R keeps.
	keepL := pagesFor(res.lc, int(ps))
	rKeep := pagesS
	if res.rc > 0 {
		if res.moveR%ps != 0 {
			return fmt.Errorf("lob: internal error: partial-page move from surviving R")
		}
		rKeep = int(p) + 1 + int(res.moveR/ps)
	}
	if keepL < rKeep {
		if err := m.alloc.Free(S.ptr+disk.PageNum(keepL), rKeep-keepL); err != nil {
			return err
		}
	}

	// Step 5: fix the parents.
	repl := make([]entry, 0, len(newSegs)+2)
	if res.lc > 0 {
		repl = append(repl, entry{bytes: res.lc, ptr: S.ptr})
	}
	repl = append(repl, newSegs...)
	if res.rc > 0 {
		repl = append(repl, entry{bytes: res.rc, ptr: S.ptr + disk.PageNum(rKeep)})
	}
	return o.spliceLeafRange(segStart, segStart+sc, repl, true, true)
}

// writeNewSegments distributes the whole-page image img across freshly
// allocated segments; every segment but the last fills its pages.
func (o *Object) writeNewSegments(segs []entry, img []byte) error {
	ps := o.m.vol.PageSize()
	for _, se := range segs {
		n := pagesFor(se.bytes, ps) * ps
		if err := o.m.writeImage(se.ptr, img[:n]); err != nil {
			return err
		}
		img = img[n:]
	}
	return nil
}
