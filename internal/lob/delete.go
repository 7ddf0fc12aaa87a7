package lob

import (
	"fmt"

	"github.com/eosdb/eos/internal/disk"
)

// Delete removes n bytes starting at byte off (§4.3.2).
//
// Entire subtrees inside the range are deleted first, without touching a
// single leaf segment — the address and size of each segment live in its
// parent index node and go straight to the buddy system.  At the
// boundaries, the left segment keeps its prefix in place; the right
// segment's split page is copied into a fresh segment N (segments cannot
// have holes) and its tail pages survive in place as R.  As in insert,
// reshuffling may migrate bytes into N, and — unlike B-trees or EXODUS —
// a partial segment delete may create new entries for the parents.
func (o *Object) Delete(off, n int64) error {
	if err := o.checkRange(off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	o.bumpVersion()
	o.m.st.deletes.Add(1)
	m := o.m
	ps := int64(m.vol.PageSize())
	maxSegBytes := int64(m.alloc.MaxSegmentPages()) * ps
	lo, hi := off, off+n

	// Step 1: locate the boundary segments.
	sl, startL, parentN, err := o.findSegment(lo)
	if err != nil {
		return err
	}
	sr, startR, _, err := o.findSegment(hi - 1)
	if err != nil {
		return err
	}
	if err := o.trimTail(sr); err != nil {
		return err
	}
	same := startL == startR
	t := o.effectiveThreshold(parentN)

	// Step 2: geometry.  L keeps S's bytes left of the first deleted
	// byte; within S', page Q holds the last deleted byte, N receives
	// Q's surviving suffix, R is S''s pages right of Q.
	lc := lo - startL
	relR := hi - startR
	scr := sr.bytes
	pagesSR := pagesFor(scr, int(ps))
	q := (relR - 1) / ps
	qb := (relR - 1) - q*ps
	qc := ps
	if q == int64(pagesSR)-1 {
		qc = scr - q*ps
	}
	nc := qc - (qb + 1)
	var rc int64
	if q < int64(pagesSR)-1 {
		rc = scr - (q+1)*ps
	}

	// Step 3: reshuffle — skipped when Nc = 0 ("go to step 5").
	var res reshuffleResult
	if nc == 0 {
		res = reshuffleResult{lc: lc, rc: rc}
	} else {
		res = reshuffle(lc, nc, rc, t, int(ps), maxSegBytes)
		m.st.bytesReshuffled.Add(res.moveL + res.moveR)
		m.st.pagesReshuffled.Add((res.moveL + res.moveR) / ps)
	}

	// Step 4: materialize N from L's migrated tail (in S) and Q's suffix
	// plus R's migrated prefix (contiguous, in S').  When S = S' and the
	// deleted pages between the two cost less to transfer than a
	// reposition, one request fetches both; otherwise each is one read.
	var newSegs []entry
	if res.nc > 0 {
		tail := qc - (qb + 1) + res.moveR
		img, err := m.gather(
			disk.ByteRange{Start: sl.ptr, Off: lc - res.moveL, N: res.moveL}, 0,
			disk.ByteRange{Start: sr.ptr, Off: q*ps + qb + 1, N: tail})
		if err != nil {
			return err
		}
		if res.moveL+tail != res.nc {
			return fmt.Errorf("lob: internal error: N has %d bytes, expected %d", res.moveL+tail, res.nc)
		}
		newSegs, err = m.allocSegments(res.nc)
		if err != nil {
			return err
		}
		if err := o.writeNewSegments(newSegs, img); err != nil {
			return err
		}
	}
	if res.rc > 0 && res.moveR%ps != 0 {
		return fmt.Errorf("lob: internal error: partial-page move from surviving R")
	}

	// Free boundary pages and build the replacement entries.
	keepL := pagesFor(res.lc, int(ps))
	rKeep := pagesSR
	if res.rc > 0 {
		rKeep = int(q) + 1 + int(res.moveR/ps)
	}
	var repl []entry
	if res.lc > 0 {
		repl = append(repl, entry{bytes: res.lc, ptr: sl.ptr})
	}
	repl = append(repl, newSegs...)
	if res.rc > 0 {
		repl = append(repl, entry{bytes: res.rc, ptr: sr.ptr + disk.PageNum(rKeep)})
	}

	if same {
		kept := res.lc > 0 || res.nc > 0 || res.rc > 0
		if kept {
			if keepL < rKeep {
				if err := m.alloc.Free(sl.ptr+disk.PageNum(keepL), rKeep-keepL); err != nil {
					return err
				}
			}
		}
		return o.spliceLeafRange(startL, startL+sl.bytes, repl, kept, kept)
	}

	// Distinct boundary segments: free S's tail if L survives (else the
	// splice frees S whole), and S''s head if R or N keeps part of S'.
	skipFirst := res.lc > 0
	if skipFirst {
		pagesSL := pagesFor(sl.bytes, int(ps))
		if keepL < pagesSL {
			if err := m.alloc.Free(sl.ptr+disk.PageNum(keepL), pagesSL-keepL); err != nil {
				return err
			}
		}
	}
	skipLast := res.rc > 0
	if skipLast {
		if err := m.alloc.Free(sr.ptr, rKeep); err != nil {
			return err
		}
	}
	return o.spliceLeafRange(startL, startR+scr, repl, skipFirst, skipLast)
}

// Truncate shortens the object to newSize bytes.  Truncation to zero is
// equivalent to deleting the whole content; like all deletions ending on
// the object's last byte, it completes without reading any data page.
func (o *Object) Truncate(newSize int64) error {
	if newSize < 0 || newSize > o.size {
		return fmt.Errorf("%w: truncate to %d of %d", ErrOutOfBounds, newSize, o.size)
	}
	if newSize == o.size {
		return nil
	}
	return o.Delete(newSize, o.size-newSize)
}
