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
//
// N is written right after the pages the update read when those are free,
// and waits in the write-behind set otherwise, as an insert's (newSegments).
func (o *Object) Delete(off, n int64) error {
	sp, err := o.prepareDelete(off, n, true)
	if err != nil || sp == nil {
		return err
	}
	return o.apply(sp)
}

// PrepareDelete is the prepare step of Delete (splice.go); nil when n is 0.
// N is written through — a transaction's record names it by reference —;
// the Splice replaces the segments from S to S' with L, N and R.
func (o *Object) PrepareDelete(off, n int64) (*Splice, error) {
	return o.prepareDelete(off, n, false)
}

// prepareDelete is PrepareDelete, whose N may wait in the write-behind set
// when fit is set (newSegments).
func (o *Object) prepareDelete(off, n int64, fit bool) (*Splice, error) {
	if err := o.checkRange(off, n); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	o.m.st.deletes.Add(1)
	o.adapt()
	m := o.m
	ps := int64(m.vol.PageSize())
	maxSegBytes := int64(m.alloc.MaxSegmentPages()) * ps
	lo, hi := off, off+n

	// Step 1: locate the boundary segments.
	sl, startL, err := o.findSegment(lo)
	if err != nil {
		return nil, err
	}
	sr, startR, err := o.findSegment(hi - 1)
	if err != nil {
		return nil, err
	}
	if err := o.trimTail(sr); err != nil {
		return nil, err
	}

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
		res = reshuffle(lc, nc, rc, o.threshold, int(ps), maxSegBytes)
		o.countReshuffle(res, ps)
	}

	// Step 4: materialize N from L's migrated tail (in S) and Q's suffix
	// plus R's migrated prefix (contiguous, in S').  When S = S' and the
	// deleted pages between the two cost less to transfer than a
	// reposition, one request fetches both; otherwise each is one read.
	// The image is built in scratch memory, or in the write-behind set's
	// when it may wait there (newSegMem).
	var img []byte
	var next disk.PageNum
	var mem segMem
	if res.nc > 0 {
		tail := qc - (qb + 1) + res.moveR
		a := disk.ByteRange{Start: sl.ptr, Off: lc - res.moveL, N: res.moveL}
		b := disk.ByteRange{Start: sr.ptr, Off: q*ps + qb + 1, N: tail}
		mem = m.newSegMem(res.nc, disk.GatherLen(int(ps), a, 0, b), fit)
		defer m.dropSegMem(&mem)
		var sk *seeks // a's and b's requests, when they are in two segments
		if sl.ptr != sr.ptr {
			s := m.seeking(&o.split)
			sk = &s
		}
		img, next, err = m.gather(mem.buf(), a, 0, b, sk)
		if err != nil {
			return nil, err
		}
		if res.moveL+tail != res.nc {
			return nil, fmt.Errorf("lob: internal error: N has %d bytes, expected %d", res.moveL+tail, res.nc)
		}
	}

	// The replacement entries: L keeps S's first pages, R the last pages of
	// S'; Apply frees what lies between.
	l := Extent{Start: sl.ptr, Bytes: res.lc}
	var r Extent
	if res.rc > 0 {
		if res.moveR%ps != 0 {
			return nil, fmt.Errorf("lob: internal error: partial-page move from surviving R")
		}
		r = Extent{Start: sr.ptr + disk.PageNum(int(q)+1+int(res.moveR/ps)), Bytes: res.rc}
	}
	return o.newSegments(startL, startR+scr, res.nc, img, next, l, r, &mem)
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
