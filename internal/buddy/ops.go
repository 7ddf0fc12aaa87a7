package buddy

import "fmt"

// allocAny allocates n physically contiguous pages, 1 <= n <= 2^maxType.
// Following §3.2, it obtains a free block of 2^ceil(lg n) pages, carves
// allocated sub-segments from the binary representation of n left to
// right, and returns the free tail pieces — the binary representation of
// 2^t - n in reverse — to the free space.  The whole run [start, start+n)
// is physically contiguous; only the last page of the run may end up
// partially used by the client.
func (d dir) allocAny(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w: allocation of %d pages", ErrBadRequest, n)
	}
	t := ceilPow2Type(n)
	if t > d.maxType() {
		return 0, fmt.Errorf("%w: %d pages exceeds max segment %d", ErrBadRequest, n, 1<<d.maxType())
	}
	s, err := d.allocPow2(t)
	if err != nil {
		return 0, err
	}
	if n == 1<<t {
		return s, nil
	}
	// Re-encode the allocated prefix, then free the tail.  Prefix first,
	// so tail coalescing observes allocated buddies.
	for ps := alignedPieces(s, n, d.maxType()); ps.n > 0; {
		p := ps.next()
		d.markAlloc(p.start, p.typ)
	}
	for ps := alignedPieces(s+n, (1<<t)-n, d.maxType()); ps.n > 0; {
		p := ps.next()
		d.freePow2(p.start, p.typ)
	}
	return s, nil
}

// allocUpTo allocates up to n contiguous pages, returning the run start
// and the number of pages actually obtained (>= 1).  It degrades
// gracefully when the space is fragmented: if no free block can cover n,
// the largest free segment is taken whole.  Clients (the large object
// manager storing an object in a sequence of segments) call this in a
// loop.
func (d dir) allocUpTo(n int) (start, got int, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: allocation of %d pages", ErrBadRequest, n)
	}
	if max := 1 << d.maxType(); n > max {
		n = max
	}
	jmax := d.maxFreeType()
	if jmax < 0 {
		return 0, 0, ErrNoSpace
	}
	if ceilPow2Type(n) <= jmax {
		start, err = d.allocAny(n)
		return start, n, err
	}
	start, err = d.allocPow2(jmax)
	return start, 1 << jmax, err
}

// freeRange frees any sub-range [start, start+n) of previously allocated
// pages (§3.2: "a client may selectively free any portion of a previously
// allocated segment").  Allocated segments straddling the range boundary
// are re-encoded as the canonical aligned decomposition of their kept
// parts; the freed pages coalesce with free buddies iteratively.
func (d dir) freeRange(start, n int) error {
	if n <= 0 || start < 0 || start+n > d.capacity() {
		return fmt.Errorf("%w: free of pages [%d,%d) in capacity %d", ErrBadRequest, start, start+n, d.capacity())
	}
	// Verify the whole range is allocated and find the boundary segments.
	leftStart := -1
	rightEnd := -1
	for p := start; p < start+n; {
		s0, t0, alloc, err := d.segContaining(p)
		if err != nil {
			return err
		}
		if !alloc {
			return fmt.Errorf("%w: page %d", ErrDoubleFree, p)
		}
		if leftStart == -1 {
			leftStart = s0
		}
		rightEnd = s0 + (1 << t0)
		p = rightEnd
	}
	// Re-encode kept parts before freeing so coalescing sees them as
	// allocated.
	if leftStart < start {
		for ps := alignedPieces(leftStart, start-leftStart, d.maxType()); ps.n > 0; {
			p := ps.next()
			d.markAlloc(p.start, p.typ)
		}
	}
	if rightEnd > start+n {
		for ps := alignedPieces(start+n, rightEnd-(start+n), d.maxType()); ps.n > 0; {
			p := ps.next()
			d.markAlloc(p.start, p.typ)
		}
	}
	for ps := alignedPieces(start, n, d.maxType()); ps.n > 0; {
		p := ps.next()
		d.freePow2(p.start, p.typ)
	}
	return nil
}

// reserveRange allocates the exact page range [start, start+n), which
// must currently be free.  Used by recovery and fsck to rebuild the
// allocation state from the set of reachable pages.  The whole range is
// checked before anything changes, so a reservation that fails leaves the
// directory as it found it.
func (d dir) reserveRange(start, n int) error {
	if n <= 0 || start < 0 || start+n > d.capacity() {
		return fmt.Errorf("%w: reserve of pages [%d,%d) in capacity %d", ErrBadRequest, start, start+n, d.capacity())
	}
	if p, err := d.firstAllocated(start, n); err != nil {
		return err
	} else if p >= 0 {
		return fmt.Errorf("%w: page %d already allocated", ErrBadRequest, p)
	}
	return d.claim(start, n)
}

// firstAllocated returns the first allocated page of [start, start+n), or
// -1 when every page of it is free.
func (d dir) firstAllocated(start, n int) (int, error) {
	for p := start; p < start+n; {
		s0, t0, alloc, err := d.segContaining(p)
		if err != nil {
			return 0, err
		}
		if alloc {
			return p, nil
		}
		p = s0 + (1 << t0)
	}
	return -1, nil
}

// claim allocates the free page range [start, start+n): every free segment
// overlapping it is flipped to allocated, then the surplus around the
// range is returned through freeRange, restoring canonical form.
func (d dir) claim(start, n int) error {
	lo, hi := -1, -1
	for p := start; p < start+n; p = hi {
		s0, t0, _, err := d.segContaining(p)
		if err != nil {
			return err
		}
		if lo == -1 {
			lo = s0
		}
		hi = s0 + (1 << t0)
		d.decCount(t0)
		d.markAlloc(s0, t0)
	}
	if lo < start {
		if err := d.freeRange(lo, start-lo); err != nil {
			return err
		}
	}
	if hi > start+n {
		if err := d.freeRange(start+n, hi-(start+n)); err != nil {
			return err
		}
	}
	return nil
}

// checkInvariants validates the directory against the canonical buddy
// invariants; used by tests and the fsck path of eosctl.  It verifies
// that (1) the amap parses into a partition of [0, capacity), (2) the
// count array matches the free segments present, and (3) no free segment
// has an equal-size free buddy (everything coalesced).
func (d dir) checkInvariants() error {
	counts := make([]int, d.maxType()+1)
	type seg struct {
		start, typ int
		alloc      bool
	}
	var segs []seg
	for p := 0; p < d.capacity(); {
		typ, alloc, err := d.segStartingAt(p)
		if err != nil {
			return err
		}
		if p%(1<<typ) != 0 {
			return fmt.Errorf("%w: segment at %d of size %d misaligned", ErrCorrupt, p, 1<<typ)
		}
		if p+(1<<typ) > d.capacity() {
			return fmt.Errorf("%w: segment at %d of size %d exceeds capacity", ErrCorrupt, p, 1<<typ)
		}
		if !alloc {
			counts[typ]++
		}
		segs = append(segs, seg{p, typ, alloc})
		p += 1 << typ
	}
	for t := 0; t <= d.maxType(); t++ {
		if counts[t] != d.count(t) {
			return fmt.Errorf("%w: count[%d]=%d but %d free segments found", ErrCorrupt, t, d.count(t), counts[t])
		}
	}
	free := make(map[int]int) // start -> typ
	for _, s := range segs {
		if !s.alloc {
			free[s.start] = s.typ
		}
	}
	for start, typ := range free {
		if typ == d.maxType() {
			continue // cannot merge beyond the maximum segment type
		}
		buddy := start ^ (1 << typ)
		if bt, ok := free[buddy]; ok && bt == typ && buddy+(1<<typ) <= d.capacity() {
			return fmt.Errorf("%w: free buddies %d and %d of size %d not coalesced", ErrCorrupt, start, buddy, 1<<typ)
		}
	}
	return nil
}
