package lob

// Reshuffling decides how many bytes migrate from the tail of the left
// segment L and the head of the right segment R into the new segment N
// during an insert or delete.  Byte reshuffling (§4.3.1 step 3) fights
// per-page waste; page reshuffling (§4.4) enforces the segment size
// threshold T so that updates do not erode physical clustering.
//
// Moves are expressed as byte counts: moveL is a suffix of L's bytes
// placed at the head of N, moveR a prefix of R's bytes placed at N's
// tail.  Existing segments are never overwritten — the moved bytes are
// copied into the freshly allocated N and their source pages freed.

// reshuffleResult carries the outcome of the reshuffle decision.
type reshuffleResult struct {
	moveL int64 // bytes moved from L's tail to N's head
	moveR int64 // bytes moved from R's head to N's tail
	// Derived final byte counts.
	lc, nc, rc int64
}

// countReshuffle counts the bytes and the whole pages res moves, in the
// manager's counters and in the object's window (policy.go).
func (o *Object) countReshuffle(res reshuffleResult, ps int64) {
	pages := (res.moveL + res.moveR) / ps
	o.m.st.bytesReshuffled.Add(res.moveL + res.moveR)
	o.m.st.pagesReshuffled.Add(pages)
	o.moved += pages
}

// lastPageBytes returns the number of bytes in the final page of a
// segment holding c bytes, or 0 for an empty segment.
func lastPageBytes(c int64, ps int) int64 {
	if c == 0 {
		return 0
	}
	if r := c % int64(ps); r != 0 {
		return r
	}
	return int64(ps)
}

// reshuffle applies §4.4's page reshuffling followed by §4.3's byte
// reshuffling for segments of lc, nc, rc bytes under threshold t (pages).
// rPages is the page count of R (byte reshuffling from R requires exactly
// one page); maxSegBytes caps merges.
func reshuffle(lc, nc, rc int64, t, ps int, maxSegBytes int64) reshuffleResult {
	res := reshuffleResult{lc: lc, nc: nc, rc: rc}
	if nc <= 0 {
		return res
	}
	unsafe := func(c int64) bool {
		return c > 0 && pagesFor(c, ps) < t
	}

	if t > 1 {
		for iter := 0; iter < 1024; iter++ {
			// Step 3.1: exit to byte reshuffling when all segments are
			// safe, when N has no neighbours, or when the smallest unsafe
			// neighbour cannot merge into N within the maximum segment.
			if !unsafe(res.lc) && !unsafe(res.nc) && !unsafe(res.rc) {
				break
			}
			if res.lc == 0 && res.rc == 0 {
				break
			}
			if unsafe(res.lc) || unsafe(res.rc) {
				smallest := int64(-1)
				if unsafe(res.lc) {
					smallest = res.lc
				}
				if unsafe(res.rc) && (smallest < 0 || res.rc < smallest) {
					smallest = res.rc
				}
				if smallest+res.nc > maxSegBytes {
					break
				}
				// Step 3.2: merge the smaller unsafe neighbour into N
				// entirely, regardless of N's size.
				if unsafe(res.lc) && (!unsafe(res.rc) || res.lc <= res.rc) {
					res.moveL += res.lc
					res.nc += res.lc
					res.lc = 0
				} else {
					res.moveR += res.rc
					res.nc += res.rc
					res.rc = 0
				}
				continue
			}
			// Step 3.3: N is unsafe while L and R are safe; take pages
			// from the smaller nonzero neighbour until N becomes safe.
			src := byte('L')
			if res.lc == 0 || (res.rc > 0 && res.rc < res.lc) {
				src = 'R'
			}
			moved := false
			for unsafe(res.nc) {
				if src == 'L' && res.lc > 0 {
					chunk := lastPageBytes(res.lc, ps)
					res.moveL += chunk
					res.nc += chunk
					res.lc -= chunk
					moved = true
				} else if src == 'R' && res.rc > 0 {
					chunk := int64(ps)
					if res.rc < chunk {
						chunk = res.rc // R's only (partial) page
					}
					res.moveR += chunk
					res.nc += chunk
					res.rc -= chunk
					moved = true
				} else {
					break
				}
			}
			if !moved {
				break
			}
		}
	}

	byteReshuffle(&res, ps)
	return res
}

// byteReshuffle implements §4.3.1 step 3: if the last page of N has free
// space, try to absorb L's partial last page (eliminating it), absorb a
// single-page R entirely, or failing either, balance free space between
// the last pages of L and N.
func byteReshuffle(res *reshuffleResult, ps int) {
	nm := lastPageBytes(res.nc, ps)
	if res.nc == 0 || nm == int64(ps) {
		return
	}
	lm := lastPageBytes(res.lc, ps)
	rSingle := res.rc > 0 && pagesFor(res.rc, ps) == 1

	candL := res.lc > 0 && lm+nm <= int64(ps)
	candR := rSingle && res.rc+nm <= int64(ps)

	switch {
	case candL && candR && lm+res.rc+nm <= int64(ps):
		// Both groups fit in N's last page: move both.
		res.moveL += lm
		res.nc += lm
		res.lc -= lm
		res.moveR += res.rc
		res.nc += res.rc
		res.rc = 0
	case candL && candR:
		// Take the group from the segment with the largest free space.
		if int64(ps)-lm >= int64(ps)-res.rc {
			res.moveL += lm
			res.nc += lm
			res.lc -= lm
		} else {
			res.moveR += res.rc
			res.nc += res.rc
			res.rc = 0
		}
	case candL:
		res.moveL += lm
		res.nc += lm
		res.lc -= lm
	case candR:
		res.moveR += res.rc
		res.nc += res.rc
		res.rc = 0
	}

	// Balance: if L's last page still has free space, borrow bytes so the
	// last pages of L and N carry similar amounts of free space.
	lm = lastPageBytes(res.lc, ps)
	nm = lastPageBytes(res.nc, ps)
	if res.lc > 0 && lm < int64(ps) && nm < int64(ps) && lm > nm {
		x := (lm - nm) / 2
		if room := int64(ps) - nm; x > room {
			x = room
		}
		if x > 0 {
			res.moveL += x
			res.nc += x
			res.lc -= x
		}
	}
}
