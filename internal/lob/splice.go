package lob

import (
	"fmt"

	"github.com/eosdb/eos/internal/disk"
)

// The splice primitive is the single structural tree edit shared by
// append, insert, and delete: replace the leaf entries covering the
// entry-aligned byte range [lo, hi) with a new entry list, freeing the
// pages of interior entries and entire interior subtrees (the paper's
// first delete phase — completed "without touching a single leaf
// segment"), then rebalance on the way back up.
//
// The two boundary segments may have had their pages partially kept by
// the caller (byte/page reshuffling); skipFirst/skipLast tell splice not
// to free them.

// spliceLeafRange applies the edit to the object and renormalizes the
// root (push-down on overflow, pull-up per the paper's delete step 6).
func (o *Object) spliceLeafRange(lo, hi int64, repl []entry, skipFirst, skipLast bool) error {
	if len(o.root.entries) == 0 {
		if lo != 0 || hi != 0 {
			return fmt.Errorf("%w: splice [%d,%d) on empty object", ErrOutOfBounds, lo, hi)
		}
		o.root.entries = append(o.root.entries, repl...)
	} else {
		if err := o.m.spliceTree(o.root, lo, hi, repl, skipFirst, skipLast); err != nil {
			return err
		}
	}
	if err := o.normalizeRoot(); err != nil {
		return err
	}
	o.size = o.root.size()
	return nil
}

// normalizeRoot restores the root size bounds: push entries down into new
// nodes when the root outgrows the descriptor budget, and pull a lone
// child's pairs up into the root ("Fix Root", §4.3.2 step 6).
func (o *Object) normalizeRoot() error {
	m := o.m
	max := maxFanout(m.vol.PageSize())
	for len(o.root.entries) > m.cfg.MaxRootEntries {
		if m.cfg.AdaptiveThreshold && o.root.level == 1 {
			if err := o.m.compactLeafNode(o.root, o.threshold); err != nil {
				return err
			}
			if len(o.root.entries) <= m.cfg.MaxRootEntries {
				break
			}
		}
		parts := splitEntries(o.root.entries, max)
		parents := make([]entry, 0, len(parts))
		for _, part := range parts {
			child := &node{level: o.root.level, entries: part}
			p, err := m.writeNode(0, child)
			if err != nil {
				return err
			}
			parents = append(parents, entry{bytes: child.size(), ptr: p})
		}
		o.root = &node{level: o.root.level + 1, entries: parents}
	}
	for o.root.level > 1 && len(o.root.entries) == 1 {
		child, err := m.readNode(o.root.entries[0].ptr)
		if err != nil {
			return err
		}
		if len(child.entries) > m.cfg.MaxRootEntries {
			break
		}
		if err := m.freeNodePage(o.root.entries[0].ptr); err != nil {
			return err
		}
		o.root = child
	}
	if len(o.root.entries) == 0 {
		o.root = &node{level: 1}
	}
	return nil
}

// spliceTree edits the subtree of the in-memory node nd.  [lo, hi) is
// relative to nd's subtree and must be aligned to leaf entry boundaries.
func (m *Manager) spliceTree(nd *node, lo, hi int64, repl []entry, skipFirst, skipLast bool) error {
	if lo > hi || lo < 0 || hi > nd.size() {
		return fmt.Errorf("%w: splice [%d,%d) in subtree of %d", ErrOutOfBounds, lo, hi, nd.size())
	}
	if nd.level == 1 {
		return m.spliceLeafNode(nd, lo, hi, repl, skipFirst, skipLast)
	}

	// Locate the children covering [lo, hi).  ci is the child containing
	// lo (or starting at it); cj the child containing hi-1.  For an empty
	// range, childIndex picks the insertion child.
	ci, ciStart := nd.childIndex(lo)
	cj, cjStart := ci, ciStart
	if hi > lo {
		cj, cjStart = nd.childIndex(hi - 1)
	}

	// Free strictly interior children without touching any leaf page.
	for k := ci + 1; k < cj; k++ {
		if err := m.freeSubtree(nd.entries[k], nd.level); err != nil {
			return err
		}
	}

	var newChildren []entry
	if ci == cj {
		res, err := m.spliceIntoChild(nd.entries[ci], nd.level-1, lo-ciStart, hi-ciStart, repl, skipFirst, skipLast)
		if err != nil {
			return err
		}
		newChildren = res
	} else {
		leftEnd := ciStart + nd.entries[ci].bytes
		left, err := m.spliceIntoChild(nd.entries[ci], nd.level-1, lo-ciStart, leftEnd-ciStart, repl, skipFirst, false)
		if err != nil {
			return err
		}
		right, err := m.spliceIntoChild(nd.entries[cj], nd.level-1, 0, hi-cjStart, nil, false, skipLast)
		if err != nil {
			return err
		}
		newChildren = append(left, right...)
	}
	nd.splice(ci, cj+1, newChildren)

	// Fix underflowing boundary children ("check if a node in one of the
	// two stacks has now less than the allowed number of pairs and if so,
	// merge or rotate with a sibling", §4.3.2 step 5).  Only children
	// that came back whole (not split) can be underfull; they are tracked
	// by page pointer because a first merge can shift entry positions or
	// absorb the second candidate entirely.
	var candidates []disk.PageNum
	if len(newChildren) >= 1 {
		candidates = append(candidates, newChildren[0].ptr)
	}
	if len(newChildren) >= 2 {
		candidates = append(candidates, newChildren[len(newChildren)-1].ptr)
	}
	for _, ptr := range candidates {
		idx := -1
		for k, e := range nd.entries {
			if e.ptr == ptr {
				idx = k
				break
			}
		}
		if idx < 0 {
			continue // absorbed by an earlier merge
		}
		if err := m.fixUnderflow(nd, idx); err != nil {
			return err
		}
	}
	return nil
}

// spliceIntoChild loads a child node, applies the splice, and writes it
// back — splitting it if it overflowed, dropping it if it emptied.  It
// returns the replacement entries for the parent.
func (m *Manager) spliceIntoChild(e entry, childLevel int, lo, hi int64, repl []entry, skipFirst, skipLast bool) ([]entry, error) {
	child, err := m.readNode(e.ptr)
	if err != nil {
		return nil, err
	}
	if child.level != childLevel {
		return nil, fmt.Errorf("%w: expected level %d, found %d", ErrCorruptNode, childLevel, child.level)
	}
	if err := m.spliceTree(child, lo, hi, repl, skipFirst, skipLast); err != nil {
		return nil, err
	}
	return m.writeBackChild(e.ptr, child)
}

// writeBackChild persists a modified child node: empty children free
// their page, oversized children split into balanced parts.
func (m *Manager) writeBackChild(old disk.PageNum, child *node) ([]entry, error) {
	if len(child.entries) == 0 {
		if err := m.freeNodePage(old); err != nil {
			return nil, err
		}
		return nil, nil
	}
	max := maxFanout(m.vol.PageSize())
	if len(child.entries) > max && child.level == 1 && m.cfg.AdaptiveThreshold {
		// [Bili91a]: a leaf parent about to split first coalesces its
		// adjacent unsafe segments into single larger segments.
		if err := m.compactLeafNode(child, m.cfg.Threshold); err != nil {
			return nil, err
		}
	}
	if len(child.entries) <= max {
		p, err := m.writeNode(old, child)
		if err != nil {
			return nil, err
		}
		return []entry{{bytes: child.size(), ptr: p}}, nil
	}
	parts := splitEntries(child.entries, max)
	out := make([]entry, 0, len(parts))
	for i, part := range parts {
		nd := &node{level: child.level, entries: part}
		pg := disk.PageNum(0)
		if i == 0 {
			pg = old
		}
		p, err := m.writeNode(pg, nd)
		if err != nil {
			return nil, err
		}
		out = append(out, entry{bytes: nd.size(), ptr: p})
	}
	m.st.nodeSplits.Add(int64(len(parts) - 1))
	return out, nil
}

// splitEntries partitions entries into the fewest balanced parts of at
// most max entries each, so every part is at least half full.
func splitEntries(entries []entry, max int) [][]entry {
	nParts := (len(entries) + max - 1) / max
	base := len(entries) / nParts
	extra := len(entries) % nParts
	parts := make([][]entry, 0, nParts)
	pos := 0
	for i := 0; i < nParts; i++ {
		n := base
		if i < extra {
			n++
		}
		parts = append(parts, entries[pos:pos+n])
		pos += n
	}
	return parts
}

// spliceLeafNode applies the edit at a level-1 node: every leaf entry
// intersecting [lo, hi) must be fully covered; interior ones are freed
// (unless skip-flagged as externally handled) and repl takes their place.
func (m *Manager) spliceLeafNode(nd *node, lo, hi int64, repl []entry, skipFirst, skipLast bool) error {
	var cum int64
	i := 0
	for ; i < len(nd.entries); i++ {
		if cum >= lo {
			break
		}
		next := cum + nd.entries[i].bytes
		if next > lo {
			return fmt.Errorf("%w: splice start %d not entry-aligned", ErrCorruptNode, lo)
		}
		cum = next
	}
	if cum != lo {
		return fmt.Errorf("%w: splice start %d beyond node end %d", ErrCorruptNode, lo, cum)
	}
	j := i
	first := true
	for cum < hi {
		if j >= len(nd.entries) {
			return fmt.Errorf("%w: splice end %d beyond node end %d", ErrCorruptNode, hi, cum)
		}
		e := nd.entries[j]
		cum += e.bytes
		if cum > hi {
			return fmt.Errorf("%w: splice end %d not entry-aligned", ErrCorruptNode, hi)
		}
		last := cum == hi
		if !(first && skipFirst) && !(last && skipLast) {
			if err := m.freeSegment(e.ptr, e.bytes); err != nil {
				return err
			}
		}
		first = false
		j++
	}
	nd.splice(i, j, repl)
	return nil
}

// fixUnderflow merges or redistributes the child at idx with an adjacent
// sibling if it has fallen below the occupancy floor.
func (m *Manager) fixUnderflow(nd *node, idx int) error {
	child, err := m.readNode(nd.entries[idx].ptr)
	if err != nil {
		return err
	}
	min := minFanout(m.vol.PageSize())
	if len(child.entries) >= min || len(nd.entries) < 2 {
		return nil
	}
	sibIdx := idx + 1
	if idx > 0 {
		sibIdx = idx - 1
	}
	sib, err := m.readNode(nd.entries[sibIdx].ptr)
	if err != nil {
		return err
	}
	li, ri := idx, sibIdx
	lnode, rnode := child, sib
	if sibIdx < idx {
		li, ri = sibIdx, idx
		lnode, rnode = sib, child
	}
	merged := &node{level: lnode.level, entries: nil}
	merged.entries = append(merged.entries, lnode.entries...)
	junction := len(merged.entries)
	merged.entries = append(merged.entries, rnode.entries...)

	// A one-child node can carry an underfull child that had no sibling
	// to merge with; the merge just gave it one.  Probe the junction
	// grandchildren (tracked by pointer — a fix can shift positions)
	// before deciding the final shape.
	if merged.level > 1 {
		var probes []disk.PageNum
		if junction > 0 {
			probes = append(probes, merged.entries[junction-1].ptr)
		}
		if junction < len(merged.entries) {
			probes = append(probes, merged.entries[junction].ptr)
		}
		for _, ptr := range probes {
			for k, e := range merged.entries {
				if e.ptr == ptr {
					if err := m.fixUnderflow(merged, k); err != nil {
						return err
					}
					break
				}
			}
		}
	}

	max := maxFanout(m.vol.PageSize())
	if len(merged.entries) <= max {
		// Merge into the left node, free the right page.
		p, err := m.writeNode(nd.entries[li].ptr, merged)
		if err != nil {
			return err
		}
		if err := m.freeNodePage(nd.entries[ri].ptr); err != nil {
			return err
		}
		nd.splice(li, ri+1, []entry{{bytes: merged.size(), ptr: p}})
		m.st.nodeMerges.Add(1)
		return nil
	}
	// Redistribute evenly (rotation).
	half := len(merged.entries) / 2
	ln := &node{level: merged.level, entries: merged.entries[:half]}
	rn := &node{level: merged.level, entries: merged.entries[half:]}
	lp, err := m.writeNode(nd.entries[li].ptr, ln)
	if err != nil {
		return err
	}
	rp, err := m.writeNode(nd.entries[ri].ptr, rn)
	if err != nil {
		return err
	}
	nd.entries[li] = entry{bytes: ln.size(), ptr: lp}
	nd.entries[ri] = entry{bytes: rn.size(), ptr: rp}
	return nil
}

// compactLeafNode implements the [Bili91a] pre-split compaction: scan the
// leaf-parent and, for every run of two or more logically adjacent
// segments each smaller than T pages, allocate one segment to hold the
// whole run.
func (m *Manager) compactLeafNode(nd *node, threshold int) error {
	if nd.level != 1 || threshold <= 1 {
		return nil
	}
	ps := m.vol.PageSize()
	maxSegBytes := int64(m.alloc.MaxSegmentPages()) * int64(ps)
	var out []entry
	i := 0
	for i < len(nd.entries) {
		// Grow a run of unsafe segments whose total fits one segment.
		j := i
		var runBytes int64
		for j < len(nd.entries) &&
			pagesFor(nd.entries[j].bytes, ps) < threshold &&
			runBytes+nd.entries[j].bytes <= maxSegBytes {
			runBytes += nd.entries[j].bytes
			j++
		}
		if j-i < 2 {
			out = append(out, nd.entries[i])
			i++
			continue
		}
		// Coalesce entries [i, j) into one fresh segment.
		buf := make([]byte, 0, runBytes)
		for k := i; k < j; k++ {
			part := make([]byte, nd.entries[k].bytes)
			if _, err := m.readSegRange(nd.entries[k].ptr, 0, part); err != nil {
				return err
			}
			buf = append(buf, part...)
		}
		segs, err := m.allocSegments(runBytes)
		if err != nil {
			// Out of space: keep the run unmerged.
			out = append(out, nd.entries[i:j]...)
			i = j
			continue
		}
		var off int64
		for _, se := range segs {
			if err := m.writeSegment(se.ptr, buf[off:off+se.bytes]); err != nil {
				return err
			}
			off += se.bytes
		}
		for k := i; k < j; k++ {
			if err := m.freeSegment(nd.entries[k].ptr, nd.entries[k].bytes); err != nil {
				return err
			}
		}
		out = append(out, segs...)
		m.st.leafCompactions.Add(1)
		m.st.segmentsCompacted.Add(int64(j - i))
		i = j
	}
	nd.entries = out
	return nil
}
