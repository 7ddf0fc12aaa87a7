package lob

import (
	"cmp"
	"fmt"
	"slices"

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
//
// Each of the three runs in two steps, so that a transaction can log
// between them (§4.5: "the other three shadow"):
//
//  1. Prepare (PrepareAppend, PrepareInsert, PrepareDelete) gathers the old
//     bytes it moves, allocates the new segments and writes them through.
//     No root names those pages yet, so it may run before anything is
//     logged; nothing a root names changes, except that an open tail the
//     update cuts is closed first.
//  2. Apply splices the Splice prepare returned into the tree: the new leaf
//     entries take the range's place, and the old pages no entry keeps are
//     freed.  Recovery applies a Splice rebuilt from the log the same way,
//     and so rebuilds the tree the update made without allocating a data
//     page or reading one, apart from the first page of logged bytes.

// Extent is one leaf entry of a Splice: a segment's first page and its
// bytes, and Pages, the pages allocated to it when it is the object's open
// tail (append.go) — 0 for every other segment.
type Extent struct {
	Start disk.PageNum
	Pages int
	Bytes int64
}

// Run returns the page run the extent names: its bytes' pages, or an open
// tail's.
func (x Extent) Run(ps int) PageRun {
	return PageRun{Start: x.Start, Pages: max(pagesFor(x.Bytes, ps), x.Pages)}
}

// Splice is one structural update as the log carries it: Entries replace
// the leaf entries covering the entry-aligned byte range [Lo, Hi) of the
// object.  Entries name segments by reference — pages the update wrote
// through, or old pages it kept — except the last len(Data) bytes of the
// new range, which the update left in memory (pending pages of the tail it
// grew and of the one it started, or a page a replace of its transaction
// holds) and which Data carries by value, across one entry or more.
type Splice struct {
	Lo, Hi  int64
	Entries []Extent
	Data    []byte

	// What Prepare did, for Apply and Cancel; zero in a Splice rebuilt from
	// the log.
	m     *Manager
	runs  []PageRun   // allocated by the prepare, whole
	wrote bool        // the prepare wrote pages the entries name through
	grow  int         // the append schedule's next segment size, 0 = unchanged
	pend  []pageImage // runs of pages the update left pending, at most one per entry
	fill  *fillBuf    // the memory pend is in, when it is a new segment's (Pending.Hold)
	hold  []heldPage  // images of held pages the update rewrote
	// Room for a typical update's entries, runs and pending runs: preparing
	// one allocates the Splice and nothing more for them.
	entryBuf [3]Extent
	runBuf   [1]PageRun
	pendBuf  [1]pageImage

	// Newer, set by recovery on a Splice rebuilt from the log, reports the
	// pages whose device bytes are newer than the by-value bytes: a later
	// update wrote them through.  Their images are not built, and reads of
	// them go to the device.
	Newer func(disk.PageNum) bool
}

// newSplice starts the Splice of an update of [lo, hi) that m prepares.
func (m *Manager) newSplice(lo, hi int64) *Splice {
	sp := &Splice{m: m, Lo: lo, Hi: hi}
	sp.Entries, sp.runs, sp.pend = sp.entryBuf[:0], sp.runBuf[:0], sp.pendBuf[:0]
	return sp
}

// WroteThrough reports whether the prepare wrote pages the entries name to
// the device: a transaction must force them before its commit record.
func (sp *Splice) WroteThrough() bool { return sp.wrote }

// Cancel gives back what the prepare allocated, when the Splice will not be
// applied: no root names those pages.
func (sp *Splice) Cancel() { _ = sp.m.giveBack(sp.runs, nil) }

// Apply splices sp into the tree: its entries replace the leaf entries of
// [Lo, Hi), the old boundary segments' pages no entry keeps are freed — an
// open tail's room unpublished, since no root named it —, and the tail is
// open after it when its last entry says so.  Its by-value bytes enter the
// write-behind set (a page a replace holds stays held); a Splice rebuilt
// from the log builds their pages over what the device or the set holds
// before them.
func (o *Object) Apply(sp *Splice) error {
	m := o.m
	ps := m.vol.PageSize()
	repl := make([]entry, len(sp.Entries))
	for i, x := range sp.Entries {
		repl[i] = entry{bytes: x.Bytes, ptr: x.Start}
	}
	atEnd := sp.Hi == o.size
	skip := false
	if sp.Hi > sp.Lo {
		first, start, err := o.findSegment(sp.Lo)
		if err != nil {
			return err
		}
		last, lastStart := first, start
		if start+first.bytes < sp.Hi {
			if last, lastStart, err = o.findSegment(sp.Hi - 1); err != nil {
				return err
			}
		}
		if start != sp.Lo || lastStart+last.bytes != sp.Hi {
			return fmt.Errorf("%w: splice [%d,%d) not entry-aligned", ErrOutOfBounds, sp.Lo, sp.Hi)
		}
		if err := o.freeUnkept(first, sp.Entries); err != nil {
			return err
		}
		if lastStart != start {
			if err := o.freeUnkept(last, sp.Entries); err != nil {
				return err
			}
		}
		skip = true
	}
	if err := o.spliceLeafRange(sp.Lo, sp.Hi, repl, skip, skip); err != nil {
		return err
	}
	if atEnd {
		var tail Extent
		if n := len(sp.Entries); n > 0 {
			tail = sp.Entries[n-1]
		}
		if o.tailAlloc > 0 && (tail.Pages == 0 || tail.Start != o.tailStart) {
			// The tail closed or moved: its pending pages wait for the
			// checkpoint as a closed tail's.
			m.cfg.Pending.mark(o.tailStart, o.tailAlloc, closedTail)
		}
		o.tailStart, o.tailAlloc = tail.Start, tail.Pages
	}
	if sp.grow > 0 {
		m.st.segmentsAllocated.Add(int64(len(sp.runs)))
		o.nextGrow, o.growFixed = sp.grow, false
	}
	m.held.hold(sp.hold)
	switch {
	case len(sp.pend) > 0:
		n := 0
		for _, run := range sp.pend {
			n += len(run.raw) / ps
		}
		pages := make([]pendingPage, 0, n)
		for _, run := range sp.pend {
			pages = appendPageImages(pages, run.start, run.raw, ps, o.tailKind(run.start))
		}
		m.cfg.Pending.install(pages, sp.fill)
	case len(sp.Data) > 0 && sp.hold == nil:
		return o.pendData(sp)
	}
	return nil
}

// tailKind is the kind of a pending page of the tail segment p lies in: the
// open tail's, or one that has closed.
func (o *Object) tailKind(p disk.PageNum) pageKind {
	if o.tailAlloc > 0 && p >= o.tailStart && p < o.tailStart+disk.PageNum(o.tailAlloc) {
		return openTail
	}
	return closedTail
}

// Continued returns the pages an append's Splice wrote through in the tail
// it grew — its range is the old tail, its first entry the tail grown: from
// the page the old bytes end in up to the by-value bytes.  A write from the
// page's start carries the bytes before it too, so whatever the device
// shows of these pages from then on is newer than any image rebuilt from
// earlier by-value bytes.
func (sp *Splice) Continued(ps int) PageRun {
	if len(sp.Entries) == 0 || sp.Hi == sp.Lo || sp.Entries[0].Bytes <= sp.Hi-sp.Lo {
		return PageRun{}
	}
	grown := sp.Entries[0]
	var total int64
	for _, x := range sp.Entries {
		total += x.Bytes
	}
	to := pagesFor(grown.Bytes, ps)
	if from := total - int64(len(sp.Data)); from < grown.Bytes {
		to = int(from / int64(ps))
	}
	from := int((sp.Hi - sp.Lo) / int64(ps))
	if from >= to {
		return PageRun{}
	}
	return PageRun{Start: grown.Start + disk.PageNum(from), Pages: to - from}
}

// freeUnkept frees the pages of the old leaf entry seg that no entry of the
// splice keeps, which names them otherwise whole: an open tail's room beyond
// its bytes unpublished, the rest as data.
func (o *Object) freeUnkept(seg entry, keep []Extent) error {
	m := o.m
	ps := m.vol.PageSize()
	used := pagesFor(seg.bytes, ps)
	alloc := used
	if o.tailAlloc > 0 && seg.ptr == o.tailStart {
		alloc = max(used, o.tailAlloc)
	}
	end := seg.ptr + disk.PageNum(alloc)
	var buf [2]PageRun
	kept := buf[:0]
	for _, x := range keep {
		if x.Start >= seg.ptr && x.Start < end {
			kept = append(kept, x.Run(ps))
		}
	}
	if len(kept) == 0 {
		m.st.segmentsFreed.Add(1)
	}
	slices.SortFunc(kept, func(a, b PageRun) int { return cmp.Compare(a.Start, b.Start) })
	room := seg.ptr + disk.PageNum(used)
	free := func(from, to disk.PageNum) error {
		if named := min(to, room); from < named {
			if err := m.freeData(from, int(named-from)); err != nil {
				return err
			}
		}
		if from = max(from, room); from < to {
			return m.alloc.FreeUnpublished(from, int(to-from))
		}
		return nil
	}
	at := seg.ptr
	for _, r := range kept {
		if r.Start > at {
			if err := free(at, r.Start); err != nil {
				return err
			}
		}
		at = max(at, r.Start+disk.PageNum(r.Pages))
	}
	if at < end {
		return free(at, end)
	}
	return nil
}

// pendData builds the pages of a logged splice's by-value bytes — the last
// len(sp.Data) bytes of its entries — over what the pages hold before them,
// and leaves them pending.  Recovery runs on a store's managers, which
// always have a write-behind set.
func (o *Object) pendData(sp *Splice) error {
	m := o.m
	ps := m.vol.PageSize()
	data := sp.Data
	var pages []pendingPage
	for i := len(sp.Entries) - 1; i >= 0 && len(data) > 0; i-- {
		x := sp.Entries[i]
		n := min(x.Bytes, int64(len(data)))
		start, raw, err := m.extend(x.Start, x.Bytes-n, data[int64(len(data))-n:], true)
		if err != nil {
			return err
		}
		kind := o.tailKind(start)
		for i := 0; i < len(raw)/ps; i++ {
			if p := start + disk.PageNum(i); sp.Newer == nil || !sp.Newer(p) {
				pages = append(pages, pendingPage{page: p, img: raw[i*ps : (i+1)*ps], kind: kind})
			}
		}
		data = data[:int64(len(data))-n]
	}
	m.cfg.Pending.install(pages, nil)
	return nil
}

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
	free := m.freeing()
	for k := ci + 1; k < cj; k++ {
		if err := m.walkEntry(nd.entries[k], nd.level, 0, nd.entries[k].bytes, free); err != nil {
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
	// The child is decoded only when it is below the floor: the check
	// reads its page in place.
	min := minFanout(m.vol.PageSize())
	var child *node
	err := m.viewPage(nd.entries[idx].ptr, func(v nodeView) error {
		if v.count() < min && len(nd.entries) >= 2 {
			child = v.decode()
		}
		return nil
	})
	if err != nil || child == nil {
		return err
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
