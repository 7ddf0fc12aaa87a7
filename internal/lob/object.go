package lob

import (
	"fmt"
	"sync/atomic"

	"github.com/eosdb/eos/internal/disk"
)

// Object is a handle on one large object: the in-memory root node (whose
// persistent placement belongs to the client via the descriptor), the
// object's segment size threshold, and append growth bookkeeping.
//
// An Object is not safe for concurrent use; EOS locks at the object root
// (or byte-range) granularity above this layer (§4.5).
type Object struct {
	m    *Manager
	root *node // eos:guardedby catEntry.latch -- the caller's per-object latch
	size int64 // eos:guardedby catEntry.latch

	threshold int // segment size threshold T, pages; fixed at creation

	// Append growth state (§4.1): the next segment to allocate when the
	// eventual size is unknown doubles until the maximum segment size.
	nextGrow int // eos:guardedby catEntry.latch
	// growFixed marks nextGrow as set by SetGrowthHint rather than by the
	// schedule; the next allocation consumes it.
	growFixed bool // eos:guardedby catEntry.latch
	// The last segment may be allocated beyond its trimmed length while
	// an append sequence is in progress.
	tailStart disk.PageNum // eos:guardedby catEntry.latch
	tailAlloc int          // eos:guardedby catEntry.latch -- pages allocated to the tail segment; 0 = trimmed
	// tailImg is the bytes of the untrimmed tail's partial last page as
	// this process's last plain Append wrote them (at most one page; empty
	// when there are none or they are not known), so that the next one
	// continues the page without reading it.  Soft state like the tail's
	// room: whatever else writes that page, or trims the tail, drops it.
	// In-place writers drop it under the shared latch; the latch keeps
	// them apart from the appends that read it.
	tailImg []byte // eos:guardedby catEntry.latch

	// lsn is the log sequence number of the last logged update, stored in
	// the root so updates can be undone/redone idempotently (§4.5).
	// Atomic: SetLSN runs after a commit's force with no latch held,
	// concurrently with other transactions' pre-LSN snapshots.
	lsn atomic.Uint64

	// ver counts mutations.  Readers that stage data outside the object
	// latch (the sequential prefetcher) record the version before reading
	// and discard the staged bytes if any mutation intervened.
	ver atomic.Int64

	// published is the newest committed RootVersion (plus a short chain
	// of retained older ones).  Snapshot readers load it with no locks;
	// mutators store it via Publish after completing (or committing) an
	// update and before the superseded pages can be freed.
	published atomic.Pointer[RootVersion]
}

// NewObject creates an empty large object.  threshold <= 0 selects the
// manager's default T.
func (m *Manager) NewObject(threshold int) *Object {
	if threshold <= 0 {
		threshold = m.cfg.Threshold
	}
	if max := m.alloc.MaxSegmentPages(); threshold > max {
		threshold = max
	}
	return &Object{
		m:         m,
		root:      &node{level: 1},
		threshold: threshold,
		nextGrow:  1,
	}
}

// Size returns the object's length in bytes.
func (o *Object) Size() int64 { return o.size }

// Version returns the object's mutation counter.  It increases on every
// update (append, insert, delete, replace, truncate, compact, destroy);
// two equal readings with no mutator admitted in between guarantee the
// object's bytes did not change.
func (o *Object) Version() int64 { return o.ver.Load() }

// bumpVersion records that a mutation is taking place.
func (o *Object) bumpVersion() { o.ver.Add(1) }

// Threshold returns the object's current segment size threshold T.
func (o *Object) Threshold() int { return o.threshold }

// SetThreshold changes T.  "The threshold value does not have to be
// constant during the lifetime of a large object" (§4.4); it takes effect
// on subsequent updates.
func (o *Object) SetThreshold(t int) {
	if t < 1 {
		t = 1
	}
	if max := o.m.alloc.MaxSegmentPages(); t > max {
		t = max
	}
	o.threshold = t
}

// Rebind attaches the object to a different manager sharing the same
// volume and buffer pool.  The transaction layer uses it to route the
// object's allocation through a deferred-free wrapper for the duration
// of a transaction.
func (o *Object) Rebind(m *Manager) { o.m = m }

// LSN returns the log sequence number stored in the object root.
func (o *Object) LSN() uint64 { return o.lsn.Load() }

// SetLSN records the log sequence number of the latest update.
func (o *Object) SetLSN(lsn uint64) { o.lsn.Store(lsn) }

// Destroy deletes the entire object, returning every segment and index
// page to the free space without reading a single data page.
func (o *Object) Destroy() error {
	o.bumpVersion()
	// The tail's unused pages go the way of the rest: a transaction that
	// destroys the object restores it on abort from a descriptor that says
	// they are the object's, so they must not be reusable before then.
	if err := o.trim(o.m.alloc.Free, 0); err != nil {
		return err
	}
	for _, e := range o.root.entries {
		if err := o.m.freeSubtree(e, o.root.level); err != nil {
			return err
		}
	}
	o.root = &node{level: 1}
	o.size = 0
	o.nextGrow, o.growFixed = 1, false
	o.ForgetTail()
	return nil
}

// effectiveThreshold computes the T used for one update.  With the
// adaptive extension ([Bili91a], §4.4 last paragraph) the threshold grows
// with the occupancy of the leaf's parent index node: the closer the
// parent is to splitting, the larger the segments we maintain.
func (o *Object) effectiveThreshold(parentEntries int) int {
	t := o.threshold
	if !o.m.cfg.AdaptiveThreshold {
		return t
	}
	occ := float64(parentEntries) / float64(maxFanout(o.m.vol.PageSize()))
	switch {
	case occ >= 0.9:
		t *= 8
	case occ >= 0.75:
		t *= 4
	case occ >= 0.5:
		t *= 2
	}
	if max := o.m.alloc.MaxSegmentPages(); t > max {
		t = max
	}
	return t
}

// findSegment descends the tree to the leaf entry containing byte offset
// off (off == size resolves to the last entry) and returns the entry, the
// byte offset where it starts, and the entry count of its parent node
// (for the adaptive threshold).
func (o *Object) findSegment(off int64) (e entry, entryStart int64, parentEntries int, err error) {
	if len(o.root.entries) == 0 {
		return entry{}, 0, 0, fmt.Errorf("%w: empty object", ErrOutOfBounds)
	}
	nd := o.root
	var base int64
	for {
		i, childStart := nd.childIndex(off - base)
		e = nd.entries[i]
		if nd.level == 1 {
			return e, base + childStart, len(nd.entries), nil
		}
		base += childStart
		nd, err = o.m.readNode(e.ptr)
		if err != nil {
			return entry{}, 0, 0, err
		}
	}
}

// checkRange validates [off, off+n) against the object bounds.
func (o *Object) checkRange(off, n int64) error {
	if off < 0 || n < 0 || off+n > o.size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBounds, off, off+n, o.size)
	}
	return nil
}

// UsageInfo reports the storage footprint of an object.
type UsageInfo struct {
	DataBytes     int64 // logical object size
	SegmentCount  int   // leaf segments
	SegmentPages  int   // pages holding object bytes (incl. untrimmed tail)
	IndexPages    int   // index node pages below the root
	TreeHeight    int   // 1 = root points directly at segments
	WastedBytes   int64 // allocated segment bytes not holding data
	MinSegmentPgs int   // smallest segment, pages
	MaxSegmentPgs int   // largest segment, pages
}

// Utilization is DataBytes over all allocated bytes (segments + index).
func (u UsageInfo) Utilization(pageSize int) float64 {
	total := int64(u.SegmentPages+u.IndexPages) * int64(pageSize)
	if total == 0 {
		return 1
	}
	return float64(u.DataBytes) / float64(total)
}

// Usage walks the tree and reports the object's storage footprint.
func (o *Object) Usage() (UsageInfo, error) {
	u := UsageInfo{DataBytes: o.size, TreeHeight: o.root.level, MinSegmentPgs: 1 << 30}
	ps := o.m.vol.PageSize()
	var walk func(nd *node) error
	walk = func(nd *node) error {
		for _, e := range nd.entries {
			if nd.level == 1 {
				pages := pagesFor(e.bytes, ps)
				if o.tailAlloc > 0 && e.ptr == o.tailStart {
					pages = o.tailAlloc
				}
				u.SegmentCount++
				u.SegmentPages += pages
				u.WastedBytes += int64(pages)*int64(ps) - e.bytes
				if p := pagesFor(e.bytes, ps); p < u.MinSegmentPgs {
					u.MinSegmentPgs = p
				}
				if p := pagesFor(e.bytes, ps); p > u.MaxSegmentPgs {
					u.MaxSegmentPgs = p
				}
				continue
			}
			child, err := o.m.readNode(e.ptr)
			if err != nil {
				return err
			}
			u.IndexPages++
			if err := walk(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(o.root); err != nil {
		return UsageInfo{}, err
	}
	if u.SegmentCount == 0 {
		u.MinSegmentPgs = 0
	}
	return u, nil
}

// Check validates the object's tree structure: levels descend by one,
// byte counts are positive and consistent, and non-root nodes respect the
// B-tree occupancy floor.
func (o *Object) Check() error {
	ps := o.m.vol.PageSize()
	min := minFanout(ps)
	var walk func(nd *node, isRoot bool) (int64, error)
	walk = func(nd *node, isRoot bool) (int64, error) {
		if !isRoot {
			if len(nd.entries) < min {
				return 0, fmt.Errorf("%w: node with %d entries below minimum %d", ErrCorruptNode, len(nd.entries), min)
			}
			if len(nd.entries) > maxFanout(ps) {
				return 0, fmt.Errorf("%w: node with %d entries above maximum %d", ErrCorruptNode, len(nd.entries), maxFanout(ps))
			}
		}
		var total int64
		for _, e := range nd.entries {
			if e.bytes <= 0 {
				return 0, fmt.Errorf("%w: non-positive entry length %d", ErrCorruptNode, e.bytes)
			}
			if nd.level > 1 {
				child, err := o.m.readNode(e.ptr)
				if err != nil {
					return 0, err
				}
				if child.level != nd.level-1 {
					return 0, fmt.Errorf("%w: child level %d under level %d", ErrCorruptNode, child.level, nd.level)
				}
				sub, err := walk(child, false)
				if err != nil {
					return 0, err
				}
				if sub != e.bytes {
					return 0, fmt.Errorf("%w: entry says %d bytes, subtree has %d", ErrCorruptNode, e.bytes, sub)
				}
			}
			total += e.bytes
		}
		return total, nil
	}
	total, err := walk(o.root, true)
	if err != nil {
		return err
	}
	if total != o.size {
		return fmt.Errorf("%w: root total %d != size %d", ErrCorruptNode, total, o.size)
	}
	return nil
}

// segmentList returns (start page, byte length) of every leaf segment in
// order; used by tests and the fragmentation experiments.
func (o *Object) segmentList() ([]entry, error) {
	var out []entry
	var walk func(nd *node) error
	walk = func(nd *node) error {
		for _, e := range nd.entries {
			if nd.level == 1 {
				out = append(out, e)
				continue
			}
			child, err := o.m.readNode(e.ptr)
			if err != nil {
				return err
			}
			if err := walk(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(o.root); err != nil {
		return nil, err
	}
	return out, nil
}

// PageRun is a contiguous run of pages owned by an object.
type PageRun struct {
	Start disk.PageNum
	Pages int
}

// ReachablePages lists every page run the object owns — its leaf
// segments (including any untrimmed tail pages) and its index node
// pages.  Recovery reserves exactly these runs when rebuilding the free
// space map from the catalog.
func (o *Object) ReachablePages() ([]PageRun, error) {
	var runs []PageRun
	ps := o.m.vol.PageSize()
	var walk func(nd *node) error
	walk = func(nd *node) error {
		for _, e := range nd.entries {
			if nd.level == 1 {
				pages := pagesFor(e.bytes, ps)
				if o.tailAlloc > 0 && e.ptr == o.tailStart && o.tailAlloc > pages {
					pages = o.tailAlloc
				}
				runs = append(runs, PageRun{Start: e.ptr, Pages: pages})
				continue
			}
			runs = append(runs, PageRun{Start: e.ptr, Pages: 1})
			child, err := o.m.readNode(e.ptr)
			if err != nil {
				return err
			}
			if err := walk(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(o.root); err != nil {
		return nil, err
	}
	return runs, nil
}

// SegmentPageCounts returns the page count of every segment in logical
// order, for the clustering experiments.
func (o *Object) SegmentPageCounts() ([]int, error) {
	segs, err := o.segmentList()
	if err != nil {
		return nil, err
	}
	out := make([]int, len(segs))
	for i, e := range segs {
		out[i] = pagesFor(e.bytes, o.m.vol.PageSize())
	}
	return out, nil
}

// SegmentInfo describes one leaf segment of an object.
type SegmentInfo struct {
	LogicalOff int64        // byte offset of the segment's first byte
	Bytes      int64        // bytes stored in the segment
	StartPage  disk.PageNum // first volume page
	Pages      int          // pages occupied (all full except the last)
}

// Segments lists the object's leaf segments in logical order — the
// physical layout tooling (eosctl dump) displays.
func (o *Object) Segments() ([]SegmentInfo, error) {
	segs, err := o.segmentList()
	if err != nil {
		return nil, err
	}
	out := make([]SegmentInfo, len(segs))
	var off int64
	for i, e := range segs {
		out[i] = SegmentInfo{
			LogicalOff: off,
			Bytes:      e.bytes,
			StartPage:  e.ptr,
			Pages:      pagesFor(e.bytes, o.m.vol.PageSize()),
		}
		off += e.bytes
	}
	return out, nil
}
