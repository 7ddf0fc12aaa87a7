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
// granularity above this layer (§4.5).
type Object struct {
	m    *Manager
	root *node // eos:guardedby catEntry.latch -- the caller's per-object latch
	size int64 // eos:guardedby catEntry.latch

	threshold int // eos:guardedby catEntry.latch -- segment size threshold T, pages
	*traffic      // what the object's operations cost on each side of §4.4's trade (policy.go)

	// Append growth state (§4.1): the next segment to allocate when the
	// eventual size is unknown doubles until the maximum segment size.
	nextGrow int // eos:guardedby catEntry.latch
	// growFixed marks nextGrow as set by SetGrowthHint rather than by the
	// schedule; the next allocation consumes it.
	growFixed bool // eos:guardedby catEntry.latch
	// pinned marks a T its creator or SetThreshold chose; an unpinned T
	// follows the object's traffic (policy.go).
	pinned bool // eos:guardedby catEntry.latch
	// The last segment may be allocated beyond its trimmed length while
	// an append sequence is in progress.
	tailStart disk.PageNum // eos:guardedby catEntry.latch
	tailAlloc int          // eos:guardedby catEntry.latch -- pages allocated to the tail segment; 0 = trimmed

	// lsn is the log sequence number of the last logged update, stored in
	// the root so updates can be undone/redone idempotently (§4.5).
	// Atomic: SetLSN runs after a commit's force with no latch held,
	// concurrently with other transactions' pre-LSN snapshots.
	lsn atomic.Uint64

	// published is the newest committed RootVersion.  Snapshot readers
	// load it with no locks; mutators store it via Publish after
	// completing (or committing) an update and before the superseded pages
	// can be freed.
	published atomic.Pointer[RootVersion]
}

// NewObject creates an empty large object.  threshold <= 0 selects the
// manager's default T, which then follows the object's traffic (policy.go);
// a positive threshold pins T.
func (m *Manager) NewObject(threshold int) *Object {
	pinned := threshold > 0
	if !pinned {
		threshold = m.cfg.Threshold
	}
	if max := m.alloc.MaxSegmentPages(); threshold > max {
		threshold = max
	}
	return &Object{
		m:         m,
		root:      &node{level: 1},
		threshold: threshold,
		pinned:    pinned,
		traffic:   m.newTraffic(),
		nextGrow:  1,
	}
}

// Size returns the object's length in bytes.
func (o *Object) Size() int64 { return o.size }

// Threshold returns the object's current segment size threshold T.
func (o *Object) Threshold() int { return o.threshold }

// SetThreshold changes T and pins it: the object's traffic no longer moves
// it.  "The threshold value does not have to be constant during the
// lifetime of a large object" (§4.4); it takes effect on subsequent updates.
func (o *Object) SetThreshold(t int) {
	o.pinned = true
	if t < 1 {
		t = 1
	}
	if max := o.m.alloc.MaxSegmentPages(); t > max {
		t = max
	}
	o.threshold = t
}

// Rebind attaches the object to a different manager sharing the same
// volume and buffer pool.  The store uses it to route the object's
// allocation through the allocator of the write scope at it, which holds
// the scope's frees.
func (o *Object) Rebind(m *Manager) { o.m = m }

// Manager returns the manager the object is bound to.
func (o *Object) Manager() *Manager { return o.m }

// Reinstate makes o again the object d describes — a descriptor of o from
// before the operations it rolls back — in place: every handle on o, and
// the versions it published, stay.  It is a failed write scope's way back,
// a transaction's abort among them.  The operations shadowed every index
// page and wrote no page d names outside its tail's room, so d's tree is
// whole; whatever they allocated is the caller's to give back.  An aborted
// append may have left room pages pending: those images are dropped, as no
// root names their bytes, and the tail's pages before them are an open
// tail's again if the append filled it; finding the room walks d's tree to
// its tail, through the pool.
func (o *Object) Reinstate(d *Descriptor) error {
	r, err := o.m.OpenDescriptor(d.Bytes())
	if err != nil {
		return err
	}
	o.root, o.size, o.threshold, o.pinned, o.nextGrow = r.root, r.size, r.threshold, r.pinned, r.nextGrow
	o.tailStart, o.tailAlloc = r.tailStart, r.tailAlloc
	o.lsn.Store(r.lsn.Load())
	if o.tailAlloc == 0 {
		return nil
	}
	_, tailLen, err := o.tailEntry()
	if err != nil {
		return err
	}
	keep := pagesFor(tailLen, o.m.vol.PageSize())
	o.m.cfg.Pending.drop(o.tailStart+disk.PageNum(keep), o.tailAlloc-keep)
	o.m.cfg.Pending.mark(o.tailStart, keep, openTail) // an append may have closed it
	return nil
}

// LSN returns the log sequence number stored in the object root.
func (o *Object) LSN() uint64 { return o.lsn.Load() }

// SetLSN records the log sequence number of the latest update.
func (o *Object) SetLSN(lsn uint64) { o.lsn.Store(lsn) }

// Destroy deletes the entire object, returning every segment and index
// page to the free space without reading a single data page.
func (o *Object) Destroy() error {
	// The tail's unused pages go the way of the rest, through Free; its
	// pending pages are written first, by trim and the frees.
	if err := o.trim(o.m.alloc.Free); err != nil {
		return err
	}
	if err := o.walkAll(o.m.freeing()); err != nil {
		return err
	}
	o.root = &node{level: 1}
	o.size = 0
	o.nextGrow, o.growFixed = 1, false
	o.ForgetTail()
	return nil
}

// findSegment descends the tree to the leaf entry containing byte offset
// off (off == size resolves to the last entry) and returns the entry and
// the byte offset where it starts.
func (o *Object) findSegment(off int64) (e entry, entryStart int64, err error) {
	return o.m.find(o.root, off)
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
	IndexEntries  int   // entries those pages hold
	NodeCapacity  int   // entries one index node page holds
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

// IndexFill is IndexEntries over the entries IndexPages could hold: how
// full the node pages below the root are (0 when there are none).
func (u UsageInfo) IndexFill() float64 {
	if u.IndexPages == 0 {
		return 0
	}
	return float64(u.IndexEntries) / float64(u.IndexPages*u.NodeCapacity)
}

// Usage walks the tree and reports the object's storage footprint.
func (o *Object) Usage() (UsageInfo, error) {
	ps := o.m.vol.PageSize()
	u := UsageInfo{DataBytes: o.size, TreeHeight: o.root.level, NodeCapacity: maxFanout(ps), MinSegmentPgs: 1 << 30}
	err := o.walkAll(&walk{
		seg: func(seg entry, _, _ int64) error {
			pages := o.segmentPages(seg)
			u.SegmentCount++
			u.SegmentPages += pages
			u.WastedBytes += int64(pages)*int64(ps) - seg.bytes
			p := pagesFor(seg.bytes, ps)
			u.MinSegmentPgs = min(u.MinSegmentPgs, p)
			u.MaxSegmentPgs = max(u.MaxSegmentPgs, p)
			return nil
		},
		enter: func(_ entry, v nodeView) error {
			u.IndexPages++
			u.IndexEntries += v.count()
			return nil
		},
	})
	if err != nil {
		return UsageInfo{}, err
	}
	if u.SegmentCount == 0 {
		u.MinSegmentPgs = 0
	}
	return u, nil
}

// segmentPages is the pages a segment holds: the untrimmed tail's room
// counts.
func (o *Object) segmentPages(seg entry) int {
	pages := pagesFor(seg.bytes, o.m.vol.PageSize())
	if o.tailAlloc > pages && seg.ptr == o.tailStart {
		return o.tailAlloc
	}
	return pages
}

// Check validates the object's tree structure: levels descend by one,
// byte counts are positive and consistent, and non-root nodes respect the
// B-tree occupancy floor.
func (o *Object) Check() error {
	var total int64
	for _, e := range o.root.entries {
		if e.bytes <= 0 {
			return fmt.Errorf("%w: non-positive entry length %d", ErrCorruptNode, e.bytes)
		}
		total += e.bytes
	}
	if total != o.size {
		return fmt.Errorf("%w: root total %d != size %d", ErrCorruptNode, total, o.size)
	}
	// The walk checks each page as it reads it — its magic, its increasing
	// counts, that it fits its page, that its level is one below its
	// parent's and that it holds the bytes its parent's entry says — and
	// this the occupancy floor.  A root's sole child may be below it: a root
	// that outgrows its MaxRootEntries moves its entries into one child
	// (normalizeRoot), which is then the tree's real root.  Beside a sibling
	// a child may not.
	min := minFanout(o.m.vol.PageSize())
	sole := len(o.root.entries) == 1
	return o.walkAll(&walk{enter: func(_ entry, v nodeView) error {
		if v.count() < min && !(sole && v.level == o.root.level-1) {
			return fmt.Errorf("%w: node with %d entries below minimum %d", ErrCorruptNode, v.count(), min)
		}
		return nil
	}})
}

// walkAll walks the object's whole tree (walkRange).
func (o *Object) walkAll(w *walk) error { return o.m.walkRange(o.root, 0, o.root.size(), w) }

// PageRun is a contiguous run of pages owned by an object.
type PageRun struct {
	Start disk.PageNum
	Pages int
}

// ReachablePages lists every page run the object owns — its leaf
// segments (including any untrimmed tail pages) and its index node
// pages, each page before the pages below it.  Recovery reserves exactly
// these runs when rebuilding the free space map from the catalog.
func (o *Object) ReachablePages() ([]PageRun, error) {
	var runs []PageRun
	err := o.walkAll(&walk{
		seg: func(seg entry, _, _ int64) error {
			runs = append(runs, PageRun{Start: seg.ptr, Pages: o.segmentPages(seg)})
			return nil
		},
		enter: func(e entry, _ nodeView) error {
			runs = append(runs, PageRun{Start: e.ptr, Pages: 1})
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// SegmentPageCounts returns the page count of every segment in logical
// order, for the clustering experiments.
func (o *Object) SegmentPageCounts() ([]int, error) {
	var out []int
	err := o.walkAll(&walk{seg: func(seg entry, _, _ int64) error {
		out = append(out, pagesFor(seg.bytes, o.m.vol.PageSize()))
		return nil
	}})
	if err != nil {
		return nil, err
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
	var out []SegmentInfo
	var off int64
	err := o.walkAll(&walk{seg: func(seg entry, _, _ int64) error {
		out = append(out, SegmentInfo{
			LogicalOff: off,
			Bytes:      seg.bytes,
			StartPage:  seg.ptr,
			Pages:      pagesFor(seg.bytes, o.m.vol.PageSize()),
		})
		off += seg.bytes
		return nil
	}})
	if err != nil {
		return nil, err
	}
	return out, nil
}
