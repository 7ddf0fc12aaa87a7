package lob

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
)

// Allocator is the disk space service the large object manager consumes —
// in EOS, the binary buddy system.  AllocUpTo supports graceful
// degradation when no contiguous run of the requested size exists.
type Allocator interface {
	// Alloc allocates exactly n physically contiguous pages.
	Alloc(n int) (disk.PageNum, error)
	// AllocUpTo allocates between 1 and n contiguous pages, as many as
	// available in one run.
	AllocUpTo(n int) (disk.PageNum, int, error)
	// AllocAt allocates exactly the n pages from p on if it can do so at
	// no I/O and without waiting, and reports whether it did; a probe
	// that fails changes nothing.
	AllocAt(p disk.PageNum, n int) bool
	// Free returns any sub-range of previously allocated pages.
	Free(p disk.PageNum, n int) error
	// FreeUnpublished returns pages no root — durable, published or held
	// by a transaction — has ever named: the unused end of a run, or runs
	// an operation allocated and then could not use.  Nobody can be
	// reading them and no recovery can reach them, so an allocator that
	// delays Free for either reason may hand them out again at once.
	FreeUnpublished(p disk.PageNum, n int) error
	// MaxSegmentPages reports the largest possible single allocation.
	MaxSegmentPages() int
}

// Config parameterizes a Manager.
type Config struct {
	// Threshold is the default segment size threshold T in pages (§4.4):
	// two logically adjacent segments, one of which has fewer than T
	// pages, must not hold bytes that could be stored in one segment.
	// Threshold 1 disables page reshuffling.
	Threshold int
	// MaxRootEntries bounds the root held in the object descriptor
	// (clients "may pass a parameter to EOS restricting the maximum size
	// of the root").
	MaxRootEntries int
	// ShadowIndexPages makes every index node update write a fresh page
	// and free the old one, so insert/delete/append never overwrite
	// existing pages (§4.5); replace remains the only in-place update.
	ShadowIndexPages bool
	// RetainFreedPages keeps the buffer-pool frames of freed index pages
	// resident instead of discarding them at free time.  Set when the
	// allocator defers or retires frees (the transaction layer's
	// deferred allocator, the epoch-reclamation path): a superseded node
	// page must stay readable — including its possibly never-flushed
	// pool frame — until the free actually reaches the buddy system,
	// because a published snapshot root may still name it.  Whoever
	// performs the eventual free is then responsible for discarding the
	// frames.
	RetainFreedPages bool
	// Pending is the write-behind set appends leave their tails' pages in —
	// a plain Append while its tail is open, a hinted one always —,
	// committed replaces their pages, and inserts and deletes the new
	// segments they could not place after their reads (pending.go); managers
	// over one volume share one.  nil: every page is written at once, a
	// hinted append's segment goes wherever §3's scan puts it, and an append
	// reads the partial last page of an open tail back — the write-through
	// stacks eosbench compares and perf's lob-layer probe.
	Pending *Pending
	// LogBusy reports whether the log that carries the set's bytes is too
	// full to take more of them by value: a plain Append that fills its
	// tail's room then writes the tail through and names it by reference
	// (append.go).  nil: never.
	LogBusy func() bool
}

// Stats counts manager activity for the experiments.
type Stats struct {
	Appends            int64
	Reads              int64
	Replaces           int64
	Inserts            int64
	Deletes            int64
	SegmentsAllocated  int64
	SegmentsPlaced     int64 // of those, an insert's or a delete's new segment allocated right after the pages it read, or a hinted append's right after the object's last segment
	SegmentsWaiting    int64 // an Object insert's or delete's new segments not placed so, left in the write-behind set
	SegmentsNextFit    int64 // of those, the ones allocated at the set's next-fit point
	SegmentsFreed      int64
	BytesReshuffled    int64 // bytes moved between segments by reshuffling
	PagesReshuffled    int64 // whole pages moved by the threshold mechanism
	ThresholdMoves     int64 // moves of an unpinned object's T by a page, up or down (policy.go)
	NodeSplits         int64
	NodeMerges         int64
	ShadowedIndexPages int64
	SnapshotReads      int64 // reads served through published snapshot roots
	BridgedReads       int64 // requests that fetched two separate byte ranges of a segment at once (one request saved each)
	BridgedGapPages    int64 // unwanted pages between the two ranges those requests transferred
	// The write-behind set (shared by the managers over one volume): pages
	// pending now, of either kind, and the most ever pending at once; the
	// runs written early because the set was over its limit; and the
	// pages reads took from the set instead of the device.
	PendingPages     int64
	PendingPagesHigh int64
	PendingEvictions int64
	PendingReads     int64
	// Committed replaces' pages: pending now; left in the set, in all; of
	// those, pages that were pending already, whose images they overwrote;
	// and replaced pages a checkpoint wrote and dropped, and ones written
	// because the set was over its limit.
	ReplacedPending      int64
	ReplacedPages        int64
	ReplacedAbsorbed     int64
	ReplacedCheckpointed int64
	ReplacedEvicted      int64
}

// stats is the manager's live counter set.  Every counter is atomic so
// the hot read path never takes a lock to count, and Stats() snapshots
// without stalling concurrent operations.
type stats struct {
	appends            atomic.Int64
	reads              atomic.Int64
	replaces           atomic.Int64
	inserts            atomic.Int64
	deletes            atomic.Int64
	segmentsAllocated  atomic.Int64
	segmentsPlaced     atomic.Int64
	segmentsWaiting    atomic.Int64
	segmentsNextFit    atomic.Int64
	segmentsFreed      atomic.Int64
	bytesReshuffled    atomic.Int64
	pagesReshuffled    atomic.Int64
	thresholdMoves     atomic.Int64
	nodeSplits         atomic.Int64
	nodeMerges         atomic.Int64
	shadowedIndexPages atomic.Int64
	snapshotReads      atomic.Int64
	bridgedReads       atomic.Int64
	bridgedGapPages    atomic.Int64
	// window numbers the pricing windows (Manager.NewWindow); the managers
	// derived from one share it with their counters.
	window atomic.Uint64
}

// Manager provides large object storage over a volume, a buffer pool for
// index pages, and an allocator.  Leaf segments bypass the pool: they are
// transferred with direct multi-page volume I/O.
type Manager struct {
	vol   disk.Device
	pool  *buffer.Pool
	alloc Allocator
	cfg   Config
	st    *stats
	held  held // a transaction's uncommitted replaced pages (held.go)
	// base is the manager m was derived from, nil for one NewManager made:
	// published versions read through it, never through a writer's held
	// pages (Object.Publish).
	base *Manager
	// scratch is memory for page images that do not outlive the operation
	// building them: the new segment an insert or a delete writes, or
	// copies into the write-behind set, and drops.  It holds *[]byte, so
	// handing memory back allocates nothing.
	scratch *sync.Pool
}

// NewManager validates cfg and creates a manager.
func NewManager(vol disk.Device, pool *buffer.Pool, alloc Allocator, cfg Config) (*Manager, error) {
	if cfg.Threshold < 1 {
		cfg.Threshold = 1
	}
	if cfg.Threshold > alloc.MaxSegmentPages() {
		return nil, fmt.Errorf("%w: threshold %d exceeds max segment %d", ErrBadConfig, cfg.Threshold, alloc.MaxSegmentPages())
	}
	if maxFanout(vol.PageSize()) < 4 {
		return nil, fmt.Errorf("%w: page size %d holds fewer than 4 index entries", ErrBadConfig, vol.PageSize())
	}
	if pages := int64(vol.NumPages()); pages > maxEntryPage+1 || pages > (maxEntryCount+1)/int64(vol.PageSize()) {
		return nil, fmt.Errorf("%w: %d pages of %d bytes exceed an index entry's 2^32 pages or 2^48 bytes", ErrBadConfig, pages, vol.PageSize())
	}
	if cfg.MaxRootEntries == 0 {
		cfg.MaxRootEntries = maxFanout(vol.PageSize())
	}
	if cfg.MaxRootEntries < 2 {
		return nil, fmt.Errorf("%w: max root entries %d < 2", ErrBadConfig, cfg.MaxRootEntries)
	}
	return &Manager{vol: vol, pool: pool, alloc: alloc, cfg: cfg, st: new(stats), scratch: new(sync.Pool)}, nil
}

// Derive returns a manager like m that allocates from alloc and holds
// replaced pages of its own (held.go) — a write scope's — but counts into
// m's counters, builds page images in m's scratch memory, and publishes
// versions that read through m.
func (m *Manager) Derive(alloc Allocator) *Manager {
	return &Manager{vol: m.vol, pool: m.pool, alloc: alloc, cfg: m.cfg, st: m.st, scratch: m.scratch, base: m}
}

// Stats returns a snapshot of activity counters without taking any lock.
func (m *Manager) Stats() Stats {
	st := Stats{
		Appends:            m.st.appends.Load(),
		Reads:              m.st.reads.Load(),
		Replaces:           m.st.replaces.Load(),
		Inserts:            m.st.inserts.Load(),
		Deletes:            m.st.deletes.Load(),
		SegmentsAllocated:  m.st.segmentsAllocated.Load(),
		SegmentsPlaced:     m.st.segmentsPlaced.Load(),
		SegmentsWaiting:    m.st.segmentsWaiting.Load(),
		SegmentsNextFit:    m.st.segmentsNextFit.Load(),
		SegmentsFreed:      m.st.segmentsFreed.Load(),
		BytesReshuffled:    m.st.bytesReshuffled.Load(),
		PagesReshuffled:    m.st.pagesReshuffled.Load(),
		ThresholdMoves:     m.st.thresholdMoves.Load(),
		NodeSplits:         m.st.nodeSplits.Load(),
		NodeMerges:         m.st.nodeMerges.Load(),
		ShadowedIndexPages: m.st.shadowedIndexPages.Load(),
		SnapshotReads:      m.st.snapshotReads.Load(),
		BridgedReads:       m.st.bridgedReads.Load(),
		BridgedGapPages:    m.st.bridgedGapPages.Load(),
	}
	if t := m.cfg.Pending; t != nil {
		if set := t.load(); set != nil {
			st.PendingPages, st.ReplacedPending = int64(set.n), int64(set.replaced)
		}
		st.PendingPagesHigh, st.PendingEvictions, st.PendingReads = t.high.Load(), t.evictions.Load(), t.reads.Load()
		st.ReplacedPages, st.ReplacedAbsorbed = t.replaced.Load(), t.absorbed.Load()
		st.ReplacedCheckpointed, st.ReplacedEvicted = t.checkpointed.Load(), t.evicted.Load()
	}
	return st
}

// ---- node I/O ----

// readNode loads an index node from its page via the buffer pool.
func (m *Manager) readNode(p disk.PageNum) (*node, error) {
	img, err := m.pool.Fix(p)
	if err != nil {
		return nil, err
	}
	defer m.pool.Unpin(p)
	return decodeNode(img)
}

// viewPage runs f on the index node on page p read in place (viewNode):
// the view is valid while f runs, with the page's frame pinned.
func (m *Manager) viewPage(p disk.PageNum, f func(nodeView) error) error {
	img, err := m.pool.Fix(p)
	if err != nil {
		return err
	}
	defer m.pool.Unpin(p)
	v, err := viewNode(img)
	if err != nil {
		return err
	}
	return f(v)
}

// writeNode persists n.  With shadowing enabled an update of an existing
// node allocates a fresh page and frees the old one (deferred to commit
// when the allocator is transactional); otherwise the node is written in
// place.  It returns the page now holding the node.
func (m *Manager) writeNode(old disk.PageNum, n *node) (disk.PageNum, error) {
	page := old
	if page == 0 || m.cfg.ShadowIndexPages {
		var err error
		page, err = m.alloc.Alloc(1)
		if err != nil {
			return 0, err
		}
		if old != 0 {
			if err := m.alloc.Free(old, 1); err != nil {
				// Return the fresh shadow page too: failing the write
				// must not strand the page we just took.
				_ = m.alloc.Free(page, 1)
				return 0, err
			}
			m.st.shadowedIndexPages.Add(1)
		}
	}
	img, err := m.pool.FixNew(page)
	if err != nil {
		return 0, err
	}
	defer m.pool.Unpin(page)
	if err := encodeNode(n, img); err != nil {
		return 0, err
	}
	return page, nil
}

// freeNodePage returns an index page to the allocator.  Unless the
// allocator retains frees (RetainFreedPages), the page's pool frame is
// dropped here; retaining allocators keep the frame readable for
// snapshot roots that still name the page and discard it at the actual
// free.
func (m *Manager) freeNodePage(p disk.PageNum) error {
	if !m.cfg.RetainFreedPages {
		m.pool.Discard(p)
	}
	return m.alloc.Free(p, 1)
}

// ---- segment I/O ----

// readSegRange reads bytes [off, off+n) of the segment whose data pages
// start at page start into buf and returns the page run it transferred, in a
// single multi-page request for the pages the write-behind set does not hold
// (readPages), and the pages it asked the device for.  A piece of whole pages
// whose run is not kept is transferred into buf itself, and the run returned
// is buf; a kept run (PageImages, which PrepareReplace writes into) or one
// with edge bytes buf does not take is a page image of its own, copied into
// buf.
func (m *Manager) readSegRange(start disk.PageNum, off int64, buf []byte, keep bool) (pageImage, pageRange, error) {
	if len(buf) == 0 {
		return pageImage{}, pageRange{}, nil
	}
	ps := m.vol.PageSize()
	first, npages, in := disk.PageSpan(off, int64(len(buf)), ps)
	img := pageImage{start: start + first, raw: buf}
	own := keep || len(buf) != npages*ps // the run cannot be buf itself
	if own {
		img.raw = make([]byte, npages*ps)
	}
	dev, err := m.readPages(img.start, npages, img.raw)
	if err != nil {
		return pageImage{}, pageRange{}, err
	}
	if own {
		copy(buf, img.raw[in:])
	}
	return img, dev, nil
}

// getScratch returns scratch memory for a page image that does not outlive
// the operation building it, which puts it back in m.scratch when done.
func (m *Manager) getScratch() *[]byte {
	if b, ok := m.scratch.Get().(*[]byte); ok {
		return b
	}
	return new([]byte)
}

// readPages reads data pages [start, start+n) into buf, the held ones from the
// held set and the pending ones from the write-behind set: the device is asked
// only for the pages from the first to the last that neither set holds, and
// not at all when they hold every one.  It returns the pages it asked the
// device for.
func (m *Manager) readPages(start disk.PageNum, n int, buf []byte) (dev pageRange, err error) {
	if t := m.cfg.Pending; t != nil {
		t.copying.RLock() // no image it copies is built over meanwhile
		defer t.copying.RUnlock()
	}
	pend, held := m.cfg.Pending.load().between(start, n), m.held.set
	hlo, hhi := span(held, start, n)
	if len(pend) == 0 && hlo == hhi {
		return pageRange{start, start + disk.PageNum(n)}, m.vol.ReadPages(start, n, buf)
	}
	held = held[hlo:hhi]
	inSet := func(p disk.PageNum) bool { return has(pend, p) || has(held, p) }
	ps := m.vol.PageSize()
	first, end := start, start+disk.PageNum(n) // what the device holds
	for first < end && inSet(first) {
		first++
	}
	for end > first && inSet(end-1) {
		end--
	}
	if first < end {
		if err := m.vol.ReadPages(first, int(end-first), buf[int(first-start)*ps:int(end-start)*ps]); err != nil {
			return pageRange{}, err
		}
		dev = pageRange{first, end}
	}
	for _, p := range pend {
		copy(buf[int(p.page-start)*ps:], p.img)
	}
	for _, p := range held {
		copy(buf[int(p.page-start)*ps:], p.img)
	}
	if len(pend) > 0 {
		m.cfg.Pending.reads.Add(int64(len(pend)))
	}
	return dev, nil
}

// setReader is the data volume as the write-behind set shows it, for
// disk.Gather.
type setReader struct{ m *Manager }

func (r setReader) PageSize() int { return r.m.vol.PageSize() }
func (r setReader) ReadPages(start disk.PageNum, n int, buf []byte) error {
	_, err := r.m.readPages(start, n, buf)
	return err
}

// gather is disk.Gather on the manager's volume as the write-behind set
// shows it — the one way an update reads old bytes it is about to rewrite,
// in as few requests as the cost model allows — with the bridged requests
// counted, and its requests noted in sk when that is not nil.  The image is
// built in *buf, which keeps the memory it grew to, when buf is not nil
// (scratch memory, for an image only written), and in memory of its own
// otherwise.  next is the page after the last one its
// requests asked for — where the head is when they are done — or 0 when
// both ranges are empty.
func (m *Manager) gather(buf *[]byte, a disk.ByteRange, hole int64, b disk.ByteRange, sk *seeks) (img []byte, next disk.PageNum, err error) {
	var into []byte
	if buf != nil {
		into = *buf
	}
	var d disk.PageReader = setReader{m}
	if sk != nil {
		d = sk
	}
	img, gap, err := disk.GatherInto(into, d, a, hole, b)
	if gap >= 0 {
		m.st.bridgedReads.Add(1)
		m.st.bridgedGapPages.Add(int64(gap))
	}
	if buf != nil && err == nil {
		*buf = img
	}
	if b.N == 0 {
		b = a
	}
	if first, n, _ := disk.PageSpan(b.Off, b.N, m.vol.PageSize()); n > 0 {
		next = b.Start + first + disk.PageNum(n)
	}
	return img, next, err
}

// writeImage writes whole-page images to fresh pages from start on — pages
// no root names yet, so none is pending — in one request.
func (m *Manager) writeImage(start disk.PageNum, img []byte) error {
	npages := len(img) / m.vol.PageSize()
	if npages == 0 {
		return nil
	}
	return m.vol.WritePages(start, npages, img)
}

// writeHome writes whole-page images of pages a root names from start on, in
// one request that also takes the pending pages around them, and drops the
// images the write-behind set held of them: img has their newest bytes.
func (m *Manager) writeHome(start disk.PageNum, img []byte) error {
	if m.cfg.Pending == nil {
		return m.writeImage(start, img)
	}
	return m.cfg.Pending.writeOver(start, img)
}

// logBusy reports whether the log is too full to carry a filled tail's
// bytes by value (Config.LogBusy).
func (m *Manager) logBusy() bool { return m.cfg.LogBusy != nil && m.cfg.LogBusy() }

// Forget drops the images of pages [start, start+n) unwritten — pending
// ones, and index pages' pool frames — before the pages go back to the free
// space: an aborted transaction allocated them, and no root names them.
func (m *Manager) Forget(start disk.PageNum, n int) {
	m.cfg.Pending.drop(start, n)
	for i := 0; i < n; i++ {
		m.pool.Discard(start + disk.PageNum(i))
	}
}

// freeData frees n data pages from start on.  Their pending images stay
// unwritten, readable by a snapshot until the free is reclaimed: whoever
// puts the pages back into the free space drops them first (pending.go).
// Held ones leave the held set (held.go).
func (m *Manager) freeData(start disk.PageNum, n int) error {
	m.held.free(start, n)
	return m.alloc.Free(start, n)
}

// writeSegment writes data as a fresh segment starting at page start,
// zero-padding the final partial page.  Fresh segments are written whole,
// never read first.
func (m *Manager) writeSegment(start disk.PageNum, data []byte) error {
	return m.writeImage(start, m.pageImage(data, false))
}

// pageImage returns data as whole-page images: data itself when it is whole
// pages and the image is only written — a device keeps no buffer past a
// request — else a zero-padded copy, which is what a caller that keeps the
// image (a pending run) must have: never memory its own caller may reuse.
func (m *Manager) pageImage(data []byte, keep bool) []byte {
	ps := m.vol.PageSize()
	if !keep && len(data)%ps == 0 {
		return data
	}
	img := make([]byte, pagesFor(int64(len(data)), ps)*ps)
	copy(img, data)
	return img
}

// allocSegments allocates segments to hold total bytes, preferring a
// single run but splitting across runs (and capping at the maximum
// segment size) as needed.  It returns the segment entries in order.  The
// first run starts at page at when that is not 0 and the allocator can
// place it there (allocRun).  With fit, segments that do not start there
// wait in the write-behind set (waits): each tries the set's next-fit point
// first, which then moves behind it.
func (m *Manager) allocSegments(total int64, at disk.PageNum, fit bool) (out []entry, waits bool, err error) {
	ps := int64(m.vol.PageSize())
	remaining := total
	for remaining > 0 {
		wantPages := pagesFor(remaining, int(ps))
		start, got, placed := m.allocAt(wantPages, at)
		if placed {
			m.st.segmentsPlaced.Add(1)
			fit = false
		}
		at = 0
		if !placed && fit {
			if start, got, placed = m.allocAt(wantPages, disk.PageNum(m.cfg.Pending.next.Load())); placed {
				m.st.segmentsNextFit.Add(1)
			}
		}
		if !placed {
			if start, got, err = m.alloc.AllocUpTo(wantPages); err != nil {
				// Roll back partial allocations, best-effort: the
				// allocation failure is the error worth reporting.  No
				// root named them.
				for _, e := range out {
					_ = m.alloc.FreeUnpublished(e.ptr, pagesFor(e.bytes, int(ps)))
				}
				return nil, false, err
			}
		}
		if fit {
			m.cfg.Pending.next.Store(uint64(start) + uint64(got))
			m.st.segmentsWaiting.Add(1)
		}
		// AllocAt and AllocUpTo hand out at most wantPages pages: the run
		// holds no page the bytes do not need.
		bytes := min(int64(got)*ps, remaining)
		out = append(out, entry{bytes: bytes, ptr: start})
		remaining -= bytes
		m.st.segmentsAllocated.Add(1)
	}
	return out, fit, nil
}

// allocRun allocates a run of up to want pages: at page at — right after
// the object's last segment, so that its pages and the run go out in one
// request — when at is not 0 and the allocator can place it there at no I/O
// (allocAt), and wherever §3's lowest-address scan finds room otherwise.
func (m *Manager) allocRun(want int, at disk.PageNum) (disk.PageNum, int, error) {
	if start, n, ok := m.allocAt(want, at); ok {
		m.st.segmentsPlaced.Add(1)
		return start, n, nil
	}
	return m.alloc.AllocUpTo(want)
}

// allocAt allocates a run of up to want pages at page at — where the head
// stopped after an update's reads, so that the run's write costs no seek, or
// where its pages join pages pending before it — when at is not 0 and the
// allocator can place it there at no I/O (Allocator.AllocAt).
func (m *Manager) allocAt(want int, at disk.PageNum) (disk.PageNum, int, bool) {
	if at == 0 {
		return 0, 0, false
	}
	n := min(want, m.alloc.MaxSegmentPages())
	return at, n, m.alloc.AllocAt(at, n)
}

// giveBack frees runs an operation allocated and then could not use —
// no root came to name them — and returns err: the failure that made them
// useless is the one to report.
func (m *Manager) giveBack(runs []PageRun, err error) error {
	for _, r := range runs {
		_ = m.alloc.FreeUnpublished(r.Start, r.Pages)
	}
	return err
}

// freeSegment returns a whole segment's pages.
func (m *Manager) freeSegment(start disk.PageNum, bytes int64) error {
	n := pagesFor(bytes, m.vol.PageSize())
	if n == 0 {
		return nil
	}
	m.st.segmentsFreed.Add(1)
	return m.freeData(start, n)
}

// freeing is the walk that frees every page it visits: each leaf segment
// straight from its parent's entry — the paper's observation that subtree
// deletion never touches a data page — and each index page once the pages
// below it are free.
func (m *Manager) freeing() *walk {
	return &walk{
		seg:   func(seg entry, _, _ int64) error { return m.freeSegment(seg.ptr, seg.bytes) },
		leave: func(e entry) error { return m.freeNodePage(e.ptr) },
	}
}

// ---- descriptor ----

// Descriptor is the persistent form of a large object: its root node plus
// growth bookkeeping.  EOS manages the descriptor's internals but leaves
// its placement to the client (a catalog page, or a field of a small
// record to implement long fields).
const (
	descMagic      = 0xE05D0C01
	descHeaderSize = 40
	descPinned     = 1 // header byte 6: T is pinned (policy.go)
)

// Descriptor is an object's descriptor as captured at one moment — a
// commit point.  The header is encoded at the capture; the root's entries
// may follow only when the bytes are first asked for, from the immutable
// copy Publish made for the version it published, so that capturing the
// published state makes no encoding pass over the root.  A descriptor
// that arrived as bytes keeps them.
type Descriptor struct {
	enc    []byte       // the encoding; its capacity is the whole encoding's length
	v      *RootVersion // the version whose entries complete enc; nil if enc came whole
	filled sync.Once    // completes enc from v (Bytes)
}

// descriptorHeader returns a buffer of room for o's descriptor with n
// entries, the header written: its length is the header's, its capacity
// the whole descriptor's.
func (o *Object) descriptorHeader(n int) []byte {
	buf := make([]byte, descHeaderSize, descHeaderSize+n*EntrySize)
	binary.BigEndian.PutUint32(buf[0:], descMagic)
	buf[4] = 1 // version
	buf[5] = uint8(o.root.level)
	if o.pinned {
		buf[6] = descPinned
	}
	binary.BigEndian.PutUint32(buf[8:], uint32(o.threshold))
	binary.BigEndian.PutUint32(buf[12:], uint32(o.nextGrow))
	binary.BigEndian.PutUint64(buf[16:], uint64(o.tailStart))
	binary.BigEndian.PutUint32(buf[24:], uint32(o.tailAlloc))
	binary.BigEndian.PutUint64(buf[28:], o.lsn.Load())
	binary.BigEndian.PutUint32(buf[36:], uint32(n))
	return buf
}

// withEntries completes a descriptorHeader buffer with es.
func withEntries(buf []byte, es []entry) []byte {
	buf = buf[:cap(buf)]
	if err := putEntries(buf[descHeaderSize:], es); err != nil {
		// NewManager refused every volume with a page or a byte count
		// an entry cannot hold, so only a bug gets here.
		panic(err)
	}
	return buf
}

// EncodeDescriptor serializes an object's root and growth state.
func (o *Object) EncodeDescriptor() []byte {
	return withEntries(o.descriptorHeader(len(o.root.entries)), o.root.entries)
}

// Capture returns o's descriptor as it is now, encoded.
func (o *Object) Capture() *Descriptor { return &Descriptor{enc: o.EncodeDescriptor()} }

// PublishDescriptor is Publish that also returns the descriptor of the
// state it published, whose entries are encoded from the version's copy
// of them when Bytes first asks.
func (o *Object) PublishDescriptor() *Descriptor {
	v := o.publish()
	return &Descriptor{enc: o.descriptorHeader(len(v.root.entries)), v: v}
}

// EncodedDescriptor is a Descriptor of the bytes b, which it keeps.
func EncodedDescriptor(b []byte) *Descriptor { return &Descriptor{enc: b[:len(b):len(b)]} }

// Size is the length of the descriptor's encoding.  It encodes nothing.
func (d *Descriptor) Size() int { return cap(d.enc) }

// Bytes returns the descriptor's encoding, completed at the first call.
// It may run beside itself and Size; the bytes are never modified.
func (d *Descriptor) Bytes() []byte {
	d.filled.Do(func() {
		if d.v != nil {
			withEntries(d.enc, d.v.root.entries)
		}
	})
	return d.enc[:cap(d.enc)]
}

// DescriptorSize is the length of the descriptor EncodeDescriptor returns.
func (o *Object) DescriptorSize() int { return descHeaderSize + len(o.root.entries)*EntrySize }

// OpenDescriptor reconstructs an object handle from a descriptor.
func (m *Manager) OpenDescriptor(data []byte) (*Object, error) {
	if len(data) < descHeaderSize || binary.BigEndian.Uint32(data[0:]) != descMagic {
		return nil, fmt.Errorf("%w: bad descriptor", ErrCorruptNode)
	}
	count := int(binary.BigEndian.Uint32(data[36:]))
	if descHeaderSize+count*EntrySize > len(data) {
		return nil, fmt.Errorf("%w: truncated descriptor", ErrCorruptNode)
	}
	es, size, err := getEntries(data[descHeaderSize:], count)
	if err != nil {
		return nil, fmt.Errorf("descriptor: %w", err)
	}
	o := &Object{
		m:         m,
		root:      &node{level: int(data[5]), entries: es},
		size:      size,
		threshold: int(binary.BigEndian.Uint32(data[8:])),
		pinned:    data[6]&descPinned != 0,
		traffic:   m.newTraffic(),
		nextGrow:  int(binary.BigEndian.Uint32(data[12:])),
		tailStart: disk.PageNum(binary.BigEndian.Uint64(data[16:])),
		tailAlloc: int(binary.BigEndian.Uint32(data[24:])),
	}
	o.lsn.Store(binary.BigEndian.Uint64(data[28:]))
	return o, nil
}
