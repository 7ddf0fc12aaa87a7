package lob

import (
	"encoding/binary"
	"fmt"
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
	// AdaptiveThreshold enables the [Bili91a] extension: the effective T
	// for an update grows with the fan-out of the leaf's parent node, and
	// a nearly full parent compacts its unsafe adjacent segments instead
	// of splitting.
	AdaptiveThreshold bool
	// OnDataWrite, when set, observes every direct data-page write the
	// manager performs (segment writes, tail appends, in-place
	// replacements).  The transaction layer installs it to track each
	// transaction's write set for targeted forcing at commit and abort.
	OnDataWrite func(start disk.PageNum, pages int)
	// ReadWorkers bounds the worker pool that fans out multi-segment
	// reads: a read spanning K segments dispatches its K multi-page
	// transfers concurrently (at most ReadWorkers in flight across the
	// whole manager).  0 or 1 keeps reads fully sequential, which also
	// keeps the volume's seek accounting deterministic for the
	// experiment harness.
	ReadWorkers int
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
	// NoTailImage makes a plain Append read the partial last page of an
	// open tail back instead of remembering it.  Set when writers that
	// share the object latch (in-place replaces under byte-range locking)
	// may change that page without the object noticing.
	NoTailImage bool
}

// Stats counts manager activity for the experiments.
type Stats struct {
	Appends            int64
	Reads              int64
	Replaces           int64
	Inserts            int64
	Deletes            int64
	SegmentsAllocated  int64
	SegmentsFreed      int64
	BytesReshuffled    int64 // bytes moved between segments by reshuffling
	PagesReshuffled    int64 // whole pages moved by the threshold mechanism
	NodeSplits         int64
	NodeMerges         int64
	LeafCompactions    int64 // [Bili91a] whole-node compactions
	SegmentsCompacted  int64
	ShadowedIndexPages int64
	SnapshotReads      int64 // reads served through published snapshot roots
	BridgedReads       int64 // requests that fetched two separate byte ranges of a segment at once (one request saved each)
	BridgedGapPages    int64 // unwanted pages between the two ranges those requests transferred
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
	segmentsFreed      atomic.Int64
	bytesReshuffled    atomic.Int64
	pagesReshuffled    atomic.Int64
	nodeSplits         atomic.Int64
	nodeMerges         atomic.Int64
	leafCompactions    atomic.Int64
	segmentsCompacted  atomic.Int64
	shadowedIndexPages atomic.Int64
	snapshotReads      atomic.Int64
	bridgedReads       atomic.Int64
	bridgedGapPages    atomic.Int64
}

// Manager provides large object storage over a volume, a buffer pool for
// index pages, and an allocator.  Leaf segments bypass the pool: they are
// transferred with direct multi-page volume I/O.
type Manager struct {
	vol   disk.Device
	pool  *buffer.Pool
	alloc Allocator
	cfg   Config
	st    stats

	// readSem bounds concurrent segment transfers for fanned-out reads
	// (nil when Config.ReadWorkers <= 1).
	readSem chan struct{}
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
	if cfg.MaxRootEntries == 0 {
		cfg.MaxRootEntries = maxFanout(vol.PageSize())
	}
	if cfg.MaxRootEntries < 2 {
		return nil, fmt.Errorf("%w: max root entries %d < 2", ErrBadConfig, cfg.MaxRootEntries)
	}
	m := &Manager{vol: vol, pool: pool, alloc: alloc, cfg: cfg}
	if cfg.ReadWorkers > 1 {
		m.readSem = make(chan struct{}, cfg.ReadWorkers)
	}
	return m, nil
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// PageSize returns the underlying volume page size.
func (m *Manager) PageSize() int { return m.vol.PageSize() }

// Stats returns a snapshot of activity counters without taking any lock.
func (m *Manager) Stats() Stats {
	return Stats{
		Appends:            m.st.appends.Load(),
		Reads:              m.st.reads.Load(),
		Replaces:           m.st.replaces.Load(),
		Inserts:            m.st.inserts.Load(),
		Deletes:            m.st.deletes.Load(),
		SegmentsAllocated:  m.st.segmentsAllocated.Load(),
		SegmentsFreed:      m.st.segmentsFreed.Load(),
		BytesReshuffled:    m.st.bytesReshuffled.Load(),
		PagesReshuffled:    m.st.pagesReshuffled.Load(),
		NodeSplits:         m.st.nodeSplits.Load(),
		NodeMerges:         m.st.nodeMerges.Load(),
		LeafCompactions:    m.st.leafCompactions.Load(),
		SegmentsCompacted:  m.st.segmentsCompacted.Load(),
		ShadowedIndexPages: m.st.shadowedIndexPages.Load(),
		SnapshotReads:      m.st.snapshotReads.Load(),
		BridgedReads:       m.st.bridgedReads.Load(),
		BridgedGapPages:    m.st.bridgedGapPages.Load(),
	}
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
// start at page start, in a single multi-page request, and returns the
// page run it transferred.
func (m *Manager) readSegRange(start disk.PageNum, off int64, buf []byte) (pageImage, error) {
	if len(buf) == 0 {
		return pageImage{}, nil
	}
	ps := m.vol.PageSize()
	first, npages, in := disk.PageSpan(off, int64(len(buf)), ps)
	img := pageImage{start: start + first, raw: make([]byte, npages*ps)}
	if err := m.vol.ReadPages(img.start, npages, img.raw); err != nil {
		return pageImage{}, err
	}
	copy(buf, img.raw[in:])
	return img, nil
}

// gather is disk.Gather on the manager's volume — the one way an update
// reads old bytes it is about to rewrite, in as few requests as the cost
// model allows — with the bridged requests counted.
func (m *Manager) gather(a disk.ByteRange, hole int64, b disk.ByteRange) ([]byte, error) {
	img, gap, err := disk.Gather(m.vol, a, hole, b)
	if gap >= 0 {
		m.st.bridgedReads.Add(1)
		m.st.bridgedGapPages.Add(int64(gap))
	}
	return img, err
}

// writeImage writes whole-page images to the pages from start on, in one
// request, telling the write observer first.
func (m *Manager) writeImage(start disk.PageNum, img []byte) error {
	npages := len(img) / m.vol.PageSize()
	if npages == 0 {
		return nil
	}
	if m.cfg.OnDataWrite != nil {
		m.cfg.OnDataWrite(start, npages)
	}
	return m.vol.WritePages(start, npages, img)
}

// writeSegment writes data as a fresh segment starting at page start,
// zero-padding the final partial page.  Fresh segments are written whole,
// never read first.
func (m *Manager) writeSegment(start disk.PageNum, data []byte) error {
	return m.writeImage(start, m.pageImage(data))
}

// pageImage copies data into a fresh zero-padded whole-page buffer.
func (m *Manager) pageImage(data []byte) []byte {
	ps := m.vol.PageSize()
	img := make([]byte, pagesFor(int64(len(data)), ps)*ps)
	copy(img, data)
	return img
}

// allocSegments allocates segments to hold total bytes, preferring a
// single run but splitting across runs (and capping at the maximum
// segment size) as needed.  It returns the segment entries in order.
func (m *Manager) allocSegments(total int64) ([]entry, error) {
	ps := int64(m.vol.PageSize())
	var out []entry
	remaining := total
	for remaining > 0 {
		wantPages := pagesFor(remaining, int(ps))
		start, got, err := m.alloc.AllocUpTo(wantPages)
		if err != nil {
			// Roll back partial allocations, best-effort: the
			// allocation failure is the error worth reporting.
			for _, e := range out {
				_ = m.alloc.Free(e.ptr, pagesFor(e.bytes, int(ps)))
			}
			return nil, err
		}
		bytes := int64(got) * ps
		if bytes > remaining {
			bytes = remaining
		}
		out = append(out, entry{bytes: bytes, ptr: start})
		// Trim the run if we got more pages than the bytes need (only
		// possible on the final run).
		used := pagesFor(bytes, int(ps))
		if used < got {
			if err := m.alloc.Free(start+disk.PageNum(used), got-used); err != nil {
				return nil, err
			}
		}
		remaining -= bytes
		m.st.segmentsAllocated.Add(1)
	}
	return out, nil
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
	return m.alloc.Free(start, n)
}

// freeSubtree releases every page below an entry at the given level:
// leaf segments directly from their parent entries — the paper's
// observation that subtree deletion never touches a data page — and index
// pages recursively.
func (m *Manager) freeSubtree(e entry, level int) error {
	if level == 1 {
		return m.freeSegment(e.ptr, e.bytes)
	}
	child, err := m.readNode(e.ptr)
	if err != nil {
		return err
	}
	for _, ce := range child.entries {
		if err := m.freeSubtree(ce, child.level); err != nil {
			return err
		}
	}
	return m.freeNodePage(e.ptr)
}

// ---- descriptor ----

// Descriptor is the persistent form of a large object: its root node plus
// growth bookkeeping.  EOS manages the descriptor's internals but leaves
// its placement to the client (a catalog page, or a field of a small
// record to implement long fields).
const (
	descMagic      = 0xE05D0C01
	descHeaderSize = 40
)

// EncodeDescriptor serializes an object's root and growth state.
func (o *Object) EncodeDescriptor() []byte {
	buf := make([]byte, descHeaderSize+len(o.root.entries)*entrySize)
	binary.BigEndian.PutUint32(buf[0:], descMagic)
	buf[4] = 1 // version
	buf[5] = uint8(o.root.level)
	binary.BigEndian.PutUint32(buf[8:], uint32(o.threshold))
	binary.BigEndian.PutUint32(buf[12:], uint32(o.nextGrow))
	binary.BigEndian.PutUint64(buf[16:], uint64(o.tailStart))
	binary.BigEndian.PutUint32(buf[24:], uint32(o.tailAlloc))
	binary.BigEndian.PutUint64(buf[28:], o.lsn.Load())
	binary.BigEndian.PutUint32(buf[36:], uint32(len(o.root.entries)))
	var cum int64
	off := descHeaderSize
	for _, e := range o.root.entries {
		cum += e.bytes
		binary.BigEndian.PutUint64(buf[off:], uint64(cum))
		binary.BigEndian.PutUint64(buf[off+8:], uint64(e.ptr))
		off += entrySize
	}
	return buf
}

// OpenDescriptor reconstructs an object handle from a descriptor.
func (m *Manager) OpenDescriptor(data []byte) (*Object, error) {
	if len(data) < descHeaderSize || binary.BigEndian.Uint32(data[0:]) != descMagic {
		return nil, fmt.Errorf("%w: bad descriptor", ErrCorruptNode)
	}
	count := int(binary.BigEndian.Uint32(data[36:]))
	if descHeaderSize+count*entrySize > len(data) {
		return nil, fmt.Errorf("%w: truncated descriptor", ErrCorruptNode)
	}
	o := &Object{
		m:         m,
		root:      &node{level: int(data[5])},
		threshold: int(binary.BigEndian.Uint32(data[8:])),
		nextGrow:  int(binary.BigEndian.Uint32(data[12:])),
		tailStart: disk.PageNum(binary.BigEndian.Uint64(data[16:])),
		tailAlloc: int(binary.BigEndian.Uint32(data[24:])),
	}
	o.lsn.Store(binary.BigEndian.Uint64(data[28:]))
	var prev int64
	off := descHeaderSize
	for i := 0; i < count; i++ {
		cum := int64(binary.BigEndian.Uint64(data[off:]))
		ptr := disk.PageNum(binary.BigEndian.Uint64(data[off+8:]))
		if cum <= prev {
			return nil, fmt.Errorf("%w: non-increasing descriptor counts", ErrCorruptNode)
		}
		o.root.entries = append(o.root.entries, entry{bytes: cum - prev, ptr: ptr})
		prev = cum
		off += entrySize
	}
	o.size = prev
	return o, nil
}
