// Package eos is a storage system for large dynamic objects, a Go
// reproduction of the EOS large object manager (A. Biliris, "An Efficient
// Database Storage Structure for Large Dynamic Objects", ICDE 1992).
//
// A Store keeps named large objects — uninterpreted byte strings of
// unlimited size — on a simulated disk volume.  Objects are stored in
// variable-size segments of physically contiguous pages allocated by a
// binary buddy system whose entire bookkeeping lives on one directory
// page per space; a positional B-tree indexes byte offsets.  The store
// supports the paper's full operation set with costs proportional to the
// bytes touched:
//
//	obj.Append(data)          // continues the open tail segment, or starts one of T pages or more; streams (OpenAppender) grow by doubling
//	obj.Read(off, n)          // multi-page contiguous transfers
//	obj.Replace(off, data)    // in place, logged
//	obj.Insert(off, data)     // splits a segment into L, N, R
//	obj.Delete(off, n)        // subtree deletes never touch data pages
//
// The segment size threshold T (§4.4) bounds fragmentation from repeated
// updates; byte and page reshuffling keep storage utilization near 100%.
//
// Transactions (Store.Begin) provide object and byte-range locking,
// write-ahead logging, shadowed index pages, deferred frees (the effect
// of Starburst's release locks), logical undo on abort, and redo recovery
// on reopen after a crash (§4.5).
package eos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eosdb/eos/internal/buddy"
	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
	"github.com/eosdb/eos/internal/txn"
	"github.com/eosdb/eos/internal/wal"
)

// Errors returned by the store.
var (
	// ErrExists is returned when creating an object whose name is taken.
	ErrExists = errors.New("eos: object already exists")
	// ErrNotFound is returned for unknown object names.
	ErrNotFound = errors.New("eos: object not found")
	// ErrCorruptStore is returned when the store header or catalog fails
	// validation.
	ErrCorruptStore = errors.New("eos: corrupt store")
	// ErrCatalogFull is returned by Commit, Abort and Checkpoint when the
	// committed descriptors no longer fit in one catalog slot
	// (Options.CatalogPages).  Nothing was written: the durable catalog
	// still holds the previous barrier's state, the store stays usable,
	// and destroying objects makes room.
	ErrCatalogFull = errors.New("eos: catalog full")
	// ErrTxnDone is returned when a finished transaction is reused.
	ErrTxnDone = errors.New("eos: transaction already committed or aborted")
)

const (
	storeMagic   = 0xE0557011
	storeVersion = 3 // v3: catalog slots are journals (base + delta records)
)

// Options configures a Store.  The zero value selects reasonable
// defaults for the volume's geometry.
type Options struct {
	// NumSpaces and SpaceCapacity lay out the buddy spaces; zero values
	// size them to fill the volume (capacity defaults to the maximum a
	// one-page directory supports, shrunk to fit).
	NumSpaces     int
	SpaceCapacity int
	// PoolFrames sizes the buffer pool (default 256).
	PoolFrames int
	// PoolShards splits the buffer pool into lock-sharded sub-pools keyed
	// by page number, so concurrent fixes of distinct index pages never
	// contend on one mutex.  0 sizes the shard count automatically from
	// PoolFrames; 1 pins the original single-lock pool, whose global LRU
	// makes eviction order (and therefore re-read seek counts) fully
	// deterministic for the experiment harness.
	PoolShards int
	// ReadConcurrency bounds the worker pool that overlaps one read's
	// per-segment transfers when the range spans several segments.  0 or
	// 1 keeps reads strictly sequential (the deterministic default).
	ReadConcurrency int
	// SequentialPrefetch makes readers obtained from Object.NewReader
	// detect sequential access and stage the next segment with an async
	// readahead, overlapping the transfer with the caller's processing of
	// the current one.  Readers can override per instance with
	// Reader.SetPrefetch.
	SequentialPrefetch bool
	// Threshold is the default segment size threshold T in pages
	// (default 8); objects may override it individually.
	Threshold int
	// AdaptiveThreshold enables the [Bili91a] fan-out-driven T.
	AdaptiveThreshold bool
	// Superdirectory enables the in-memory buddy superdirectory (§3.3);
	// on by default (disable only for the ablation experiment).
	DisableSuperdirectory bool
	// ShadowIndexPages makes insert/delete/append updates shadow the
	// index pages they touch (§4.5); on by default, required for
	// transactional use.
	DisableShadowing bool
	// CatalogPages reserves room for object descriptors (default 4): the
	// size of each of the two catalog slots.  The full catalog image must
	// fit in one slot; the rest of the slot is journal space for the
	// per-barrier deltas, so a larger value also means rarer compactions.
	CatalogPages int
	// LockTimeout bounds lock waits (default 2s).
	LockTimeout time.Duration
	// MaxRootEntries bounds the root held in each descriptor.
	MaxRootEntries int
	// RangeLocking selects the finer §4.5 granularity: instead of
	// locking the object root, transactional reads lock the byte range
	// they touch (shared), replace locks its range exclusively, and the
	// length-changing operations — insert, delete, append — lock the
	// suffix from their offset (every byte after it shifts).  Disjoint
	// reads and replaces on one object then run concurrently; a short
	// per-object latch keeps index traversals physically safe.
	RangeLocking bool
	// SerialWAL disables the buffered log tail and leader/follower group
	// commit, reproducing the original serial write path: every log
	// append issues its own positional write and every commit forces the
	// log itself.  The write-path benchmarks use it as their baseline;
	// durability semantics are identical either way.
	SerialWAL bool
	// SnapshotHistory is how many superseded committed root versions
	// each object retains alongside the newest one (default 4).  A
	// snapshot reader holding an epoch pin can step across the retained
	// versions published since its pin, so long scans survive multiple
	// overwrites without ever taking a lock.
	SnapshotHistory int
	// Backend selects the volume implementation CreateAt/OpenAt build:
	// BackendSim (the default) is the in-memory simulator with modelled
	// costs; BackendFile keeps pages in real files under the store
	// directory, with pread/pwrite transfers and fdatasync durability.
	// Format/Open ignore it — they take the volumes you built.
	Backend Backend
	// PageSize, DataPages and LogPages set the geometry CreateAt
	// formats (defaults 512 bytes, 4096 data pages, 1024 log pages).
	// OpenAt reads the geometry from the existing volumes instead.
	PageSize  int
	DataPages disk.PageNum
	LogPages  disk.PageNum
	// DirectIO opens file-backed volumes with O_DIRECT (Linux only;
	// page size must be a multiple of 512), bypassing the OS page
	// cache so benchmarks measure the device rather than RAM.
	DirectIO bool
	// CrashShadow enables the file backend's crash simulation: pre-
	// images of unforced pages are tracked so Device.Crash reverts
	// them.  Costs one extra read per first write after a force; meant
	// for recovery tests, not production or benchmarks.
	CrashShadow bool
	// IODepth > 0 routes buffer-pool write-back through the async I/O
	// dispatcher with that many workers and queue slots, overlapping a
	// checkpoint's coalesced runs in flight instead of issuing them one
	// blocking call at a time.  0 keeps write-back synchronous.
	IODepth int
}

// Backend names a volume implementation for CreateAt/OpenAt.
type Backend string

const (
	// BackendSim is the cost-modelled in-memory simulator (default).
	BackendSim Backend = "sim"
	// BackendFile is the real-I/O file backend (disk.FileVolume).
	BackendFile Backend = "file"
)

func (o Options) withDefaults(vol disk.Device) (Options, error) {
	if o.PoolFrames == 0 {
		o.PoolFrames = 256
	}
	if o.Threshold == 0 {
		o.Threshold = 8
	}
	if o.CatalogPages == 0 {
		o.CatalogPages = 4
	}
	if o.LockTimeout == 0 {
		o.LockTimeout = 2 * time.Second
	}
	if o.SnapshotHistory == 0 {
		o.SnapshotHistory = 4
	}
	_, maxCap, err := buddy.Layout(vol.PageSize())
	if err != nil {
		return o, err
	}
	avail := int(vol.NumPages()) - 1 - catalogRegionPages(o)
	if o.SpaceCapacity == 0 {
		o.SpaceCapacity = maxCap
		if o.SpaceCapacity > avail-1 {
			o.SpaceCapacity = (avail - 1) &^ 3
		}
	}
	if o.NumSpaces == 0 {
		o.NumSpaces = avail / (o.SpaceCapacity + 1)
		if o.NumSpaces < 1 {
			o.NumSpaces = 1
		}
	}
	if o.SpaceCapacity < 4 || o.NumSpaces*(o.SpaceCapacity+1) > avail {
		return o, fmt.Errorf("eos: volume too small for %d spaces of %d pages",
			o.NumSpaces, o.SpaceCapacity)
	}
	return o, nil
}

// catEntry is one live catalog entry.  While a transaction has the
// object dirty, catalog writes use the last committed descriptor
// (stableDesc) so that uncommitted structural state never becomes
// durable; uncommitted in-place replaces can still reach the disk when
// another transaction's commit forces the volume, which is why replace
// records log their physical extents for recovery-time undo.
type catEntry struct {
	id       uint64
	name     string
	obj      *lob.Object
	txnDirty uint64 // id of the transaction holding it dirty, or 0

	// stableDesc is the descriptor of the object's last committed
	// (published) state; nil means the object has never committed and
	// is omitted from catalog writes.  It is refreshed synchronously at
	// every commit point — non-transactional publish, transaction
	// commit, and abort — NOT lazily at catalog-write time: the
	// durability quarantine reasons that any catalog barrier started
	// after a run is quarantined persists roots that exclude the run,
	// and catalog writes must be able to proceed while an object's
	// latch is held (a writer stalled in allocation backpressure holds
	// its latch while WAITING for a barrier to release quarantined
	// space).  Writers are serialized per object by the latch or the
	// transaction's exclusive lock; the atomic makes the latch-free
	// read in catalogDelta safe.
	stableDesc atomic.Pointer[[]byte]

	// latch serializes physical access to the object's in-memory root
	// and index pages under range locking: structural updates write-
	// latch, reads and in-place replaces read-latch.  Held only for the
	// duration of one operation, never to transaction end (§3.3's
	// short-duration lock).
	latch sync.RWMutex

	// inPlace serializes the in-place writers that share the read latch
	// — non-transactional replaces, and transactional ones under range
	// locking: two of them may own different bytes of one page, and each
	// rewrites that page whole.  Held for one read-modify-write.
	inPlace sync.Mutex
}

// setStableDesc records desc as the last committed descriptor.  Callers
// hold the object's write latch or the owning transaction's exclusive
// lock, which serializes stores per object.
func (e *catEntry) setStableDesc(desc []byte) { e.stableDesc.Store(&desc) }

// loadStableDesc returns the last committed descriptor, or nil if the
// object has never committed.  Safe without the object latch.
func (e *catEntry) loadStableDesc() []byte {
	if p := e.stableDesc.Load(); p != nil {
		return *p
	}
	return nil
}

// Store is an EOS storage system instance over a data volume and a log
// volume.
type Store struct {
	vol    disk.Device
	logVol disk.Device
	disp   *disk.Dispatcher // async write-back dispatcher; nil when IODepth == 0
	// ownsVols marks volumes built by CreateAt/OpenAt, which Close
	// releases; volumes handed to Format/Open stay the caller's.
	ownsVols bool
	pool     *buffer.Pool
	buddy    *buddy.Manager
	lm       *lob.Manager
	log      *wal.Log
	locks    *txn.LockTable
	epochs   *txn.EpochManager
	opts     Options

	mu       sync.Mutex
	catalog  map[string]*catEntry
	byID     map[uint64]*catEntry
	nextID   uint64
	nextTxn  uint64
	liveTxns map[uint64]*Txn
	// The catalog journal's write position (eos:guardedby mu): catSeq is
	// the sequence number of the newest record written, catSlot the slot
	// holding it, and catNext the first page of that slot no record
	// occupies — CatalogPages when the slot takes no more deltas, which
	// is also how Open marks the slot it loaded.  catImage is what the
	// journal replays to; writeCatalog appends its difference from the
	// current committed descriptors.
	catSeq   uint64
	catSlot  int
	catNext  int
	catImage map[uint64]catRec
	// hdrNextID and hdrLsnBase are the header fields as page 0 holds them
	// (eos:guardedby mu); writeHeader skips the write when neither moved.
	hdrNextID  uint64
	hdrLsnBase uint64
	// lsnBase mirrors the log's LSN epoch base into the store header
	// (eos:guardedby mu).  The header's copy is what recovery trusts: a
	// log record whose LSN predates the header's base belongs to an
	// epoch that was truncated — everything it describes is already
	// durable — and is ignored.  Truncation erases nothing, so this check
	// is all that keeps such records out.
	lsnBase uint64

	// barrierStarted counts catalog barriers begun; barrierDurable is
	// the index of the last one whose force completed.  Barriers are
	// serialized under s.mu, but releaseRuns stamps quarantine entries
	// without holding it, hence atomics.
	barrierStarted atomic.Uint64
	barrierDurable atomic.Uint64

	// barrierReq is set while a backpressure-requested checkpoint (see
	// requestBarrier) is in flight, so concurrent stalled allocators
	// spawn at most one.
	barrierReq atomic.Bool

	// dirPages is the set of buddy directory pages, one per space; fixed
	// by the geometry, never modified after Format/Open build it.
	dirPages map[disk.PageNum]bool

	// Barrier cost counters (see BarrierStats).
	catDeltaWrites  atomic.Int64
	catCompactions  atomic.Int64
	catPagesWritten atomic.Int64
	headerWrites    atomic.Int64
	dirPagesSkipped atomic.Int64

	// Deferred-replace counters (see Stats).
	deferredReplaces    atomic.Int64
	earlyReplaceApplies atomic.Int64
	replaceReadsSaved   atomic.Int64

	// quarMu guards quar, the durability quarantine (leaf lock — never
	// acquired while holding another store lock's critical section
	// beyond s.mu).  Runs whose reader grace period has expired wait
	// here, still absent from the buddy directories, until a catalog
	// barrier that STARTED after they arrived completes — only then is
	// every root the durable catalog can resolve to (the journal's newest
	// intact record; a torn successor falls back no further than the last
	// completed barrier) guaranteed not to reference them, and only
	// then do they return to the free space.  Without this gate a freed
	// page could be reallocated and overwritten while the on-disk
	// catalog still referenced its old contents — recovery would then
	// rebuild objects from garbage.
	quarMu sync.Mutex
	quar   []quarRun // eos:guardedby quarMu
}

// quarRun is one quarantined run: stamp is the barrierStarted value at
// arrival, so the run is releasable once barrierDurable > stamp.
type quarRun struct {
	run   txn.Run
	stamp uint64
}

// Format initializes a fresh store on vol, logging to logVol.  Either
// volume may be a simulator Volume or a file-backed FileVolume; the
// store never looks behind the Device interface.
func Format(vol, logVol disk.Device, opts Options) (*Store, error) {
	opts, err := opts.withDefaults(vol)
	if err != nil {
		return nil, err
	}
	pool, err := buffer.NewPoolShards(vol, opts.PoolFrames, opts.PoolShards)
	if err != nil {
		return nil, err
	}
	firstSpacePage := disk.PageNum(1 + catalogRegionPages(opts))
	bm, err := buddy.FormatVolume(pool, vol, firstSpacePage, opts.NumSpaces, opts.SpaceCapacity, !opts.DisableSuperdirectory)
	if err != nil {
		return nil, err
	}
	s := &Store{
		vol:      vol,
		logVol:   logVol,
		pool:     pool,
		buddy:    bm,
		log:      wal.New(logVol, 0),
		locks:    txn.NewLockTable(opts.LockTimeout),
		opts:     opts,
		catalog:  make(map[string]*catEntry),
		byID:     make(map[uint64]*catEntry),
		nextID:   1,
		nextTxn:  1,
		liveTxns: make(map[uint64]*Txn),
		dirPages: spaceDirPages(bm),
		// No slot holds a record yet: treating slot 1 as full sends the
		// first base to slot 0.
		catSlot: 1,
		catNext: opts.CatalogPages,
	}
	s.epochs = txn.NewEpochManager(s.releaseRuns)
	// Admission control: throttle mutators once a quarter of the volume
	// sits retired awaiting reader grace periods.  Shadowing retires far
	// more pages than stay live (every update supersedes whole runs), so
	// under a write storm with concurrent snapshot scans the backlog
	// grows at retire-rate × scan-duration; unbounded, it can transiently
	// exhaust a small volume that is almost entirely free space.
	s.epochs.SetBudget(int64(vol.NumPages()) / 4)
	s.attachDispatcher()
	s.lm, err = lob.NewManager(vol, pool, &epochAlloc{s: s}, s.lobConfig())
	if err != nil {
		return nil, err
	}
	s.log.SetGroupCommit(!opts.SerialWAL)
	// The first checkpoint writes the header and the (empty) catalog base
	// behind the formatted space directories.
	if err := s.Checkpoint(); err != nil {
		return nil, err
	}
	return s, nil
}

// spaceDirPages returns the directory page of every buddy space.
func spaceDirPages(bm *buddy.Manager) map[disk.PageNum]bool {
	dirs := make(map[disk.PageNum]bool)
	for _, sp := range bm.Spaces() {
		dirs[sp.DirPage()] = true
	}
	return dirs
}

func (s *Store) lobConfig() lob.Config {
	return lob.Config{
		Threshold:         s.opts.Threshold,
		MaxRootEntries:    s.opts.MaxRootEntries,
		ShadowIndexPages:  !s.opts.DisableShadowing,
		AdaptiveThreshold: s.opts.AdaptiveThreshold,
		ReadWorkers:       s.opts.ReadConcurrency,
		// Freed index pages stay readable (including their pool frames)
		// until the epoch manager actually releases them — a published
		// snapshot root may still name them.
		RetainFreedPages: true,
		// Under byte-range locking other transactions write into a tail's
		// last page under the shared latch, where nothing tells the object.
		NoTailImage: s.opts.RangeLocking,
	}
}

// epochAlloc is the store-wide allocator: allocations go straight to
// the buddy system, but frees are RETIRED into the current epoch and
// reach buddy.Free only once no snapshot reader can still hold a
// published root that names them.  It delegates through the Store
// pointer because recovery replaces s.buddy wholesale.
type epochAlloc struct{ s *Store }

func (a *epochAlloc) Alloc(n int) (disk.PageNum, error) {
	var w spaceWaiter
	for {
		p, err := a.s.buddy.Alloc(n)
		if err != nil {
			retry, rerr := w.wait(a.s, err)
			if rerr != nil {
				return 0, rerr
			}
			if retry {
				continue
			}
			return 0, err
		}
		return p, nil
	}
}

func (a *epochAlloc) AllocUpTo(n int) (disk.PageNum, int, error) {
	var w spaceWaiter
	for {
		p, got, err := a.s.buddy.AllocUpTo(n)
		if err != nil {
			retry, rerr := w.wait(a.s, err)
			if rerr != nil {
				return 0, 0, rerr
			}
			if retry {
				continue
			}
			return 0, 0, err
		}
		return p, got, nil
	}
}

// Allocation backpressure bounds.  A retired run matures one full
// reader grace period after the superseding publish, so when snapshot
// scans overlap a write storm the steady-state backlog is roughly
// retire-rate × scan-duration — on a small volume that can transiently
// exceed the free space even though almost none of it is live data.
// A failed allocation therefore waits out up to one grace period,
// reclaiming as pins rotate, before reporting out-of-space.
const (
	allocBackpressureWait = 2 * time.Second
	allocBackpressurePoll = 2 * time.Millisecond
)

// spaceWaiter paces allocation retries under space pressure: wait
// reports whether the failed allocation should be retried after a
// reclamation pass.  The first failure reclaims and retries at once
// (the single-shot fast path); later rounds poll until nothing is
// left pending or the deadline passes.  Waiting here is safe
// mid-mutation: Reclaim never blocks (the caller's own scope just
// caps the epoch advance one past its begin), and snapshot readers
// take no latches, so the pins being waited out always drain — but
// see EpochManager.Admit for why this path is the last resort.
type spaceWaiter struct{ deadline time.Time }

func (w *spaceWaiter) wait(s *Store, err error) (bool, error) {
	if !errors.Is(err, buddy.ErrNoSpace) {
		return false, nil
	}
	drained := s.epochs.PendingPages() == 0 && s.quarantinedPages() == 0
	switch {
	case w.deadline.IsZero():
		w.deadline = time.Now().Add(allocBackpressureWait)
	case time.Now().After(w.deadline), drained:
		return false, nil
	default:
		time.Sleep(allocBackpressurePoll)
	}
	if rerr := s.epochs.Reclaim(); rerr != nil {
		return true, rerr
	}
	// Reclaimed runs land in the durability quarantine, not the free
	// space, and only a completed catalog barrier lets them out.  With
	// no transaction commits or checkpoints running, no barrier would
	// ever come — and this caller cannot run one itself (it holds its
	// object's latch, and barriers take s.mu, which ranks before
	// latches) — so request one from a clean stack and keep polling.
	if s.quarantinedPages() > 0 {
		s.requestBarrier()
	}
	return true, s.releaseQuarantined()
}

// requestBarrier runs a checkpoint on a fresh goroutine so that a
// caller holding an object latch (allocation backpressure fires
// mid-operation) can get a catalog barrier — and with it the release of
// quarantined free space — without acquiring s.mu out of rank order.
// writeCatalog reads committed descriptors latch-free (see
// catEntry.stableDesc), so the checkpoint cannot block on the stalled
// operation's latch.  At most one request runs at a time; the error is
// dropped because the requester retries its allocation regardless and
// reports its own failure.
func (s *Store) requestBarrier() {
	if !s.barrierReq.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.barrierReq.Store(false)
		s.mu.Lock()
		defer s.mu.Unlock()
		_ = s.checkpointLocked()
	}()
}
func (a *epochAlloc) MaxSegmentPages() int { return a.s.buddy.MaxSegmentPages() }
func (a *epochAlloc) Free(p disk.PageNum, n int) error {
	a.s.epochs.Retire([]txn.Run{{Start: p, Pages: n}})
	return nil
}

// FreeUnpublished skips both waits Free imposes.  The reader grace period
// and the durability quarantine each protect someone who can still reach
// the pages through a root — a snapshot, or recovery through the durable
// catalog — and these were never in one (a catalog load forgets untrimmed
// tails, see readCatalog), so they return to the buddy system now.
func (a *epochAlloc) FreeUnpublished(p disk.PageNum, n int) error {
	return a.s.buddy.FreeUnpublished(p, n)
}

// releaseRuns is the epoch manager's free routine: retired runs whose
// grace period has passed are dropped from the buffer pool (their
// frames may hold never-flushed images of superseded index nodes —
// garbage now) and moved into the durability quarantine.  They do NOT
// return to the buddy system yet: the on-disk catalog may still hold a
// root that references them (a checkpointed pre-update descriptor),
// and recovery's redo re-executes logged operations by READING the
// object state those roots describe.  Reusing such a page before a
// catalog barrier has durably superseded every such root would let a
// crash rebuild committed objects from whatever the new owner wrote
// over it.
func (s *Store) releaseRuns(runs []txn.Run) error {
	for _, r := range runs {
		for i := 0; i < r.Pages; i++ {
			s.pool.Discard(r.Start + disk.PageNum(i))
		}
	}
	// Stamp with the latest barrier already begun: its catalog image may
	// predate the roots that stopped referencing these runs, so only a
	// LATER barrier's completion proves the durable catalog is clear of
	// them.
	stamp := s.barrierStarted.Load()
	s.quarMu.Lock()
	for _, r := range runs {
		s.quar = append(s.quar, quarRun{run: r, stamp: stamp})
	}
	s.quarMu.Unlock()
	return nil
}

// releaseQuarantined returns to the buddy system every quarantined run
// whose stamp precedes the last completed catalog barrier.  Every
// commit point (non-transactional publish, transaction commit and
// abort) refreshes stableDesc, so any barrier started after a run entered
// quarantine wrote roots that exclude it; once that barrier's force
// completes, no journal state recovery can pick still references the run
// (a torn later record falls back exactly one barrier, never further).
func (s *Store) releaseQuarantined() error {
	durable := s.barrierDurable.Load()
	s.quarMu.Lock()
	var rel []quarRun
	keep := s.quar[:0]
	for _, q := range s.quar {
		if q.stamp < durable {
			rel = append(rel, q)
		} else {
			keep = append(keep, q)
		}
	}
	s.quar = keep
	s.quarMu.Unlock()
	for i, q := range rel {
		if err := s.buddy.Free(q.run.Start, q.run.Pages); err != nil {
			// Re-stash what could not be freed rather than leaking it.
			s.quarMu.Lock()
			s.quar = append(s.quar, rel[i:]...)
			s.quarMu.Unlock()
			return err
		}
	}
	return nil
}

// quarantinedPages counts pages awaiting their release barrier.
func (s *Store) quarantinedPages() int {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	n := 0
	for _, q := range s.quar {
		n += q.run.Pages
	}
	return n
}

// PageSize reports the data volume's page size.
func (s *Store) PageSize() int { return s.vol.PageSize() }

// Volume returns the data volume (for I/O statistics).
func (s *Store) Volume() disk.Device { return s.vol }

// BuddyManager exposes the space manager (for statistics and fsck).
func (s *Store) BuddyManager() *buddy.Manager { return s.buddy }

// LOBStats returns the large object manager's activity counters.
func (s *Store) LOBStats() lob.Stats { return s.lm.Stats() }

// writeHeader persists the store header on page 0, straight to the
// device, if nextID or lsnBase moved since the last write (the geometry
// fields never change after Format).  The write is volatile until the
// caller forces page 0.  Callers hold s.mu — except Format, whose store
// has not been published yet.
//
// eos:requires s.mu
func (s *Store) writeHeader() error {
	if s.hdrNextID == s.nextID && s.hdrLsnBase == s.lsnBase {
		return nil
	}
	img := make([]byte, s.vol.PageSize())
	binary.BigEndian.PutUint32(img[0:], storeMagic)
	img[4] = storeVersion
	binary.BigEndian.PutUint32(img[8:], uint32(s.opts.NumSpaces))
	binary.BigEndian.PutUint32(img[12:], uint32(s.opts.SpaceCapacity))
	binary.BigEndian.PutUint32(img[16:], uint32(s.opts.CatalogPages))
	binary.BigEndian.PutUint64(img[20:], s.nextID)
	binary.BigEndian.PutUint64(img[28:], s.lsnBase)
	if err := s.vol.WritePages(0, 1, img); err != nil {
		return err
	}
	s.hdrNextID, s.hdrLsnBase = s.nextID, s.lsnBase
	s.headerWrites.Add(1)
	return nil
}

// Open loads an existing store and performs crash recovery: the log is
// scanned, committed operations whose effects were lost are redone
// (guarded by the LSN each object root carries, §4.5), the free space
// map is rebuilt from the pages reachable from the catalog, and a fresh
// checkpoint is taken.
func Open(vol, logVol disk.Device, opts Options) (*Store, error) {
	opts, err := opts.withDefaults(vol)
	if err != nil {
		return nil, err
	}
	pool, err := buffer.NewPoolShards(vol, opts.PoolFrames, opts.PoolShards)
	if err != nil {
		return nil, err
	}
	// Header: read from the device, like the catalog — neither lives in
	// the pool.
	img, err := vol.Read(0, 1)
	if err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(img[0:]) != storeMagic {
		return nil, fmt.Errorf("%w: bad header", ErrCorruptStore)
	}
	if img[4] != storeVersion {
		// Not corruption: an intact store of another format generation.
		return nil, fmt.Errorf("eos: store format version %d, this build reads only version %d (no in-place upgrade: create a new store and copy the objects over)",
			img[4], storeVersion)
	}
	opts.NumSpaces = int(binary.BigEndian.Uint32(img[8:]))
	opts.SpaceCapacity = int(binary.BigEndian.Uint32(img[12:]))
	opts.CatalogPages = int(binary.BigEndian.Uint32(img[16:]))
	nextID := binary.BigEndian.Uint64(img[20:])
	lsnBase := binary.BigEndian.Uint64(img[28:])

	// Spaces.
	bm := buddy.NewManager(pool, !opts.DisableSuperdirectory)
	page := disk.PageNum(1 + catalogRegionPages(opts))
	for i := 0; i < opts.NumSpaces; i++ {
		sp, err := buddy.OpenSpace(pool, page)
		if err != nil {
			return nil, err
		}
		bm.AddSpace(sp)
		page += disk.PageNum(opts.SpaceCapacity + 1)
	}

	s := &Store{
		vol:      vol,
		logVol:   logVol,
		pool:     pool,
		buddy:    bm,
		locks:    txn.NewLockTable(opts.LockTimeout),
		opts:     opts,
		catalog:  make(map[string]*catEntry),
		byID:     make(map[uint64]*catEntry),
		nextID:   nextID,
		nextTxn:  1,
		liveTxns: make(map[uint64]*Txn),
		dirPages: spaceDirPages(bm),
		lsnBase:  lsnBase,

		hdrNextID:  nextID,
		hdrLsnBase: lsnBase,
	}
	s.epochs = txn.NewEpochManager(s.releaseRuns)
	// Admission control: throttle mutators once a quarter of the volume
	// sits retired awaiting reader grace periods.  Shadowing retires far
	// more pages than stay live (every update supersedes whole runs), so
	// under a write storm with concurrent snapshot scans the backlog
	// grows at retire-rate × scan-duration; unbounded, it can transiently
	// exhaust a small volume that is almost entirely free space.
	s.epochs.SetBudget(int64(vol.NumPages()) / 4)
	s.attachDispatcher()
	s.lm, err = lob.NewManager(vol, pool, &epochAlloc{s: s}, s.lobConfig())
	if err != nil {
		return nil, err
	}
	if err := s.readCatalog(); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	// Publish every recovered object's root so snapshot readers can
	// capture it; recovery itself runs single-threaded, so no reader can
	// have observed the intermediate states.
	s.mu.Lock()
	for _, e := range s.catalog {
		e.latch.Lock()
		e.obj.Publish(s.opts.SnapshotHistory)
		e.latch.Unlock()
	}
	s.mu.Unlock()
	return s, nil
}

// attachDispatcher wires the async write-back dispatcher when IODepth
// asks for one; the store owns its lifetime.
func (s *Store) attachDispatcher() {
	if s.opts.IODepth > 0 {
		s.disp = disk.NewDispatcher(s.vol, s.opts.IODepth, s.opts.IODepth)
		s.pool.SetDispatcher(s.disp)
	}
}

// Close checkpoints the store, rejects further transactions, and shuts
// down the async dispatcher.  Volumes built by CreateAt/OpenAt are
// closed; volumes handed to Format/Open remain the caller's to save or
// discard.
func (s *Store) Close() error {
	s.mu.Lock()
	if n := len(s.liveTxns); n > 0 {
		s.mu.Unlock()
		return fmt.Errorf("eos: %d transactions still live", n)
	}
	s.mu.Unlock()
	if n := s.epochs.Pinned(); n > 0 {
		return fmt.Errorf("eos: %d snapshots still open", n)
	}
	if err := s.Checkpoint(); err != nil {
		return err
	}
	if s.disp != nil {
		s.pool.SetDispatcher(nil) // later flushes fall back to synchronous
		s.disp.Close()
		s.disp = nil
	}
	if s.ownsVols {
		if err := s.vol.Close(); err != nil {
			return err
		}
		return s.logVol.Close()
	}
	return nil
}

// Default geometry for CreateAt.
const (
	defaultPageSize  = 512
	defaultDataPages = disk.PageNum(4096)
	defaultLogPages  = disk.PageNum(1024)
)

// dataFileName and logFileName are the volume files CreateAt and
// OpenAt use under the store directory.
const (
	dataFileName = "data.eos"
	logFileName  = "log.eos"
)

func (o Options) geometry() (int, disk.PageNum, disk.PageNum) {
	ps, dp, lp := o.PageSize, o.DataPages, o.LogPages
	if ps == 0 {
		ps = defaultPageSize
	}
	if dp == 0 {
		dp = defaultDataPages
	}
	if lp == 0 {
		lp = defaultLogPages
	}
	return ps, dp, lp
}

func (o Options) fileOptions() disk.FileOptions {
	return disk.FileOptions{Direct: o.DirectIO, CrashShadow: o.CrashShadow}
}

// CreateAt formats a fresh store under dir using the backend named in
// opts.Backend: BackendFile lays out real page files (data.eos,
// log.eos) in dir, BackendSim builds in-memory simulator volumes (dir
// is then only created, not written).  The store owns the volumes —
// Close releases them.
func CreateAt(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ps, dp, lp := opts.geometry()
	var vol, logVol disk.Device
	switch opts.Backend {
	case BackendSim, "":
		var err error
		if vol, err = disk.NewVolume(ps, dp, disk.DefaultCostModel()); err != nil {
			return nil, err
		}
		if logVol, err = disk.NewVolume(ps, lp, disk.DefaultCostModel()); err != nil {
			return nil, err
		}
	case BackendFile:
		var err error
		if vol, err = disk.CreateFileVolume(filepath.Join(dir, dataFileName), ps, dp, opts.fileOptions()); err != nil {
			return nil, err
		}
		if logVol, err = disk.CreateFileVolume(filepath.Join(dir, logFileName), ps, lp, opts.fileOptions()); err != nil {
			_ = vol.Close()
			return nil, err
		}
	default:
		return nil, fmt.Errorf("eos: unknown backend %q", opts.Backend)
	}
	s, err := Format(vol, logVol, opts)
	if err != nil {
		_ = vol.Close()
		_ = logVol.Close()
		return nil, err
	}
	s.ownsVols = true
	return s, nil
}

// OpenAt opens (with crash recovery) a file-backed store previously
// created by CreateAt with BackendFile; the geometry comes from the
// volume headers.  Simulator volumes live in memory and cannot be
// reopened from a directory — keep the *disk.Volume and use Open, or
// migrate an image with the eosctl tool.
func OpenAt(dir string, opts Options) (*Store, error) {
	if opts.Backend != BackendFile {
		return nil, fmt.Errorf("eos: OpenAt requires Backend: BackendFile (got %q)", opts.Backend)
	}
	vol, err := disk.OpenFileVolume(filepath.Join(dir, dataFileName), opts.fileOptions())
	if err != nil {
		return nil, err
	}
	logVol, err := disk.OpenFileVolume(filepath.Join(dir, logFileName), opts.fileOptions())
	if err != nil {
		_ = vol.Close()
		return nil, err
	}
	s, err := Open(vol, logVol, opts)
	if err != nil {
		_ = vol.Close()
		_ = logVol.Close()
		return nil, err
	}
	s.ownsVols = true
	return s, nil
}

// Checkpoint makes the current state durable: descriptors are written to
// the catalog, every dirty page is flushed and forced, and the log is
// truncated.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

// eos:requires s.mu
func (s *Store) checkpointLocked() error {
	// Reclaim every retired page no snapshot still pins before the flush
	// below, so the checkpointed free-space directories account for them.
	// Pages pinned by open snapshots stay allocated — a checkpoint fences
	// snapshots rather than draining them: the pages a pinned root
	// references are unreachable from the catalog, so a crash reclaims
	// them at recovery, and a clean continuation frees them when the last
	// reader exits.
	if err := s.epochs.Drain(); err != nil {
		return err
	}
	// A checkpoint is also where the page images open tails keep for their
	// next append (lob.Object.Append) are let go, so that they never add up
	// to more than the appends since the last one left.  An object whose
	// latch is taken is skipped, not waited for: its holder may be stalled
	// in allocation backpressure waiting for this very barrier.
	for _, e := range s.byID {
		if e.latch.TryLock() {
			e.obj.ForgetTailImage()
			e.latch.Unlock()
		}
	}
	// The log can be truncated only at quiescence: live transactions'
	// records (needed to undo their in-place writes, which the ForceAll
	// below may make durable) must survive.  With transactions in flight
	// this is a "soft" checkpoint: everything is durable, but the log
	// keeps growing until a quiescent checkpoint.
	resetLog := s.log != nil && len(s.liveTxns) == 0
	// WAL-first: a soft checkpoint (live transactions) forces the data
	// volume below while the log keeps growing, so any buffered log
	// records — including live transactions' replace pre-images, which
	// recovery needs to undo the in-place writes this force makes
	// durable — must reach the log device first.
	if s.log != nil {
		if err := s.log.Force(); err != nil {
			return err
		}
	}
	// Phase 1: make the store state durable under the CURRENT LSN epoch,
	// data barrier first, catalog barrier second (see forceDurableLocked
	// for why the order is load-bearing).  A crash anywhere in here
	// recovers by replaying the intact log; the object roots carry their
	// true LSNs (they are never zeroed — LSNs are monotonic across log
	// truncations), so redo of an already-durable update is skipped by
	// the idempotence guard rather than applied twice.
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	if err := s.vol.ForceAll(); err != nil {
		return err
	}
	if err := s.catalogBarrier(); err != nil {
		return err
	}
	if !resetLog {
		return s.releaseQuarantined()
	}
	// Phase 2 (quiescent only): truncate the log.  The new epoch base —
	// one past the last LSN the old epoch issued — goes into the header
	// first, alone on page 0, so its write is atomic: once it is
	// durable, any leftover old-epoch records fail the recovery scan's
	// LSN check (everything they describe became durable in phase 1);
	// until it is durable, the old log is still intact and replayable.
	// Only after the header is durable is it safe to reuse quarantined
	// pages: no durable catalog root and no log record recovery accepts
	// can reach them anymore.  The truncation itself is bookkeeping in
	// memory — it writes nothing.
	if newBase := s.log.Base() + uint64(s.log.Tail()); newBase != s.lsnBase {
		s.lsnBase = newBase
		if err := s.writeHeader(); err != nil {
			return err
		}
		if err := s.vol.Force(0, 1); err != nil {
			return err
		}
		if err := s.log.Reset(newBase); err != nil {
			return err
		}
	}
	return s.releaseQuarantined()
}

// catalogBarrier is the second phase of every durable barrier: the header
// and the catalog record, written only now that the caller has forced
// everything they reference, then forced themselves.  A torn record is
// caught by its CRC and recovery falls back to the journal's previous
// record, whose pages the durability quarantine keeps intact.
//
// eos:requires s.mu
func (s *Store) catalogBarrier() error {
	barrier := s.barrierStarted.Add(1)
	if err := s.writeHeader(); err != nil {
		return err
	}
	if err := s.writeCatalog(); err != nil {
		return err
	}
	if err := s.vol.Force(0, 1+catalogRegionPages(s.opts)); err != nil {
		return err
	}
	s.barrierDurable.Store(barrier)
	return nil
}

// Create makes a new empty object; threshold <= 0 uses the store default.
func (s *Store) Create(name string, threshold int) (*Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.catalog[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	e := &catEntry{id: s.nextID, name: name, obj: s.lm.NewObject(threshold)}
	s.nextID++
	s.catalog[name] = e
	s.byID[e.id] = e
	e.obj.Publish(s.opts.SnapshotHistory)
	e.setStableDesc(e.obj.EncodeDescriptor())
	return &Object{s: s, e: e}, nil
}

// Open returns a handle on an existing object.
func (s *Store) Open(name string) (*Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.catalog[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return &Object{s: s, e: e}, nil
}

// Destroy removes an object, returning all its pages to the free space.
// The frees are retired through the epoch manager, so a snapshot opened
// before the destroy keeps reading its captured root undisturbed; the
// pages return to the buddy system when the last such reader exits.
func (s *Store) Destroy(name string) error {
	if err := s.epochs.Admit(); err != nil {
		return err
	}
	s.mu.Lock()
	e, ok := s.catalog[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	scope := s.epochs.BeginMutation()
	e.latch.Lock()
	err := e.obj.Destroy()
	if err == nil {
		e.obj.Publish(s.opts.SnapshotHistory)
	}
	e.latch.Unlock()
	s.epochs.EndMutation(scope)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	delete(s.catalog, name)
	delete(s.byID, e.id)
	s.mu.Unlock()
	return s.epochs.Reclaim()
}

// CopyObject duplicates src's content into a new object named dst,
// streaming in large chunks so memory stays bounded.  The copy is laid
// out in maximal contiguous segments (like a hinted create).
func (s *Store) CopyObject(src, dst string) error {
	from, err := s.Open(src)
	if err != nil {
		return err
	}
	to, err := s.Create(dst, from.Threshold())
	if err != nil {
		return err
	}
	a := to.OpenAppender(from.Size())
	if _, err := from.NewReader().WriteTo(a); err != nil {
		_ = s.Destroy(dst) // best-effort rollback; the copy error takes precedence
		return err
	}
	if err := a.Close(); err != nil {
		_ = s.Destroy(dst)
		return err
	}
	return nil
}

// Rename changes an object's name.  Persisted at the next checkpoint or
// durable commit.
func (s *Store) Rename(oldName, newName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.catalog[oldName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, oldName)
	}
	if _, ok := s.catalog[newName]; ok {
		return fmt.Errorf("%w: %q", ErrExists, newName)
	}
	if e.txnDirty != 0 {
		return fmt.Errorf("eos: %q is in use by transaction %d", oldName, e.txnDirty)
	}
	delete(s.catalog, oldName)
	e.name = newName
	s.catalog[newName] = e
	return nil
}

// SnapshotStats reports snapshot-read and epoch-reclamation activity.
type SnapshotStats struct {
	// SnapshotReads counts reads served through published snapshot
	// roots (no latch, no lock table).
	SnapshotReads int64
	// EpochAdvances counts global epoch advances.
	EpochAdvances uint64
	// RetiredPages counts pages ever retired into an epoch instead of
	// being freed directly.
	RetiredPages uint64
	// PendingPages is the number of retired pages currently awaiting
	// reclamation (held back by open snapshots or a not-yet-advanced
	// epoch).
	PendingPages int64
	// OpenSnapshots is the number of epoch pins currently held.
	OpenSnapshots int
	// OldestEpochAge is how long the oldest unreclaimed epoch has been
	// holding retired pages (zero when nothing is pending).
	OldestEpochAge time.Duration
}

// BarrierStats attributes the cost of making commits, aborts and
// checkpoints durable: what the catalog journal and the header wrote,
// besides the data and log pages themselves.
type BarrierStats struct {
	// CatalogDeltaWrites counts barriers that appended a delta record to
	// the current catalog slot; CatalogCompactions counts those that
	// wrote the full image as the base of the other slot instead.
	CatalogDeltaWrites int64
	CatalogCompactions int64
	// CatalogPagesWritten is the pages both kinds of record occupied.
	CatalogPagesWritten int64
	// HeaderWrites counts rewrites of the header page (only when nextID
	// or the LSN epoch base moved).
	HeaderWrites int64
	// DirPagesSkipped counts the dirty buddy directory frames commit and
	// abort barriers left in the pool instead of writing: the directories
	// are rebuilt by every Open, so only eviction, Checkpoint and Close
	// write them.
	DirPagesSkipped int64
}

// Stats aggregates the store's activity counters across layers.
type Stats struct {
	Disk  disk.Stats
	Pool  buffer.Stats
	Buddy buddy.ManagerStats
	LOB   lob.Stats
	WAL   wal.Stats
	Snap  SnapshotStats
	// Barrier counts what catalog barriers wrote.
	Barrier BarrierStats
	// DeferredReplaces counts transactional replaces whose in-place write
	// waited for a later log force; EarlyReplaceApplies counts those of
	// them a later operation of the same transaction on the same object
	// made pay a force of their own after all.
	DeferredReplaces    int64
	EarlyReplaceApplies int64
	// ReplaceReadsSaved counts the page runs transactional replaces took
	// from the images their transaction's preceding Read had transferred,
	// instead of reading them from the device again.
	ReplaceReadsSaved int64
	LogLen            int64 // LogTail: log length in bytes, padding included
	// PoolHitRate is the buffer pool hit fraction in [0, 1] (1 when the
	// pool has seen no traffic).
	PoolHitRate float64
}

// Stats returns a snapshot of all layer statistics.  Every layer keeps
// its counters in atomics, so the snapshot never blocks — or is blocked
// by — concurrent reads and updates.
func (s *Store) Stats() Stats {
	pool := s.pool.Stats()
	lobStats := s.lm.Stats()
	walStats := s.log.Stats()
	return Stats{
		Disk:  s.vol.Stats(),
		Pool:  pool,
		Buddy: s.buddy.Stats(),
		LOB:   lobStats,
		WAL:   walStats,
		Barrier: BarrierStats{
			CatalogDeltaWrites:  s.catDeltaWrites.Load(),
			CatalogCompactions:  s.catCompactions.Load(),
			CatalogPagesWritten: s.catPagesWritten.Load(),
			HeaderWrites:        s.headerWrites.Load(),
			DirPagesSkipped:     s.dirPagesSkipped.Load(),
		},
		DeferredReplaces:    s.deferredReplaces.Load(),
		EarlyReplaceApplies: s.earlyReplaceApplies.Load(),
		ReplaceReadsSaved:   s.replaceReadsSaved.Load(),
		Snap: SnapshotStats{
			SnapshotReads:  lobStats.SnapshotReads,
			EpochAdvances:  s.epochs.Advances(),
			RetiredPages:   s.epochs.RetiredPages(),
			PendingPages:   s.epochs.PendingPages(),
			OpenSnapshots:  s.epochs.Pinned(),
			OldestEpochAge: s.epochs.OldestAge(),
		},
		LogLen:      s.log.Tail(),
		PoolHitRate: pool.HitRate(),
	}
}

// List returns the object names in lexical order.
func (s *Store) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.catalog))
	for n := range s.catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FreePages reports the free data pages across all buddy spaces.
func (s *Store) FreePages() (int, error) { return s.buddy.FreePages() }

// LogTail reports the write-ahead log length in bytes (zero right after
// a checkpoint): the records and, since every log force ends on a page
// boundary, the padding behind each force's last record.  Record bytes
// alone are Stats().WAL.FlushedBytes, padding Stats().WAL.PadBytes.
func (s *Store) LogTail() int64 { return s.log.Tail() }

// Check validates the buddy directories and every object tree.
func (s *Store) Check() error {
	if err := s.buddy.Check(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.catalog {
		if err := e.obj.Check(); err != nil {
			return fmt.Errorf("object %q: %w", e.name, err)
		}
	}
	return nil
}

// CheckNoLeaks verifies page accounting at quiescence: every data page
// is free, reachable from some object descriptor, or retired into an
// epoch awaiting reclamation (pages a pinned snapshot root may still
// reference).  It is not meaningful while transactions are in flight
// (deferred frees hold pages that no descriptor references).
func (s *Store) CheckNoLeaks() error {
	s.mu.Lock()
	reachable := 0
	for _, e := range s.catalog {
		runs, err := e.obj.ReachablePages()
		if err != nil {
			s.mu.Unlock()
			return err
		}
		for _, r := range runs {
			reachable += r.Pages
		}
	}
	s.mu.Unlock()
	free, err := s.buddy.FreePages()
	if err != nil {
		return err
	}
	retired := int(s.epochs.PendingPages())
	quarantined := s.quarantinedPages()
	total := s.opts.NumSpaces * s.opts.SpaceCapacity
	if free+reachable+retired+quarantined != total {
		return fmt.Errorf("%w: %d free + %d reachable + %d retired + %d quarantined != %d total data pages (%d leaked)",
			ErrCorruptStore, free, reachable, retired, quarantined, total,
			total-free-reachable-retired-quarantined)
	}
	return nil
}

// Object is a handle on one named large object, offering the paper's
// operation set directly (the prototype's non-transactional mode: "EOS
// and the application run on a single process, with no support for
// transactions").  For transactional access use Store.Begin.
type Object struct {
	s *Store
	e *catEntry
}

// Name returns the object's name.
func (o *Object) Name() string {
	o.s.mu.Lock() // Rename writes it under the same lock
	defer o.s.mu.Unlock()
	return o.e.name
}

// mutate runs one structural update under the object latch and inside
// an epoch mutation scope: superseded pages the operation frees are
// retired one past the current epoch, and the new root is published
// before the scope ends, so those retires cannot mature before this
// operation's result is visible to snapshot readers.  The root is
// republished even when op fails — lob operations unwind to a
// consistent in-memory tree, and that tree is what latched readers see.
// Reclaim runs outside the mutation scope: an open scope would block
// the epoch advance Reclaim attempts.
func (o *Object) mutate(op func(obj *lob.Object) error) error {
	if err := o.s.epochs.Admit(); err != nil {
		return err
	}
	scope := o.s.epochs.BeginMutation()
	o.e.latch.Lock()
	err := op(o.e.obj)
	o.e.obj.Publish(o.s.opts.SnapshotHistory)
	// Publish is this mode's commit point: refresh the catalog-visible
	// descriptor before the latch drops, while still inside the epoch
	// scope — pages this op freed cannot mature into the durability
	// quarantine until EndMutation, so every barrier that could release
	// them sees the refreshed root.
	o.e.setStableDesc(o.e.obj.EncodeDescriptor())
	o.e.latch.Unlock()
	o.s.epochs.EndMutation(scope)
	if rerr := o.s.epochs.Reclaim(); err == nil {
		err = rerr
	}
	return err
}

// Size returns the object's length in bytes.
func (o *Object) Size() int64 {
	o.e.latch.RLock()
	defer o.e.latch.RUnlock()
	return o.e.obj.Size()
}

// Append appends data at the end of the object (§4.1).
func (o *Object) Append(data []byte) error {
	return o.mutate(func(obj *lob.Object) error { return obj.Append(data) })
}

// AppendWithHint appends data; a positive sizeHint (total expected bytes)
// lets the manager allocate a segment just large enough (§4.1).
func (o *Object) AppendWithHint(data []byte, sizeHint int64) error {
	return o.mutate(func(obj *lob.Object) error { return obj.AppendWithHint(data, sizeHint) })
}

// Appender streams appends into an object, write-latching the object
// around each Write so concurrent readers of other ranges stay safe.
// The appender itself is single-user.
type Appender struct {
	o *Object
	a *lob.Appender
}

// Write appends p to the object.
func (a *Appender) Write(p []byte) (int, error) {
	var n int
	err := a.o.mutate(func(*lob.Object) error {
		var werr error
		n, werr = a.a.Write(p)
		return werr
	})
	return n, err
}

// Close ends the append sequence, trimming the tail segment.
func (a *Appender) Close() error {
	return a.o.mutate(func(*lob.Object) error { return a.a.Close() })
}

// OpenAppender streams appends; Close trims the tail segment.  The
// appender itself is single-user; other access is latched per write.
func (o *Object) OpenAppender(sizeHint int64) *Appender {
	return &Appender{o: o, a: o.e.obj.OpenAppender(sizeHint)}
}

// Read returns n bytes starting at byte off (§4.2).
func (o *Object) Read(off, n int64) ([]byte, error) {
	o.e.latch.RLock()
	defer o.e.latch.RUnlock()
	return o.e.obj.Read(off, n)
}

// ReadAt fills buf from byte off.
func (o *Object) ReadAt(buf []byte, off int64) error {
	o.e.latch.RLock()
	defer o.e.latch.RUnlock()
	return o.e.obj.ReadAt(buf, off)
}

// Replace overwrites bytes in place (§4.2).  Replace never restructures
// the index, so it shares the latch with readers.
func (o *Object) Replace(off int64, data []byte) error {
	o.e.latch.RLock()
	defer o.e.latch.RUnlock()
	o.e.inPlace.Lock()
	defer o.e.inPlace.Unlock()
	return o.e.obj.Replace(off, data)
}

// Insert inserts data at byte off (§4.3.1).
func (o *Object) Insert(off int64, data []byte) error {
	return o.mutate(func(obj *lob.Object) error { return obj.Insert(off, data) })
}

// Delete removes n bytes starting at byte off (§4.3.2).
func (o *Object) Delete(off, n int64) error {
	return o.mutate(func(obj *lob.Object) error { return obj.Delete(off, n) })
}

// Truncate shortens the object to newSize bytes.
func (o *Object) Truncate(newSize int64) error {
	return o.mutate(func(obj *lob.Object) error { return obj.Truncate(newSize) })
}

// Compact rewrites the object into the fewest, largest contiguous
// segments the free space allows, restoring sequential-scan performance
// after heavy editing.
func (o *Object) Compact() error {
	return o.mutate(func(obj *lob.Object) error { return obj.Compact() })
}

// SetThreshold changes the object's segment size threshold T (§4.4).
func (o *Object) SetThreshold(t int) {
	o.e.latch.Lock()
	defer o.e.latch.Unlock()
	o.e.obj.SetThreshold(t)
	o.e.setStableDesc(o.e.obj.EncodeDescriptor())
}

// Threshold returns the object's T.
func (o *Object) Threshold() int {
	o.e.latch.RLock()
	defer o.e.latch.RUnlock()
	return o.e.obj.Threshold()
}

// Usage reports the object's storage footprint.
func (o *Object) Usage() (lob.UsageInfo, error) {
	o.e.latch.RLock()
	defer o.e.latch.RUnlock()
	return o.e.obj.Usage()
}

// Check validates the object's index structure.
func (o *Object) Check() error {
	o.e.latch.RLock()
	defer o.e.latch.RUnlock()
	return o.e.obj.Check()
}
