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
// Transactions (Store.Begin) provide object (root) locking,
// write-ahead logging, shadowed index pages, deferred frees (the effect
// of Starburst's release locks), an abort that reinstates the roots from
// before the transaction, and redo recovery on reopen after a crash (§4.5).
package eos

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
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
	// ErrCorruptStore is returned when the master record or the catalog
	// image fails validation.
	ErrCorruptStore = errors.New("eos: corrupt store")
	// ErrTxnDone is returned when a finished transaction is reused.
	ErrTxnDone = errors.New("eos: transaction already committed or aborted")
	// ErrInUse is returned when Rename or a non-transactional change meets
	// an object a live transaction has written: it may still abort.
	ErrInUse = errors.New("eos: object in use by a transaction")
)

const (
	storeMagic   = 0xE0557011
	storeVersion = 9 // v9: index entries and descriptor roots hold 10-byte (48-bit count, 32-bit page) pairs; v8: insert, append and delete log the splice they made, and no record begins a transaction; v7: recovery only redoes, and the master record carries no stamp; v6: the catalog image lives in a circular log under a two-copy master record; v5: the slot stamp is taken before the data force; v4: slot records carry the log LSN they cover; v3: slots are journals

	// snapshotHistory is how many superseded committed root versions each
	// object retains alongside the newest one.  A snapshot reader holding
	// an epoch pin can step across the retained versions published since
	// its pin, so long scans survive multiple overwrites without ever
	// taking a lock.
	snapshotHistory = 4
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
	// PoolShards is read nowhere: the buffer pool is one lock over one
	// LRU list.
	//
	// Deprecated: ignored; the pool is not sharded.
	PoolShards int
	// Threshold is the default segment size threshold T in pages
	// (default 8); objects may override it individually.
	Threshold int
	// AdaptiveThreshold enables the [Bili91a] fan-out-driven T.
	AdaptiveThreshold bool
	// CatalogPages is read nowhere: the catalog image lives in the log.
	//
	// Deprecated: ignored since format v6.
	CatalogPages int
	// LockTimeout bounds lock waits (default 2s).
	LockTimeout time.Duration
	// MaxRootEntries bounds the root held in each descriptor.
	MaxRootEntries int
	// PageSize, DataPages and LogPages set the geometry of the page
	// files CreateAt formats (defaults 512 bytes, 4096 data pages, 1024
	// log pages).  OpenAt reads the geometry from the files instead, and
	// Format/Open take the volumes they are given.
	PageSize  int
	DataPages disk.PageNum
	LogPages  disk.PageNum
	// DirectIO opens file-backed volumes with O_DIRECT (Linux only;
	// page size must be a multiple of 512), bypassing the OS page
	// cache so benchmarks measure the device rather than RAM.
	DirectIO bool
}

func (o Options) withDefaults(vol disk.Device) (Options, error) {
	if o.PoolFrames == 0 {
		o.PoolFrames = 256
	}
	if o.Threshold == 0 {
		o.Threshold = 8
	}
	if o.LockTimeout == 0 {
		o.LockTimeout = 2 * time.Second
	}
	_, maxCap, err := buddy.Layout(vol.PageSize())
	if err != nil {
		return o, err
	}
	avail := int(vol.NumPages()) - masterPages
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
// object dirty, catalog images use the last committed descriptor
// (stableDesc) so that uncommitted structural state never becomes
// durable; uncommitted replaces never reach the disk at all (they wait in
// the transaction's held set until its commit record is forced).
type catEntry struct {
	id       uint64
	name     string
	obj      *lob.Object
	catBytes int // what it adds to the next checkpoint's image, as measured (Store.measure); under Store.mu

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
	// read in imageLocked safe.
	stableDesc atomic.Pointer[[]byte]

	// latch serializes physical access to the object's in-memory root,
	// index pages and data pages between the store's callers: every
	// operation that writes the object takes it exclusively, every read
	// shared.  Held only for the duration of one operation, never to
	// transaction end (§3.3's short-duration lock); the transaction's
	// object lock is what keeps other transactions out until it ends.
	latch sync.RWMutex
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
	// ownsVols marks volumes built by CreateAt/OpenAt, which Close
	// releases; volumes handed to Format/Open stay the caller's.
	ownsVols bool
	pool     *buffer.Pool
	buddy    *buddy.Manager
	lm       *lob.Manager
	// pending is the write-behind set (lob.Pending): open tails' pages and
	// committed replaces' pages not on the device yet, shared by the store's
	// manager and every transaction's.
	pending *lob.Pending
	log     *wal.Log
	locks   *txn.LockTable
	epochs  *txn.EpochManager
	opts    Options

	mu       sync.Mutex
	catalog  map[string]*catEntry
	byID     map[uint64]*catEntry
	nextID   uint64
	nextTxn  uint64
	liveTxns map[uint64]*Txn
	// masterSeq is the seq of the newest master copy (eos:guardedby mu);
	// the next checkpoint writes masterSeq+1 over the other copy.
	masterSeq uint64
	// catBytes is the size of the image the next checkpoint logs, or more:
	// the sum of the entries' measures (eos:guardedby mu; see measure).
	catBytes int
	// ckptImage is the size of the image a running checkpoint captured and
	// has not logged yet: the log keeps room for it too (measure), though
	// the catalog may shrink meanwhile (eos:guardedby mu).
	ckptImage int
	// unlogged holds the objects a write that logs nothing (the Object API,
	// Create) changed since the last checkpoint captured them; the next
	// checkpoint empties it (see checkpointUnlogged).
	unlogged map[*catEntry]bool // eos:guardedby mu
	// capturing holds the marks the running checkpoint took from unlogged:
	// they count until its master copy is durable.
	capturing map[*catEntry]bool // eos:guardedby mu

	// ckptMu lets one checkpoint run at a time; it holds s.mu only for its
	// capture and its completion (Checkpoint).
	ckptMu sync.Mutex

	// barrierStarted counts checkpoints begun; barrierDurable is the index
	// of the last one whose master copy is forced.  Checkpoints are
	// serialized by ckptMu, but releaseRuns stamps quarantine entries
	// without holding it, hence atomics.
	barrierStarted atomic.Uint64
	barrierDurable atomic.Uint64

	// Checkpoint timing (see BarrierStats): ckptHolds is set while a
	// checkpoint holds s.mu; the durations are in nanoseconds.
	ckptHolds  atomic.Bool
	ckptTime   atomic.Int64
	ckptLocked atomic.Int64
	stalls     atomic.Int64
	stallTime  atomic.Int64

	// barrierReq is set while a backpressure-requested checkpoint (see
	// requestBarrier) is in flight, so concurrent stalled allocators
	// spawn at most one.
	barrierReq atomic.Bool

	// Barrier cost counters (see BarrierStats).
	imageBytes   atomic.Int64
	masterWrites atomic.Int64

	// recovered describes what the Open that built this Store found in the
	// log; written only before Open returns.
	recovered RecoveryStats

	// Deferred-replace counters (see Stats).
	deferredReplaces  atomic.Int64
	replaceReadsSaved atomic.Int64

	// quarMu guards quar, the durability quarantine (never acquired while
	// holding another store lock's critical section beyond s.mu; a run
	// leaves quar only once it is back in the buddy system, which
	// releaseQuarantined does under it).  Runs whose reader grace period has expired wait
	// here, still absent from the buddy directories, until a catalog
	// barrier that STARTED after they arrived completes — only then is
	// every root the durable catalog can resolve to (the image the newest
	// intact master copy names; a torn successor falls back no further than
	// the last completed barrier) guaranteed not to reference them, and only
	// then do they return to the free space.  Without this gate a freed
	// page could be reallocated and overwritten while the on-disk
	// catalog still referenced its old contents — recovery would then
	// rebuild objects from garbage.
	quarMu sync.Mutex
	quar   []quarRun // eos:guardedby quarMu
	// flushing is set from a checkpoint's capture until its pool flush
	// ends.  The index pages of the roots it captured may be in the pool
	// alone, as dirty frames, and a commit meanwhile can release them: the
	// runs releaseRuns frees go to held instead of losing their frames, and
	// the checkpoint discards them once it has flushed (endFlush).
	flushing bool      // eos:guardedby quarMu
	held     []txn.Run // eos:guardedby quarMu
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
	s, err := assemble(vol, logVol, opts, func(pool *buffer.Pool) (*buddy.Manager, error) {
		return buddy.FormatVolume(pool, vol, masterPages, opts.NumSpaces, opts.SpaceCapacity, true)
	})
	if err != nil {
		return nil, err
	}
	// A log volume that held a store before still holds its records, and
	// where one carries the LSN this store's log gives its offset, a scan
	// would take it for this store's.  So the log starts on a lap chosen at
	// random — out of 2^62 positions' worth — rather than at LSN 1, which
	// every store would share.
	lap := uint64(logVol.NumPages()) * uint64(logVol.PageSize())
	s.log = wal.New(logVol, rand.Uint64N(1<<62/lap)*lap)
	s.log.Reserve(catCount) // the image of an empty catalog
	// A data volume that held a store before still holds its master copies,
	// and the higher seq would win over this store's.  They start out blank.
	if err := vol.WritePages(0, masterPages, make([]byte, masterPages*vol.PageSize())); err != nil {
		return nil, err
	}
	// The first checkpoint logs the (empty) catalog image and writes the
	// master record behind the formatted space directories.
	if err := s.Checkpoint(); err != nil {
		return nil, err
	}
	return s, nil
}

// assemble builds the parts Format and Open share over the buddy spaces
// spaces lays out; they attach the log.
func assemble(vol, logVol disk.Device, opts Options, spaces func(*buffer.Pool) (*buddy.Manager, error)) (*Store, error) {
	pool, err := buffer.NewPool(vol, opts.PoolFrames)
	if err != nil {
		return nil, err
	}
	bm, err := spaces(pool)
	if err != nil {
		return nil, err
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
		nextID:   1,
		nextTxn:  1,
		liveTxns: make(map[uint64]*Txn),
		unlogged: make(map[*catEntry]bool),
		catBytes: catCount,
	}
	s.epochs = txn.NewEpochManager(s.releaseRuns)
	// Admission control: throttle mutators once a quarter of the volume
	// sits retired awaiting reader grace periods.  Shadowing retires far
	// more pages than stay live (every update supersedes whole runs), so
	// under a write storm with concurrent snapshot scans the backlog
	// grows at retire-rate × scan-duration; unbounded, it can transiently
	// exhaust a small volume that is almost entirely free space.
	s.epochs.SetBudget(int64(vol.NumPages()) / 4)
	// The write-behind set holds at most what the log can: every pending
	// byte is redo logged since the last checkpoint.
	s.pending = lob.NewPending(vol, int(logVol.NumPages())*logVol.PageSize()/vol.PageSize())
	s.lm, err = lob.NewManager(vol, pool, &epochAlloc{s: s}, s.lobConfig())
	return s, err
}

func (s *Store) lobConfig() lob.Config {
	return lob.Config{
		Threshold:         s.opts.Threshold,
		MaxRootEntries:    s.opts.MaxRootEntries,
		ShadowIndexPages:  true,
		AdaptiveThreshold: s.opts.AdaptiveThreshold,
		// Freed index pages stay readable (including their pool frames)
		// until the epoch manager actually releases them — a published
		// snapshot root may still name them.
		RetainFreedPages: true,
		Pending:          s.pending,
		LogBusy:          s.logBusy,
	}
}

// logBusyShare is the share of the log's capacity in use from which the log
// is busy: an append that fills its tail then writes the tail through and
// names it by reference, rather than log its bytes (lob.Config.LogBusy).
// Below it the log keeps room for the by-value bytes a checkpoint would
// free.
const logBusyShare = 0.5

// logBusy reports whether the log's bytes in use have reached logBusyShare
// of its capacity.
func (s *Store) logBusy() bool {
	return float64(s.log.Used()) >= logBusyShare*float64(int64(s.logVol.NumPages())*int64(s.logVol.PageSize()))
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
type spaceWaiter struct {
	deadline time.Time
	// drained: nothing was left to reclaim before the last retry.  Only a
	// retry that failed after that is final — a checkpoint running
	// concurrently may have given the pages back since the one before.
	drained bool
}

func (w *spaceWaiter) wait(s *Store, err error) (bool, error) {
	if !errors.Is(err, buddy.ErrNoSpace) {
		return false, nil
	}
	drained := s.epochs.PendingPages() == 0 && s.quarantinedPages() == 0
	switch {
	case w.deadline.IsZero():
		w.deadline = time.Now().Add(allocBackpressureWait)
	case time.Now().After(w.deadline), w.drained:
		return false, nil
	case !drained:
		time.Sleep(allocBackpressurePoll)
	}
	w.drained = drained
	if rerr := s.epochs.Reclaim(); rerr != nil {
		return true, rerr
	}
	// Reclaimed runs land in the durability quarantine, not the free
	// space, and only a completed checkpoint lets them out.  Commits and
	// aborts are no barriers: with no checkpoint running, none would ever
	// come — and this caller cannot run one itself (it holds its object's
	// latch, and checkpoints take s.mu, which ranks before latches) — so
	// request one from a clean stack and keep polling.
	if s.quarantinedPages() > 0 {
		s.requestBarrier()
	}
	return true, s.releaseQuarantined()
}

// requestBarrier runs a checkpoint on a fresh goroutine so that a
// caller holding an object latch (allocation backpressure fires
// mid-operation) can get a catalog barrier — and with it the release of
// quarantined free space — without acquiring s.mu out of rank order; a
// checkpoint is the only catalog barrier there is.
// imageLocked reads committed descriptors latch-free (see
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
		_ = s.Checkpoint()
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
// tails, see loadCatalog), so they return to the buddy system now.
func (a *epochAlloc) FreeUnpublished(p disk.PageNum, n int) error {
	return a.s.buddy.FreeUnpublished(p, n)
}

// releaseRuns is the epoch manager's free routine: retired runs whose
// grace period has passed are dropped from the buffer pool (their
// frames may hold never-flushed images of superseded index nodes —
// garbage now) and moved into the durability quarantine.  They do NOT
// return to the buddy system yet: the on-disk catalog may still hold a
// root that references them (a checkpointed pre-update descriptor),
// and recovery's redo splices logged operations into the trees those
// roots describe, keeping their pages.  Reusing such a page before a
// catalog barrier has durably superseded every such root would let a
// crash rebuild committed objects from whatever the new owner wrote
// over it.
func (s *Store) releaseRuns(runs []txn.Run) error {
	// A running checkpoint's image may name the runs, and its pool flush
	// must find their frames; it discards them itself (endFlush).  Either
	// way the frames are gone before the runs can leave the quarantine.
	s.quarMu.Lock()
	held := s.flushing
	if held {
		s.held = append(s.held, runs...)
	}
	s.quarMu.Unlock()
	if !held {
		s.discardRuns(runs)
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

// discardRuns drops the runs' pages from the buffer pool unwritten.
func (s *Store) discardRuns(runs []txn.Run) {
	for _, r := range runs {
		for i := 0; i < r.Pages; i++ {
			s.pool.Discard(r.Start + disk.PageNum(i))
		}
	}
}

// releaseQuarantined returns to the buddy system every quarantined run
// whose stamp precedes the last completed checkpoint.  Every commit point
// (non-transactional publish, transaction commit and abort) refreshes
// stableDesc, so any checkpoint started after a run entered quarantine
// wrote roots that exclude it; once that checkpoint's master copy is
// durable, no image recovery can load still references the run (a torn
// later copy falls back exactly one checkpoint, never further).
func (s *Store) releaseQuarantined() error {
	durable := s.barrierDurable.Load()
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	keep := s.quar[:0]
	var err error
	for _, q := range s.quar {
		if err == nil && q.stamp < durable {
			if err = s.buddy.Free(q.run.Start, q.run.Pages); err == nil {
				continue
			}
		}
		keep = append(keep, q) // not releasable yet, or kept rather than leaked
	}
	s.quar = keep
	return err
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
	// The master record is read from the device — it lives in no pool.
	m, err := readMaster(vol)
	if err != nil {
		return nil, err
	}
	opts.NumSpaces, opts.SpaceCapacity = m.spaces, m.spaceCapacity
	s, err := assemble(vol, logVol, opts, func(pool *buffer.Pool) (*buddy.Manager, error) {
		bm := buddy.NewManager(pool, true)
		for i := 0; i < opts.NumSpaces; i++ {
			sp, err := buddy.OpenSpace(pool, disk.PageNum(masterPages+i*(opts.SpaceCapacity+1)))
			if err != nil {
				return nil, err
			}
			bm.AddSpace(sp)
		}
		return bm, nil
	})
	if err != nil {
		return nil, err
	}
	s.nextID, s.masterSeq = m.nextID, m.seq
	if err := s.recover(m); err != nil {
		return nil, err
	}
	// Publish every recovered object's root so snapshot readers can
	// capture it; recovery itself runs single-threaded, so no reader can
	// have observed the intermediate states.
	s.mu.Lock()
	for _, e := range s.catalog {
		e.latch.Lock()
		e.obj.Publish(snapshotHistory)
		e.latch.Unlock()
	}
	s.mu.Unlock()
	return s, nil
}

// Close fails while transactions are live or snapshots are open.
// Otherwise it checkpoints the store and closes the volumes CreateAt
// and OpenAt built; volumes handed to Format/Open remain the caller's.
// Close sets no closed state, so nothing rejects a later Begin.
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

// CreateAt formats a fresh store in real page files (data.eos, log.eos)
// under dir, creating dir if needed.  The store owns the volumes — Close
// releases them.  An in-memory store is Format over disk.NewVolume.
func CreateAt(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ps, dp, lp := opts.geometry()
	fo := disk.FileOptions{Direct: opts.DirectIO}
	vol, err := disk.CreateFileVolume(filepath.Join(dir, dataFileName), ps, dp, fo)
	if err != nil {
		return nil, err
	}
	logVol, err := disk.CreateFileVolume(filepath.Join(dir, logFileName), ps, lp, fo)
	if err != nil {
		_ = vol.Close()
		return nil, err
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

// OpenAt opens (with crash recovery) a store previously created by
// CreateAt under dir; the geometry comes from the volume headers.
func OpenAt(dir string, opts Options) (*Store, error) {
	fo := disk.FileOptions{Direct: opts.DirectIO}
	vol, err := disk.OpenFileVolume(filepath.Join(dir, dataFileName), fo)
	if err != nil {
		return nil, err
	}
	logVol, err := disk.OpenFileVolume(filepath.Join(dir, logFileName), fo)
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

// Checkpoint makes the current state durable: the pages the committed
// roots name that only memory holds are written and the data volume forced,
// the catalog image is logged and the master record pointed at it, and the
// log is truncated behind the capture and every transaction then live.
//
// One checkpoint runs at a time.  It holds s.mu only at its two ends, so
// that commits and snapshot opens go on while it writes: the capture, and
// then the image, the master copy and the truncation.  The writes between
// them run without it.
//
// It yields the processor before it starts.  On an in-memory volume nothing
// in a checkpoint blocks, so a goroutine its caller has just started (a
// snapshot reader, say) would otherwise wait for another OS thread to be
// scheduled before it ran at all.
func (s *Store) Checkpoint() error {
	runtime.Gosched()
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	begun := time.Now()
	defer func() { s.ckptTime.Add(int64(time.Since(begun))) }()
	// Reclaim every retired page no snapshot still pins, so that the
	// checkpointed free-space directories account for them.  Pages pinned by
	// open snapshots stay allocated — a checkpoint fences snapshots rather
	// than draining them: the pages a pinned root references are unreachable
	// from the catalog, so a crash reclaims them at recovery, and a clean
	// continuation frees them when the last reader exits.
	if err := s.epochs.Drain(); err != nil {
		return err
	}
	s.mu.Lock()
	held := s.holdForCheckpoint()
	ck := s.captureLocked()
	s.releaseForCheckpoint(held)
	s.mu.Unlock()
	err := s.writeCaptured(ck)
	s.mu.Lock()
	defer s.mu.Unlock()
	held = s.holdForCheckpoint()
	defer s.releaseForCheckpoint(held)
	if err != nil {
		s.abandonLocked(ck)
		return err
	}
	return s.completeLocked(ck)
}

// capture is what a checkpoint takes in one critical section under s.mu,
// which no commitLog hand-off of roots can split, and completes from.
type capture struct {
	barrier uint64 // the barrier this checkpoint is (barrierStarted)
	image   []byte // the catalog image: the descriptors committed at the capture
	nextID  uint64
	// start is where recovery's scan starts: the log's tail at the capture,
	// or the first record of a transaction then live — it may commit, and
	// the image does not hold its roots.  Every record the log takes while
	// the checkpoint writes lies behind it too.
	start   uint64
	pending lob.Captured // the write-behind set, taken behind the descriptors
	// unlogged is the objects whose unlogged writes the image captures.
	unlogged map[*catEntry]bool
}

// captureLocked starts a checkpoint: the barrier, the image, the log
// position and the write-behind set, together.
//
// eos:requires s.mu
func (s *Store) captureLocked() *capture {
	// The barrier starts before the descriptors are read: frees that enter
	// the quarantine from now on wait for the next checkpoint.
	ck := &capture{barrier: s.barrierStarted.Add(1), nextID: s.nextID, start: s.log.Tail() + 1, unlogged: s.unlogged}
	// So do the frames of pages the descriptors name, until the pool flush.
	s.quarMu.Lock()
	s.flushing = true
	s.quarMu.Unlock()
	for _, t := range s.liveTxns {
		ck.start = min(ck.start, t.firstLSN)
	}
	ck.image = s.imageLocked()
	s.ckptImage = len(ck.image)
	// The set is taken after the descriptors: every page a descriptor names
	// was installed before the descriptor was stored — a commit installs
	// its replaced pages before it hands its roots over, an append its tail
	// pages before it publishes — so each is in the set taken here, or on
	// the device.
	ck.pending = s.pending.Capture()
	s.unlogged, s.capturing = make(map[*catEntry]bool), ck.unlogged
	return ck
}

// writeCaptured writes what the image names that memory alone holds — the
// captured write-behind set's pages, then the pool's dirty index frames —
// and forces the data volume.  It needs no s.mu, and takes none: the set's
// lock per run, then the pool's.  Nothing it writes needs a log record
// forced first: no transaction writes a page a committed root names before
// its commit record is durable.  A crash from here on recovers from the
// previous master copy by replaying the intact log; the object roots carry
// their true LSNs, so redo of an already-durable update is skipped by the
// idempotence guard rather than applied twice.  No object latch is taken
// either: a latch holder may be stalled in allocation backpressure waiting
// for this very checkpoint.
func (s *Store) writeCaptured(ck *capture) error {
	err := s.pending.Write(ck.pending)
	if err == nil {
		err = s.pool.FlushAll()
	}
	s.endFlush()
	if err != nil {
		return err
	}
	return s.vol.ForceAll()
}

// endFlush discards the frames of the runs released since the capture.  The
// pool flush has written them, or it failed, and recovery starts from the
// previous master copy, whose pages the checkpoint that wrote it flushed.
func (s *Store) endFlush() {
	s.quarMu.Lock()
	held := s.held
	s.flushing, s.held = false, nil
	s.quarMu.Unlock()
	s.discardRuns(held)
}

// completeLocked ends a checkpoint whose captured pages are durable.
//
// eos:requires s.mu
func (s *Store) completeLocked(ck *capture) error {
	// The image, forced.  An image the log has no room for fails here, with
	// nothing named: the store stays usable, and the previous master copy
	// still names an image the log holds.
	image, err := s.appendImage(ck.image)
	if err != nil {
		s.abandonLocked(ck)
		return err
	}
	s.ckptImage = 0
	s.log.Reserve(s.catBytes)
	if err := s.log.ForceLSN(image); err != nil {
		s.abandonLocked(ck)
		return err
	}
	// The master copy, over the older one, forced.
	m := master{seq: s.masterSeq + 1, nextID: ck.nextID, start: ck.start, image: image,
		spaces: s.opts.NumSpaces, spaceCapacity: s.opts.SpaceCapacity}
	if err := s.writeMaster(m); err != nil {
		s.abandonLocked(ck)
		return err
	}
	if err := s.vol.Force(disk.PageNum(m.seq%masterPages), 1); err != nil {
		s.abandonLocked(ck)
		return err
	}
	s.masterSeq = m.seq
	s.barrierDurable.Store(ck.barrier)
	s.capturing = nil
	// Only now may the log go round over what lies in front of the new
	// start: no master copy recovery can load names it any more.  Nor can
	// it reach the quarantined pages.
	s.log.Truncate(ck.start)
	return s.releaseQuarantined()
}

// abandonLocked gives a failed checkpoint's unlogged marks back — no image
// captured those writes — and its image's room in the log.
//
// eos:requires s.mu
func (s *Store) abandonLocked(ck *capture) {
	s.ckptImage = 0
	s.log.Reserve(s.catBytes)
	for e := range ck.unlogged {
		s.unlogged[e] = true
	}
	s.capturing = nil
}

// holdForCheckpoint notes that a checkpoint has taken s.mu, and when;
// releaseForCheckpoint, called before it lets go, counts the time it held
// it.
func (s *Store) holdForCheckpoint() time.Time {
	s.ckptHolds.Store(true)
	return time.Now()
}

func (s *Store) releaseForCheckpoint(since time.Time) {
	s.ckptLocked.Add(int64(time.Since(since)))
	s.ckptHolds.Store(false)
}

// stallStart is called by a Begin or commit critical section before it takes
// s.mu; stallEnd, once it has it, counts its wait when a checkpoint held
// s.mu as it began.
func (s *Store) stallStart() time.Time {
	if !s.ckptHolds.Load() {
		return time.Time{}
	}
	return time.Now()
}

func (s *Store) stallEnd(begun time.Time) {
	if begun.IsZero() {
		return
	}
	s.stalls.Add(1)
	s.stallTime.Add(int64(time.Since(begun)))
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
	e.obj.Publish(snapshotHistory)
	desc := e.obj.EncodeDescriptor()
	e.setStableDesc(desc)
	s.measure(e, len(desc))
	s.unlogged[e] = true
	return &Object{s: s, e: e}, nil
}

// checkpointUnlogged runs a checkpoint when a write that logs nothing has
// changed e since the last checkpoint captured it.  A transaction calls it
// at its first exclusive touch of e, once take has bound e to it: recovery
// splices the transaction's records into the root the image names, which
// must be the root the transaction found.  No such write can follow before
// the transaction ends.  A mark a running checkpoint has captured is not
// cleared before its master copy is durable; this waits for that one and
// runs another.
func (s *Store) checkpointUnlogged(e *catEntry) error {
	s.mu.Lock()
	marked := s.unlogged[e] || s.capturing[e]
	s.mu.Unlock()
	if !marked {
		return nil
	}
	return s.Checkpoint()
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
//
// An object a transaction has written has records in the log, which a
// transaction live across the next checkpoint keeps there; recovery would
// splice them into the object again, onto pages it no longer owns.  Such an
// object is destroyed by a transaction of its own, whose committed destroy
// record tells recovery the object's history is over.
func (s *Store) Destroy(name string) error {
	if logged, err := s.destroyLogged(name); logged {
		return err
	}
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
	var err error
	if s.txnHolds(e) {
		err = fmt.Errorf("%w: %q", ErrInUse, name)
	} else if err = e.obj.Destroy(); err == nil {
		e.obj.Publish(snapshotHistory)
	}
	e.latch.Unlock()
	s.epochs.EndMutation(scope)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	delete(s.catalog, name)
	delete(s.byID, e.id)
	delete(s.unlogged, e)
	s.measure(e, 0)
	s.mu.Unlock()
	return s.epochs.Reclaim()
}

// destroyLogged destroys name in a transaction of its own if a transaction
// has written it (its root carries an LSN) and none holds it now, and
// reports whether it did.
func (s *Store) destroyLogged(name string) (bool, error) {
	s.mu.Lock()
	e, ok := s.catalog[name]
	s.mu.Unlock()
	if !ok || e.obj.LSN() == 0 {
		return false, nil
	}
	e.latch.RLock()
	held := s.txnHolds(e)
	e.latch.RUnlock()
	if held {
		return false, nil // refused as in use
	}
	tx, err := s.Begin()
	if err != nil {
		return true, err
	}
	if err := tx.Destroy(name); err != nil {
		return true, errors.Join(err, tx.Abort())
	}
	return true, tx.Commit()
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

// Rename changes an object's name.  Persisted at the next checkpoint.
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
	e.latch.RLock()
	defer e.latch.RUnlock()
	if s.txnHolds(e) {
		return fmt.Errorf("%w: %q", ErrInUse, oldName)
	}
	delete(s.catalog, oldName)
	e.name = newName
	s.catalog[newName] = e
	s.measure(e, len(e.loadStableDesc()))
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

// BarrierStats attributes the cost of the catalog barriers — checkpoints;
// a commit or abort is none — besides the data pages they force.
type BarrierStats struct {
	// ImageBytes is the catalog image the checkpoints logged, in bytes.
	ImageBytes int64
	// MasterWrites counts the master copies written, one per checkpoint.
	MasterWrites int64
	// Time is what the checkpoints took in all, and Locked the part of it
	// they held the store's lock: the capture, then the image, the master
	// copy and the truncation.
	Time, Locked time.Duration
	// Stalls counts the Begin and commit critical sections that waited on a
	// checkpoint holding the store's lock, and StallTime is their wait.
	Stalls    int64
	StallTime time.Duration
}

// RecoveryStats describes what recovery did when Open built the Store.
type RecoveryStats struct {
	// Redone counts the committed operations redo applied: those whose
	// effect the recovered catalog's roots did not show.
	Redone int64
	// IndexPages counts the pages redo allocated for the index nodes of the
	// trees it spliced; DataPages the others, which stays 0: redo splices
	// the segments the log names and allocates none.
	IndexPages, DataPages int64
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
	// Recovery is what the Open that built the Store recovered (zero after
	// Format).
	Recovery RecoveryStats
	// DeferredReplaces counts transactional replaces, whose in-place write
	// waits for their transaction's commit record to be forced.
	DeferredReplaces int64
	// ReplaceReadsSaved counts the page runs transactional replaces took
	// from the images their transaction's preceding Read had transferred,
	// instead of reading them from the device again.
	ReplaceReadsSaved int64
	LogLen            int64 // LogTail: log bytes in use, padding included
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
			ImageBytes:   s.imageBytes.Load(),
			MasterWrites: s.masterWrites.Load(),
			Time:         time.Duration(s.ckptTime.Load()),
			Locked:       time.Duration(s.ckptLocked.Load()),
			Stalls:       s.stalls.Load(),
			StallTime:    time.Duration(s.stallTime.Load()),
		},
		Recovery:          s.recovered,
		DeferredReplaces:  s.deferredReplaces.Load(),
		ReplaceReadsSaved: s.replaceReadsSaved.Load(),
		Snap: SnapshotStats{
			SnapshotReads:  lobStats.SnapshotReads,
			EpochAdvances:  s.epochs.Advances(),
			RetiredPages:   s.epochs.RetiredPages(),
			PendingPages:   s.epochs.PendingPages(),
			OpenSnapshots:  s.epochs.Pinned(),
			OldestEpochAge: s.epochs.OldestAge(),
		},
		LogLen:      s.log.Used(),
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

// LogTail reports the write-ahead log bytes in use: from the oldest record
// recovery would read — the last checkpoint's image, or the first record
// of a transaction live at it — to the tail.  That counts the records and,
// since every log force ends on a page boundary, the padding behind each
// force's last record.  Record bytes alone are Stats().WAL.FlushedBytes,
// padding Stats().WAL.PadBytes.
func (s *Store) LogTail() int64 { return s.log.Used() }

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
	if o.s.txnHolds(o.e) {
		o.e.latch.Unlock()
		o.s.epochs.EndMutation(scope)
		return o.inUse()
	}
	err := op(o.e.obj)
	o.e.obj.Publish(snapshotHistory)
	// Publish is this mode's commit point: refresh the catalog-visible
	// descriptor before the latch drops, while still inside the epoch
	// scope — pages this op freed cannot mature into the durability
	// quarantine until EndMutation, so every barrier that could release
	// them sees the refreshed root.
	o.e.setStableDesc(o.e.obj.EncodeDescriptor())
	o.e.latch.Unlock()
	o.s.epochs.EndMutation(scope)
	o.s.mu.Lock()
	o.s.measure(o.e, len(o.e.loadStableDesc()))
	o.s.unlogged[o.e] = true // after the new stableDesc: a checkpoint that clears it captured that
	o.s.mu.Unlock()
	if rerr := o.s.epochs.Reclaim(); err == nil {
		err = rerr
	}
	return err
}

// txnHolds reports whether a live transaction holds e dirty, which refuses
// every non-transactional change of it: the transaction's uncommitted root
// must neither be published nor become stableDesc, and the root from before
// it must stay whole for its abort.  The test is that the object's manager
// is not the store's: a transaction switches it under the object latch, so
// a caller that holds the latch has no window between test and change, and
// needs no Store.mu under it.
func (s *Store) txnHolds(e *catEntry) bool { return e.obj.Manager() != s.lm }

// inUse is the error of a change txnHolds refused.  Callers hold no latch.
func (o *Object) inUse() error { return fmt.Errorf("%w: %q", ErrInUse, o.Name()) }

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

// Replace overwrites bytes in place (§4.2).  It leaves the index alone but
// rewrites whole pages, the bytes around the range in its first and last
// page included, so it takes the latch exclusively like every writer.
func (o *Object) Replace(off int64, data []byte) error {
	o.e.latch.Lock()
	if o.s.txnHolds(o.e) {
		o.e.latch.Unlock()
		return o.inUse()
	}
	err := o.e.obj.Replace(off, data)
	o.e.latch.Unlock()
	return err
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
func (o *Object) SetThreshold(t int) error {
	o.e.latch.Lock()
	if o.s.txnHolds(o.e) {
		o.e.latch.Unlock()
		return o.inUse()
	}
	o.e.obj.SetThreshold(t)
	o.e.setStableDesc(o.e.obj.EncodeDescriptor())
	o.e.latch.Unlock()
	return nil
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
