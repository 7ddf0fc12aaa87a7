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
//	obj.Replace(off, data)    // in place: the pages wait in memory for the next checkpoint
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
	"maps"
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
	catBytes int    // what it adds to the next checkpoint's image, as measured (Store.measure); under Store.mu
	changed  uint64 // Store.changes at its last write that logs nothing (Store.changedLocked); under Store.mu

	// stableDesc is the descriptor of the object's last committed
	// (published) state; nil means the object has never committed and
	// is omitted from catalog writes.  It is captured synchronously at
	// every write scope's commit point — an Object operation's, a
	// transaction's commit — and is the root a failed scope goes back to;
	// it is encoded later, when the bytes are needed (lob.Descriptor):
	// the capture, not the encoding, fixes the state.  Not lazily at catalog-write time: the
	// reclamation queue's barrier gate reasons that any checkpoint begun
	// after a freed run was retired persists roots that exclude the run,
	// and catalog writes must be able to proceed while an object's
	// latch is held (a writer stalled in allocation backpressure holds
	// its latch while WAITING for a checkpoint to release freed
	// space).  Writers are serialized per object by the latch or the
	// transaction's exclusive lock; the atomic makes the latch-free
	// read in imageLocked safe, and the encoding is completed once, by
	// whoever asks first (lob.Descriptor.Bytes): a checkpoint's image, or
	// a failed write scope going back (Store.goBack).
	stableDesc atomic.Pointer[lob.Descriptor]

	// latch serializes physical access to the object's in-memory root,
	// index pages and data pages between the store's callers: every
	// operation that writes the object takes it exclusively, every read
	// shared.  Held only for the duration of one operation, never to
	// transaction end (§3.3's short-duration lock); the transaction's
	// object lock is what keeps other transactions out until it ends.
	latch sync.RWMutex
}

// setStableDesc records d as the last committed descriptor.  Callers
// hold the object's write latch or the owning transaction's exclusive
// lock, which serializes stores per object.
func (e *catEntry) setStableDesc(d *lob.Descriptor) { e.stableDesc.Store(d) }

// stableSize is the length of the last committed descriptor's encoding,
// 0 if the object has never committed.  It encodes nothing.
func (e *catEntry) stableSize() int {
	if d := e.stableDesc.Load(); d != nil {
		return d.Size()
	}
	return 0
}

// loadStableDesc returns the last committed descriptor's encoding, or nil
// if the object has never committed.  Safe without the object latch.
func (e *catEntry) loadStableDesc() []byte {
	if d := e.stableDesc.Load(); d != nil {
		return d.Bytes()
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
	// lm is the manager objects are bound to between write scopes.  An
	// Object operation and a transaction each run as a scope it borrows from
	// scopes (Store.scope): a deferredAlloc and lm derived over it.
	lm     *lob.Manager
	scopes sync.Pool
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
	// last is the newest master copy (eos:guardedby mu); the next
	// checkpoint writes last.seq+1 over the other copy.
	last master
	// catBytes is the size of the image the next checkpoint logs, or more:
	// the sum of the entries' measures (eos:guardedby mu; see measure).
	catBytes int
	// changes counts the writes that log nothing (the Object API, Create,
	// Rename, Destroy), and imaged is what it was when the newest durable
	// image was captured: the writes past it reach recovery through no
	// image yet (see checkpointUnlogged).
	changes uint64 // eos:guardedby mu
	imaged  uint64 // eos:guardedby mu

	// ckptMu lets one checkpoint run at a time; it holds s.mu only for its
	// capture and its completion (Checkpoint).
	ckptMu sync.Mutex

	// barrierDurable is the number of the last checkpoint whose master
	// copy is forced (the epoch manager numbers them, StartBarrier): the
	// reclamation queue releases the freed runs stamped before it.
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
	// spawn at most one; Close waits for it on requested.
	barrierReq atomic.Bool
	requested  sync.WaitGroup

	// Barrier cost counters (see BarrierStats).
	imageBytes   atomic.Int64
	masterWrites atomic.Int64

	// recovered describes what the Open that built this Store found in the
	// log; written only before Open returns.
	recovered RecoveryStats

	// Deferred-replace counters (see Stats).
	deferredReplaces  atomic.Int64
	replaceReadsSaved atomic.Int64
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
		catBytes: catCount,
	}
	s.epochs = txn.NewEpochManager(pool)
	// Admission control: throttle mutators once a quarter of the volume
	// sits retired awaiting reader grace periods.  Shadowing retires far
	// more pages than stay live (every update supersedes whole runs), so
	// under a write storm with concurrent snapshot scans the backlog
	// grows at retire-rate × scan-duration; unbounded, it can transiently
	// exhaust a small volume that is almost entirely free space.
	s.epochs.SetBudget(int64(vol.NumPages()) / 4)
	// The write-behind set holds at most the log's capacity in data pages.
	// The limit bounds memory; only a transaction's pending bytes are also
	// redo the log carries since the last checkpoint, not an Object write's.
	s.pending = lob.NewPending(vol, int(logVol.NumPages())*logVol.PageSize()/vol.PageSize())
	s.lm, err = lob.NewManager(vol, pool, &restAlloc{epochAlloc{s: s}}, s.lobConfig())
	s.scopes.New = func() any {
		d := &deferredAlloc{inner: &epochAlloc{s: s}}
		d.lm = s.lm.Derive(d)
		return d
	}
	return s, err
}

func (s *Store) lobConfig() lob.Config {
	return lob.Config{
		Threshold:        s.opts.Threshold,
		MaxRootEntries:   s.opts.MaxRootEntries,
		ShadowIndexPages: true,
		// Freed index pages stay readable (including their pool frames)
		// until the epoch manager actually releases them — a published
		// snapshot root may still name them.
		RetainFreedPages: true,
		Pending:          s.pending,
		LogBusy:          func() bool { return s.log.Busy() },
	}
}

// epochAlloc is the store-wide allocator behind every write scope's
// deferredAlloc: allocations go to the buddy system, waiting out space
// pressure (spaceWaiter), and so do the pages no root ever named
// (FreeUnpublished).  It has no Free: the runs a root named wait in their
// scope until the publish that stops naming them, and then enter the
// reclamation queue.  It delegates through the Store pointer because
// recovery replaces s.buddy wholesale.
type epochAlloc struct{ s *Store }

func (a *epochAlloc) Alloc(n int) (disk.PageNum, error) {
	var w spaceWaiter
	for {
		p, err := a.s.buddy.Alloc(n)
		if err == nil || !w.wait(a.s, err) {
			return p, err
		}
	}
}

func (a *epochAlloc) AllocUpTo(n int) (disk.PageNum, int, error) {
	var w spaceWaiter
	for {
		p, got, err := a.s.buddy.AllocUpTo(n)
		if err == nil || !w.wait(a.s, err) {
			return p, got, err
		}
	}
}

// allocBackpressureWait bounds a failed allocation's wait.  A retired
// run matures one full reader grace period after the superseding
// publish, so when snapshot scans overlap a write storm the steady-state
// backlog is roughly retire-rate × scan-duration — on a small volume that
// can transiently exceed the free space even though almost none of it is
// live data.  A failed allocation therefore waits out up to one grace
// period, reclaiming as pins rotate, before reporting out-of-space.
const allocBackpressureWait = 2 * time.Second

// spaceWaiter paces allocation retries under space pressure: wait
// reports whether the failed allocation should be retried.  The first
// failure reclaims and retries at once (the single-shot fast path);
// later rounds wait for the reclamation queue to advance until nothing
// is left in it or the deadline passes.  Waiting here is safe
// mid-mutation: what the caller's write scope has freed so far waits in
// the scope, outside the queue — the scope's last commit point still names
// it, and a failed scope goes back there —, and nothing the queue holds
// waits for the caller — Reclaim
// never blocks, and snapshot readers take no latches, so the pins being
// waited out always drain — but see EpochManager.Admit for why this path
// is the last resort.
type spaceWaiter struct {
	deadline time.Time
	// drained: nothing was left in the queue before the last retry.  Only
	// a retry that failed after that is final — a checkpoint running
	// concurrently may have given the pages back since the one before.
	drained bool
	seen    uint64 // the queue's advances before the last retry
}

func (w *spaceWaiter) wait(s *Store, err error) bool {
	if !errors.Is(err, buddy.ErrNoSpace) {
		return false
	}
	drained := s.epochs.WaitingPages() == 0
	switch {
	case w.deadline.IsZero():
		w.deadline = time.Now().Add(allocBackpressureWait)
	case time.Now().After(w.deadline), w.drained:
		return false
	case !drained:
		s.epochs.Wait(w.seen, w.deadline)
	}
	w.drained = drained
	s.epochs.Reclaim()
	// Matured runs wait for a checkpoint, and only a completed one lets
	// them into the free space.  Commits and aborts are no barriers: with
	// no checkpoint running, none would ever come — and this caller cannot
	// run one itself (it holds its object's latch, and checkpoints take
	// s.mu, which ranks before latches) — so request one from a clean
	// stack and wait for the queue to release.
	if s.epochs.WaitingPages() > s.epochs.PendingPages() {
		s.requestBarrier()
	}
	w.seen = s.epochs.Seq()
	return true
}

// requestBarrier runs a checkpoint on a fresh goroutine so that a
// caller holding an object latch (allocation backpressure fires
// mid-operation) can get a catalog barrier — and with it the release of
// the freed runs that wait for one — without acquiring s.mu out of rank
// order; a checkpoint is the only catalog barrier there is.
// imageLocked reads committed descriptors latch-free (see
// catEntry.stableDesc), so the checkpoint cannot block on the stalled
// operation's latch.  At most one request runs at a time, and Close waits
// for it; the error is dropped because the requester retries its
// allocation regardless and reports its own failure.
func (s *Store) requestBarrier() {
	s.requested.Add(1) // before the flag: whoever sees it set, sees the count
	if !s.barrierReq.CompareAndSwap(false, true) {
		s.requested.Done()
		return
	}
	go func() {
		defer s.requested.Done()
		defer s.barrierReq.Store(false)
		_ = s.Checkpoint()
	}()
}

// AllocAt never waits: a placement that does not fit at once is not worth
// a stall (lob.Allocator).  A run the reclamation queue holds is still
// allocated in the buddy system, so it is never placed over.
func (a *epochAlloc) AllocAt(p disk.PageNum, n int) bool { return a.s.buddy.AllocAt(p, n) }

func (a *epochAlloc) MaxSegmentPages() int { return a.s.buddy.MaxSegmentPages() }

// FreeUnpublished skips the reclamation queue.  Its reader grace period
// and its barrier gate each protect someone who can still reach the pages
// through a root — a snapshot, or recovery through the durable catalog —
// and these were never in one (a catalog load forgets untrimmed tails, see
// loadCatalog), so they return to the buddy system now.
func (a *epochAlloc) FreeUnpublished(p disk.PageNum, n int) error {
	return a.s.buddy.FreeUnpublished(p, n)
}

// scope borrows a write scope from the store's pool: a deferredAlloc, with
// the store's manager derived over it.  Borrowing one makes no manager and
// no allocation.  An Object operation and a transaction bind the objects
// they write to its manager, and end it at their commit point or go back
// (endScope).
func (s *Store) scope() *deferredAlloc { return s.scopes.Get().(*deferredAlloc) }

// goBack is a failed write scope's way back for e, an Object operation's
// and an aborted transaction's alike, under e's write latch, which the
// caller holds: e gets back its last commit point, stableDesc, in place,
// and the store's manager.  An object the scope created has none: it stays
// bound to the scope's manager, which refuses its stale handles every
// write (txnHolds).  endScope then gives back what the scope allocated.
func (s *Store) goBack(e *catEntry) error {
	d := e.stableDesc.Load()
	if d == nil {
		return nil
	}
	err := e.obj.Reinstate(d)
	e.obj.Rebind(s.lm)
	return err
}

// endScope ends write scope d.  Behind a commit point — every root d
// changed published and in stableDesc — the runs it freed enter the
// reclamation queue, so a reader that can still hold an old root is pinned
// at or below their epoch stamp, and a checkpoint numbered above their
// barrier stamp captures the new descriptors; then the room of a tail no
// root named goes back.  Behind goBack, the frees are dropped — the roots
// gone back to name those pages —, so are its held pages, and every page d
// allocated goes back to the free space at once, its images dropped, which
// may wake a stalled allocation.  d returns to the pool either way, holding
// no page.
func (s *Store) endScope(d *deferredAlloc, committed bool) error {
	var err error
	if committed {
		err = d.apply(s.epochs, s.pending)
	} else {
		d.lm.DropHeld()
		err = d.giveBack(d.lm.Forget)
		s.epochs.Freed()
	}
	s.scopes.Put(d)
	return err
}

// restAlloc is the allocator of the store's manager, which objects are
// bound to between write scopes.  What is done to them there — reads, and
// recovery's redo — frees no run a root names: every operation that does
// runs in a scope.
type restAlloc struct{ epochAlloc }

func (*restAlloc) Free(p disk.PageNum, n int) error {
	return fmt.Errorf("eos: pages %d+%d freed outside an operation", p, n)
}

// releaseDurable returns to the buddy system the head of the reclamation
// queue: the runs stamped before the last completed checkpoint.  That
// checkpoint began after they were retired, so it wrote roots that exclude them
// (every commit point refreshes stableDesc first), and no image recovery
// can load names them any more: a torn later master copy falls back one
// checkpoint, never further.  The images the write-behind set kept of their
// pages go first, before the free space can hand the pages out again.
// Only the checkpoint calls it, under ckptMu.
func (s *Store) releaseDurable() error {
	durable := s.barrierDurable.Load()
	runs := s.epochs.Releasable(durable)
	for i, r := range runs {
		s.pending.Release(r.Start, r.Pages)
		if err := s.buddy.Free(r.Start, r.Pages); err != nil {
			s.epochs.Released(i) // the rest stay queued rather than leak
			return err
		}
	}
	s.epochs.Released(len(runs))
	return nil
}

// PageSize reports the data volume's page size.
func (s *Store) PageSize() int { return s.vol.PageSize() }

// Volume returns the data volume (for I/O statistics).
func (s *Store) Volume() disk.Device { return s.vol }

// BuddyManager exposes the space manager (for statistics and fsck).
func (s *Store) BuddyManager() *buddy.Manager { return s.buddy }

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
	s.nextID, s.last = m.nextID, m
	if err := s.recover(m); err != nil {
		return nil, err
	}
	// Publish every recovered object's root so snapshot readers can
	// capture it; recovery itself runs single-threaded, so no reader can
	// have observed the intermediate states.
	s.mu.Lock()
	for _, e := range s.catalog {
		e.latch.Lock()
		e.obj.Publish()
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
	// A checkpoint a stalled allocation requested may still be running.
	s.requested.Wait()
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
	s.epochs.Reclaim()
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
		return err
	}
	return s.completeLocked(ck)
}

// capture is what a checkpoint takes in one critical section under s.mu,
// which no commitLog hand-off of roots can split, and completes from.
type capture struct {
	barrier uint64 // the barrier this checkpoint is (EpochManager.StartBarrier)
	image   []byte // the catalog image: the descriptors committed at the capture
	nextID  uint64
	// start is where recovery's scan starts: the log's tail at the capture,
	// or the first record of a transaction then live — it may commit, and
	// the image does not hold its roots — or committed and not released
	// (wal.Log.Oldest).  Every record the log takes while the checkpoint
	// writes lies behind it too.
	start   uint64
	pending lob.Captured // the write-behind set, taken behind the descriptors
	changes uint64       // the writes that log nothing the image captures (Store.changes)
}

// captureLocked starts a checkpoint: the barrier, the image, the log
// position and the write-behind set, together.
//
// eos:requires s.mu
func (s *Store) captureLocked() *capture {
	// The barrier starts before the descriptors are read: freed runs
	// retired from now on wait for the next checkpoint, and their frames
	// for this one's pool flush — the descriptors may name them.
	ck := &capture{barrier: s.epochs.StartBarrier(), nextID: s.nextID, start: s.log.Oldest(), changes: s.changes}
	ck.image = s.imageLocked()
	// The set is taken after the descriptors: every page a descriptor names
	// was installed before the descriptor was stored — a commit installs
	// its replaced pages before it hands its roots over, an append its tail
	// pages and an insert or a delete its new segment before it publishes —
	// so each is in the set taken here, or on the device.  A freed page it
	// marks dead for this checkpoint was retired behind the publish that
	// stopped naming it, before the barrier, so no descriptor read here
	// names it (lob.Pending.Retire).
	ck.pending = s.pending.Capture(ck.barrier)
	// Each checkpoint starts a new pricing window, which the objects whose
	// T is not pinned weigh at their next insert or delete, under their own
	// latches (lob.Manager.NewWindow).  A T that moves changes no content:
	// neither the edge nor the move marks the entry changed.
	s.lm.NewWindow()
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
	// The frames of the runs retired since the capture can go: the pool
	// flush has written them, or it failed, and recovery starts from
	// the previous master copy, whose pages the checkpoint that wrote it
	// flushed.
	s.epochs.EndFlush(ck.barrier)
	if err != nil {
		return err
	}
	return s.vol.ForceAll()
}

// completeLocked ends a checkpoint whose captured pages are durable.
//
// eos:requires s.mu
func (s *Store) completeLocked(ck *capture) error {
	// A checkpoint that cannot move the log's start (a live transaction
	// holds it) and captured no write that logs nothing names nothing
	// recovery needs that the newest master copy does not.  It logs its
	// image only to release the runs retired since, out of the room the log
	// keeps for nobody.  Without one it writes no master copy and releases
	// nothing: redo from the newest copy's image still walks the roots it
	// names.
	optional := ck.start == s.last.start && ck.changes == s.imaged
	if optional && len(s.epochs.Releasable(ck.barrier)) == 0 {
		return nil
	}
	// The image, forced.  An image the log has no room for fails here, with
	// nothing named: the store stays usable, and the previous master copy
	// still names an image the log holds.
	image, err := s.appendImage(ck)
	if optional && errors.Is(err, wal.ErrLogFull) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := s.log.ForceLSN(image); err != nil {
		return err
	}
	// The master copy, over the older one, forced.
	m := master{seq: s.last.seq + 1, nextID: ck.nextID, start: ck.start, image: image,
		spaces: s.opts.NumSpaces, spaceCapacity: s.opts.SpaceCapacity}
	if err := s.writeMaster(m); err != nil {
		return err
	}
	if err := s.vol.Force(disk.PageNum(m.seq%masterPages), 1); err != nil {
		return err
	}
	s.last = m
	s.imaged = ck.changes
	s.barrierDurable.Store(ck.barrier)
	// Only now may the log go round over what lies in front of the new
	// start: no master copy recovery can load names it any more.  Nor can
	// it reach the freed runs stamped before this checkpoint.
	s.log.Truncate(ck.start)
	return s.releaseDurable()
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

// Create makes a new empty object.  A positive threshold pins its T; with
// threshold <= 0 it starts at the store default, and its traffic moves it
// at or below that (lob.Policy).
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
	e.setStableDesc(e.obj.PublishDescriptor())
	s.measure(e, e.stableSize())
	s.changedLocked(e)
	return &Object{s: s, e: e}, nil
}

// changedLocked counts a write of e that logs nothing, once its new
// stableDesc is stored: an image captured after the count holds it.
//
// eos:requires s.mu
func (s *Store) changedLocked(e *catEntry) {
	s.changes++
	e.changed = s.changes
}

// checkpointUnlogged runs a checkpoint when a write that logs nothing has
// changed e since the capture of the newest durable image.  A transaction
// calls it at its first exclusive touch of e, once touch has bound e to it:
// recovery splices the transaction's records into the root the image names,
// which must be the root the transaction found, and a splice may copy bytes
// that an Object Replace left only in the write-behind set.  No such write
// can follow before the transaction ends.  A checkpoint that is running
// counts only once its master copy is durable; this waits for that one and
// runs another.
func (s *Store) checkpointUnlogged(e *catEntry) error {
	s.mu.Lock()
	changed := e.changed > s.imaged
	s.mu.Unlock()
	if !changed {
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
// The frees are retired once the empty root is published, so a snapshot
// opened before the destroy keeps reading its captured root undisturbed;
// the pages return to the buddy system when the last such reader exits,
// and a checkpoint has dropped the object.
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
	s.epochs.Admit()
	s.mu.Lock()
	e, ok := s.catalog[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.latch.Lock()
	var err error
	if s.txnHolds(e) {
		err = fmt.Errorf("%w: %q", ErrInUse, name)
	} else {
		err = s.write(e, (*lob.Object).Destroy)
	}
	e.latch.Unlock()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	delete(s.catalog, name)
	delete(s.byID, e.id)
	s.changedLocked(e)
	s.measure(e, 0)
	s.mu.Unlock()
	s.epochs.Reclaim()
	return nil
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
	t := from.Policy()
	if !t.Pinned {
		t.Threshold = 0 // the copy's T follows its own traffic
	}
	to, err := s.Create(dst, t.Threshold)
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
	s.measure(e, e.stableSize())
	s.changedLocked(e)
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
	// PendingPages is the number of retired pages whose reader grace
	// period has not ended (held back by open snapshots or a
	// not-yet-advanced epoch).
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

// Check validates the buddy directories and every object tree, each under
// its object's shared latch.
func (s *Store) Check() error {
	if err := s.buddy.Check(); err != nil {
		return err
	}
	return s.eachObject((*lob.Object).Check)
}

// eachObject runs f on every object, under its shared latch, taken once
// s.mu is released: a writer stalled in allocation backpressure holds its
// latch while it waits for a checkpoint, which takes s.mu.
func (s *Store) eachObject(f func(*lob.Object) error) error {
	s.mu.Lock()
	catalog := maps.Clone(s.catalog)
	s.mu.Unlock()
	for name, e := range catalog {
		e.latch.RLock()
		err := f(e.obj)
		e.latch.RUnlock()
		if err != nil {
			return fmt.Errorf("object %q: %w", name, err)
		}
	}
	return nil
}

// CheckNoLeaks verifies page accounting at quiescence: every data page
// is free, reachable from some object descriptor, or waiting in the
// reclamation queue (for a pinned snapshot root that may still reference
// it, or for the checkpoint that lets it into the free space).  It is not
// meaningful while transactions are in flight (deferred frees hold pages
// that no descriptor references).
func (s *Store) CheckNoLeaks() error {
	reachable := 0
	err := s.eachObject(func(o *lob.Object) error {
		runs, err := o.ReachablePages()
		for _, r := range runs {
			reachable += r.Pages
		}
		return err
	})
	if err != nil {
		return err
	}
	free, err := s.buddy.FreePages()
	if err != nil {
		return err
	}
	waiting := int(s.epochs.WaitingPages())
	total := s.opts.NumSpaces * s.opts.SpaceCapacity
	if free+reachable+waiting != total {
		return fmt.Errorf("%w: %d free + %d reachable + %d waiting != %d total data pages (%d leaked)",
			ErrCorruptStore, free, reachable, waiting, total, total-free-reachable-waiting)
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

// mutate runs one update of o as a write scope of its own (write), under
// the object latch.
func (o *Object) mutate(op func(obj *lob.Object) error) error {
	o.s.epochs.Admit()
	o.e.latch.Lock()
	if o.s.txnHolds(o.e) {
		o.e.latch.Unlock()
		return o.inUse()
	}
	err := o.s.write(o.e, op)
	o.e.latch.Unlock()
	o.s.mu.Lock()
	o.s.measure(o.e, o.e.stableSize())
	o.s.changedLocked(o.e)
	o.s.mu.Unlock()
	o.s.epochs.Reclaim()
	return err
}

// write runs op on e as one write scope, under e's write latch, which the
// caller holds: the pages op frees, and the pages a replace rewrote (its
// held set), wait in the scope while the published root and the catalog's
// descriptor still name the old ones.  The commit point is a transaction's
// (the end of Txn.commitLog, then Txn.commitBarrier): the held pages enter
// the write-behind set, e's root is published, so every snapshot opened
// from now on captures it, the descriptor of what was published becomes
// e's stableDesc, and only then does the scope end.  An op that fails goes
// back to e's last commit point as an abort does, so a failed write changes
// nothing.
func (s *Store) write(e *catEntry, op func(*lob.Object) error) error {
	d := s.scope()
	e.obj.Rebind(d.lm)
	err := op(e.obj)
	if err == nil {
		err = d.lm.PendHeld()
	}
	if err != nil {
		if berr := errors.Join(s.goBack(e), s.endScope(d, false)); berr != nil {
			err = errors.Join(err, berr)
		}
		return err
	}
	e.setStableDesc(e.obj.PublishDescriptor())
	e.obj.Rebind(s.lm)
	return s.endScope(d, true)
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

// Size returns the length in bytes of the object's last committed
// version, the one Read reads; 0 if it has none.
func (o *Object) Size() int64 {
	if v := o.e.obj.Published(); v != nil {
		return v.Size()
	}
	return 0
}

// version returns the object's newest published version: its last commit
// point, which an Object operation's and a transaction's commit publish
// alike.  The caller pins the epoch first (txn.EpochManager.Enter, as read
// does), so the pages the version names stay put while it reads them.  An
// object a transaction created and has not committed has none.
func (o *Object) version() (*lob.RootVersion, error) {
	if v := o.e.obj.Published(); v != nil {
		return v, nil
	}
	return nil, fmt.Errorf("%w: %q has no committed version", ErrNotFound, o.Name())
}

// Append appends data at the end of the object (§4.1).
func (o *Object) Append(data []byte) error {
	return o.mutate(func(obj *lob.Object) error { return obj.Append(data) })
}

// AppendWithHint appends data; a positive sizeHint (total expected bytes)
// lets the manager allocate a segment just large enough (§4.1).  The new
// segment goes right after the object's last one when those pages are free,
// and its pages wait in the write-behind set, so the object's appends
// between two checkpoints reach the device as one run at the next
// checkpoint — which is when they become durable, as every Object write
// does.  An append too large for the set is written at once.
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

// Read returns n bytes starting at byte off (§4.2) of the object's last
// committed version: what a snapshot opened now would read.  Like a
// snapshot it takes no latch, so a writer holding the object does not hold
// it up, and a writer that holds the object — a transaction, or any Object
// write, Replace included — shows none of its bytes before its commit
// point.
func (o *Object) Read(off, n int64) (data []byte, err error) {
	err = o.read(func(v *lob.RootVersion) (err error) {
		data, err = v.Read(off, n)
		return err
	})
	return data, err
}

// ReadAt fills buf from byte off of the object's last committed version, as
// Read does.
func (o *Object) ReadAt(buf []byte, off int64) error {
	return o.read(func(v *lob.RootVersion) error { return v.ReadAt(buf, off) })
}

// read runs f on the object's newest published version, whose pages stay
// pinned while f reads them.
func (o *Object) read(f func(*lob.RootVersion) error) error {
	g := o.s.epochs.Enter()
	defer g.Exit()
	v, err := o.version()
	if err != nil {
		return err
	}
	return f(v)
}

// Replace overwrites bytes in place (§4.2).  It leaves the index alone but
// rewrites whole pages, the bytes around the range in its first and last
// page included, so it runs as a write scope like every writer: it reads the
// bytes those edge pages keep, holds the new page images in the scope, and
// hands them to the write-behind set at its commit point.  The pages reach
// the device at the next checkpoint, as a committed transaction's replaced
// pages do.
func (o *Object) Replace(off int64, data []byte) error {
	return o.mutate(func(obj *lob.Object) error {
		plan, err := obj.PrepareReplace(off, data, nil)
		if err != nil {
			return err
		}
		plan.Hold()
		return nil
	})
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

// SetThreshold changes the object's segment size threshold T (§4.4) and
// pins it: the object's traffic no longer moves it.  It is a commit point
// like every other Object write.
func (o *Object) SetThreshold(t int) error {
	return o.mutate(func(obj *lob.Object) error {
		obj.SetThreshold(t)
		return nil
	})
}

// Threshold returns the object's T.
func (o *Object) Threshold() int { return o.Policy().Threshold }

// Policy returns the object's T, whether its creator or SetThreshold pinned
// it, and the modelled cost of the traffic that moves an unpinned T in the
// current checkpoint window (lob.Policy).
func (o *Object) Policy() lob.Policy {
	o.e.latch.RLock()
	defer o.e.latch.RUnlock()
	return o.e.obj.Policy()
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
