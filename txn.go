package eos

import (
	"fmt"
	"sync"

	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
	"github.com/eosdb/eos/internal/txn"
	"github.com/eosdb/eos/internal/wal"
)

// deferredAlloc wraps the buddy manager so that pages freed by a
// transaction stay allocated until the transaction ends — the effect of
// the hierarchical release locks §4.5 cites from Starburst: "segments
// that are descendants of a locked segment are also locked, and thus
// they remain unallocated until the holding transaction releases the
// locks".  Because freed pages are never reused mid-transaction and
// index updates are shadowed, an abort can restore a destroyed object
// from its descriptor alone.
type deferredAlloc struct {
	inner lob.Allocator
	mu    sync.Mutex
	frees []pageRun
}

type pageRun struct {
	start disk.PageNum
	n     int
}

func (d *deferredAlloc) Alloc(n int) (disk.PageNum, error) { return d.inner.Alloc(n) }
func (d *deferredAlloc) AllocUpTo(n int) (disk.PageNum, int, error) {
	return d.inner.AllocUpTo(n)
}
func (d *deferredAlloc) MaxSegmentPages() int { return d.inner.MaxSegmentPages() }

func (d *deferredAlloc) Free(p disk.PageNum, n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.frees = append(d.frees, pageRun{p, n})
	return nil
}

// FreeUnpublished is not deferred: no descriptor an abort could restore
// names the pages.
func (d *deferredAlloc) FreeUnpublished(p disk.PageNum, n int) error {
	return d.inner.FreeUnpublished(p, n)
}

// mark returns the current length of the deferred list, so an operation's
// frees can be identified (and cancelled when undoing a destroy).
func (d *deferredAlloc) mark() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.frees)
}

// cancel drops the frees recorded in [lo, hi).
func (d *deferredAlloc) cancel(lo, hi int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := lo; i < hi && i < len(d.frees); i++ {
		d.frees[i] = pageRun{}
	}
}

// apply performs every surviving deferred free.
func (d *deferredAlloc) apply() error {
	d.mu.Lock()
	frees := d.frees
	d.frees = nil
	d.mu.Unlock()
	for _, r := range frees {
		if r.n == 0 {
			continue
		}
		if err := d.inner.Free(r.start, r.n); err != nil {
			return err
		}
	}
	return nil
}

// txnOp is one journal entry for logical undo.
type txnOp struct {
	typ      wal.RecType
	entry    *catEntry
	off      int64
	n        int64
	old      []byte // pre-image for delete undo
	oldSize  int64  // for append undo
	freeLo   int
	freeHi   int
	snapshot []byte           // descriptor snapshot for destroy undo
	plan     *lob.ReplacePlan // replace: its pre-image, and whether it was written home
}

// Txn is one transaction over the store: strict two-phase object locks,
// write-ahead logging, shadowed index updates with deferred frees, and
// logical undo on abort.
//
// Every direct data-page write the transaction performs is recorded in
// its write set.  A commit forces the volume EXCEPT other live
// transactions' write sets, so no commit ever makes a concurrent
// transaction's in-place writes durable; an abort forces its own write
// set so its compensations are durable before its pages become
// reusable.  The only in-place writes recovery must undo are therefore
// those of transactions still in flight at the crash — whose locks were
// never released, so their logged extents are still accurate.
type Txn struct {
	s       *Store
	id      uint64
	alloc   *deferredAlloc
	lm      *lob.Manager
	touched map[uint64]*txnObj
	journal []txnOp
	kept    keptRead
	done    bool

	wmu      sync.Mutex
	writeSet map[disk.PageNum]bool
}

// keptRead is the transaction's one-slot memory of what its last Read
// transferred: the page runs of entry's segments, for a Replace of the
// same bytes that comes next (read-modify-write is what Replace exists
// for, and leaf pages are in no pool: without this the device is paid
// twice).  entry is nil when nothing is kept.
//
// The images are the device's bytes for as long as nobody writes those
// pages — the argument ReplacePlan already rests on.  Other transactions
// cannot: the Read's object lock is held to the end.  This transaction's
// own writes clear the slot: every operation but Replace forgets it on
// entry (begin), settleReplace forgets it when it writes a deferred
// replace home, and Replace forgets it whether or not it used it.  Under
// Options.RangeLocking a read lock covers bytes, not the pages around
// them, so nothing is kept.
type keptRead struct {
	entry *catEntry
	imgs  lob.PageImages
}

// keptReadMaxPages bounds what a Read may leave in the slot, so that a
// transaction which reads 16 MB and then thinks for a minute does not pin
// 16 MB for that minute.
const keptReadMaxPages = 256

// recordWrite adds a data-page run to the transaction's write set.
func (t *Txn) recordWrite(start disk.PageNum, pages int) {
	t.wmu.Lock()
	for i := 0; i < pages; i++ {
		t.writeSet[start+disk.PageNum(i)] = true
	}
	t.wmu.Unlock()
}

// writePages snapshots the write set.
func (t *Txn) writePages() []disk.PageNum {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	out := make([]disk.PageNum, 0, len(t.writeSet))
	for p := range t.writeSet {
		out = append(out, p)
	}
	return out
}

type txnObj struct {
	entry   *catEntry
	prevLSN uint64
	created bool
	// pending is the object's deferred replace, logged at pendingLSN but
	// not yet written home (at most one: the next operation that could
	// read or move its pages settles it first); nil when there is none.
	pending    *lob.ReplacePlan
	pendingLSN uint64
}

// Begin starts a transaction.
func (s *Store) Begin() (*Txn, error) {
	s.mu.Lock()
	id := s.nextTxn
	s.nextTxn++
	s.mu.Unlock()
	t := &Txn{
		s:        s,
		id:       id,
		alloc:    &deferredAlloc{inner: &epochAlloc{s: s}},
		touched:  make(map[uint64]*txnObj),
		writeSet: make(map[disk.PageNum]bool),
	}
	cfg := s.lobConfig()
	cfg.OnDataWrite = t.recordWrite
	var err error
	t.lm, err = lob.NewManager(s.vol, s.pool, t.alloc, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := s.log.Append(&wal.Record{Txn: id, Type: wal.RecBegin}); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.liveTxns[id] = t
	s.mu.Unlock()
	return t, nil
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// LOBStats returns the large-object activity counters of this
// transaction (shadowed index pages, reshuffled bytes, and so on).
func (t *Txn) LOBStats() lob.Stats { return t.lm.Stats() }

func (t *Txn) check() error {
	if t.done {
		return ErrTxnDone
	}
	return nil
}

// begin is check for every operation but Replace: whatever the operation
// does, the read before it is no longer the last thing that happened to
// its pages.
func (t *Txn) begin() error {
	t.kept = keptRead{}
	return t.check()
}

// lockKind classifies an operation for lock granularity purposes.
type lockKind int

const (
	lockRead       lockKind = iota // shared on the touched range
	lockReplace                    // exclusive on the touched range
	lockStructural                 // exclusive on the suffix from off
)

// touch acquires the transaction-duration lock for an operation on the
// named object and, for operations that restructure the object, reroutes
// its allocation through the transaction's deferred allocator.
//
// With whole-object locking (the default) every access locks the root.
// With Options.RangeLocking, reads share their byte range, replaces
// exclude theirs, and the length-changing operations exclude [off, ∞) —
// every byte after the operation's offset shifts, so the suffix is
// exactly the range affected (§4.5).
func (t *Txn) touch(name string, kind lockKind, off, n int64) (*catEntry, error) {
	t.s.mu.Lock()
	e, ok := t.s.catalog[name]
	t.s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	var err error
	if t.s.opts.RangeLocking {
		hi := off + n
		if hi <= off {
			hi = off + 1
		}
		switch kind {
		case lockRead:
			err = t.s.locks.LockRange(t.id, e.id, txn.Shared, off, hi)
		case lockReplace:
			err = t.s.locks.LockRange(t.id, e.id, txn.Exclusive, off, hi)
		case lockStructural:
			err = t.s.locks.LockRange(t.id, e.id, txn.Exclusive, off, txn.MaxRange)
		}
	} else {
		mode := txn.Exclusive
		if kind == lockRead {
			mode = txn.Shared
		}
		err = t.s.locks.LockObject(t.id, e.id, mode)
	}
	if err != nil {
		return nil, err
	}
	if kind == lockRead {
		return e, nil
	}
	// Under range locking only structural operations restructure the
	// tree (replace allocates nothing and leaves the descriptor alone).
	needsRebind := kind == lockStructural || !t.s.opts.RangeLocking
	if _, seen := t.touched[e.id]; !seen {
		t.touched[e.id] = &txnObj{entry: e, prevLSN: e.obj.LSN()}
		if needsRebind {
			e.obj.Rebind(t.lm)
			t.s.mu.Lock()
			e.txnDirty = t.id
			t.s.mu.Unlock()
		}
	} else if needsRebind && e.txnDirty != t.id {
		e.obj.Rebind(t.lm)
		t.s.mu.Lock()
		e.txnDirty = t.id
		t.s.mu.Unlock()
	}
	return e, nil
}

// Create makes a new object inside the transaction.
func (t *Txn) Create(name string, threshold int) error {
	if err := t.begin(); err != nil {
		return err
	}
	t.s.mu.Lock()
	if _, ok := t.s.catalog[name]; ok {
		t.s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	e := &catEntry{id: t.s.nextID, name: name, obj: t.lm.NewObject(threshold), txnDirty: t.id}
	t.s.nextID++
	t.s.catalog[name] = e
	t.s.byID[e.id] = e
	t.s.mu.Unlock()
	if err := t.s.locks.LockObject(t.id, e.id, txn.Exclusive); err != nil {
		return err
	}
	t.touched[e.id] = &txnObj{entry: e, created: true}
	lsn, err := t.s.log.Append(&wal.Record{Txn: t.id, Type: wal.RecCreate, Object: e.id, Data: []byte(name), N: int64(threshold)})
	if err != nil {
		return err
	}
	e.obj.SetLSN(lsn)
	t.journal = append(t.journal, txnOp{typ: wal.RecCreate, entry: e})
	return nil
}

// Destroy removes an object inside the transaction.  Its pages stay
// intact (frees are deferred), so an abort restores it from the
// descriptor snapshot.
func (t *Txn) Destroy(name string) error {
	if err := t.begin(); err != nil {
		return err
	}
	e, err := t.touch(name, lockStructural, 0, 0)
	if err != nil {
		return err
	}
	if err := t.settleReplace(e); err != nil {
		return err
	}
	op := txnOp{typ: wal.RecDestroy, entry: e, snapshot: e.obj.EncodeDescriptor(), freeLo: t.alloc.mark()}
	if _, err := t.s.log.Append(&wal.Record{Txn: t.id, Type: wal.RecDestroy, Object: e.id}); err != nil {
		return err
	}
	e.latch.Lock()
	err = e.obj.Destroy()
	e.latch.Unlock()
	if err != nil {
		return err
	}
	op.freeHi = t.alloc.mark()
	// Only the name goes now.  The entry stays in byID, and so in every
	// catalog barrier with its last committed descriptor, until the
	// destroy commits: somebody else's barrier must not journal a
	// tombstone for an object whose destroy may still abort or crash.
	t.s.mu.Lock()
	delete(t.s.catalog, e.name)
	t.s.mu.Unlock()
	t.journal = append(t.journal, op)
	return nil
}

// Append appends data at the end of the named object.
func (t *Txn) Append(name string, data []byte) error {
	if err := t.begin(); err != nil {
		return err
	}
	t.s.mu.Lock()
	var curSize int64
	if e, ok := t.s.catalog[name]; ok {
		curSize = e.obj.Size()
	}
	t.s.mu.Unlock()
	e, err := t.touch(name, lockStructural, curSize, 0)
	if err != nil {
		return err
	}
	// An append leaves a deferred replace where it is, unless it is about
	// to write — continuing the tail in place — a page the replace has an
	// image of.
	e.latch.RLock()
	rewrites := e.obj.AppendRewrites(t.touched[e.id].pending)
	e.latch.RUnlock()
	if rewrites {
		if err := t.settleReplace(e); err != nil {
			return err
		}
	}
	oldSize := e.obj.Size()
	op := txnOp{typ: wal.RecAppend, entry: e, oldSize: oldSize, freeLo: t.alloc.mark()}
	lsn, err := t.s.log.Append(&wal.Record{Txn: t.id, Type: wal.RecAppend, Object: e.id, Off: oldSize, Data: data})
	if err != nil {
		return err
	}
	e.latch.Lock()
	err = e.obj.Append(data)
	e.latch.Unlock()
	if err != nil {
		return err
	}
	op.freeHi = t.alloc.mark()
	e.obj.SetLSN(lsn)
	t.journal = append(t.journal, op)
	return nil
}

// Insert inserts data at byte off of the named object.
func (t *Txn) Insert(name string, off int64, data []byte) error {
	if err := t.begin(); err != nil {
		return err
	}
	e, err := t.touch(name, lockStructural, off, 0)
	if err != nil {
		return err
	}
	if err := t.settleReplace(e); err != nil {
		return err
	}
	op := txnOp{typ: wal.RecInsert, entry: e, off: off, n: int64(len(data)), freeLo: t.alloc.mark()}
	lsn, err := t.s.log.Append(&wal.Record{Txn: t.id, Type: wal.RecInsert, Object: e.id, Off: off, Data: data})
	if err != nil {
		return err
	}
	e.latch.Lock()
	err = e.obj.Insert(off, data)
	e.latch.Unlock()
	if err != nil {
		return err
	}
	op.freeHi = t.alloc.mark()
	e.obj.SetLSN(lsn)
	t.journal = append(t.journal, op)
	return nil
}

// Delete removes n bytes at byte off of the named object.
func (t *Txn) Delete(name string, off, n int64) error {
	if err := t.begin(); err != nil {
		return err
	}
	e, err := t.touch(name, lockStructural, off, 0)
	if err != nil {
		return err
	}
	if err := t.settleReplace(e); err != nil {
		return err
	}
	old, err := e.obj.Read(off, n)
	if err != nil {
		return err
	}
	op := txnOp{typ: wal.RecDelete, entry: e, off: off, n: n, old: old, freeLo: t.alloc.mark()}
	// The deleted bytes stay in the journal for abort; nothing reads them
	// from the log (redo deletes by Off and N, the undo pass handles only
	// replaces), so the record does not carry them.
	lsn, err := t.s.log.Append(&wal.Record{Txn: t.id, Type: wal.RecDelete, Object: e.id, Off: off, N: n})
	if err != nil {
		return err
	}
	e.latch.Lock()
	err = e.obj.Delete(off, n)
	e.latch.Unlock()
	if err != nil {
		return err
	}
	op.freeHi = t.alloc.mark()
	e.obj.SetLSN(lsn)
	t.journal = append(t.journal, op)
	return nil
}

// Truncate shortens the named object to newSize bytes (a tail delete;
// with newSize 0 it empties the object without reading any data page).
func (t *Txn) Truncate(name string, newSize int64) error {
	if err := t.begin(); err != nil {
		return err
	}
	size, err := t.Size(name)
	if err != nil {
		return err
	}
	if newSize < 0 || newSize > size {
		return fmt.Errorf("eos: truncate to %d of %d", newSize, size)
	}
	if newSize == size {
		return nil
	}
	return t.Delete(name, newSize, size-newSize)
}

// Replace overwrites bytes of the named object in place; the old and new
// values are logged (§4.5: replace is the logged update, the other three
// shadow).  The record carries the physical extents with the pre-image:
// an uncommitted replace page may reach the disk when another
// transaction's barrier forces the volume, so recovery must be able to
// physically undo it.
//
// Under whole-object locking the in-place write is deferred: nobody else
// can see the object before the transaction ends, so the write waits for
// the commit force to cover its pre-image (one log force per transaction)
// and an abort simply drops it.  A later operation of the same
// transaction that could read or move the covered pages settles it first
// (settleReplace).  Under Options.RangeLocking another transaction may
// restructure the suffix behind this range as soon as the latch drops,
// which would leave the plan's page images stale, so there the write
// stays immediate.
func (t *Txn) Replace(name string, off int64, data []byte) error {
	defer func() { t.kept = keptRead{} }() // used below or not, it does not outlive this call
	if err := t.check(); err != nil {
		return err
	}
	e, err := t.touch(name, lockReplace, off, int64(len(data)))
	if err != nil {
		return err
	}
	if err := t.settleReplace(e); err != nil {
		return err
	}
	e.latch.RLock()
	defer e.latch.RUnlock()
	var have *lob.PageImages
	if t.kept.entry == e {
		have = &t.kept.imgs
	}
	plan, err := e.obj.PrepareReplace(off, data, have)
	if err != nil {
		return err
	}
	t.s.replaceReadsSaved.Add(int64(plan.ReadsSaved()))
	exts := plan.Extents()
	wexts := make([]wal.Extent, len(exts))
	for i, x := range exts {
		wexts[i] = wal.Extent{Page: int64(x.Page), Off: int32(x.Off), Len: int32(x.Len)}
	}
	lsn, err := t.s.log.Append(&wal.Record{Txn: t.id, Type: wal.RecReplace, Object: e.id, Off: off, Data: data, OldData: plan.Old(), Extents: wexts})
	if err != nil {
		return err
	}
	to := t.touched[e.id]
	to.pending, to.pendingLSN = plan, lsn
	e.obj.SetLSN(lsn)
	t.journal = append(t.journal, txnOp{typ: wal.RecReplace, entry: e, off: off, n: int64(len(data)), plan: plan})
	if t.s.opts.RangeLocking {
		return t.applyReplace(to)
	}
	t.s.deferredReplaces.Add(1)
	return nil
}

// applyReplace writes to's pending replace home.  WAL rule: the pre-image
// record must be durable BEFORE the in-place write reaches the device
// (data pages are write-through, so the overwrite happens inside Apply,
// not at some later flush) — otherwise a crash could find the old bytes
// gone from the disk while the record that could restore them still sat
// in the volatile log tail.  The force lives here, next to the write, so
// every path to the write passes it; at commit the commit record's force
// has already covered the LSN and this one returns without I/O.  Caller
// holds the object's latch (shared).
func (t *Txn) applyReplace(to *txnObj) error {
	if err := t.s.log.ForceLSN(to.pendingLSN); err != nil {
		return err
	}
	plan := to.pending
	to.pending = nil
	if t.s.opts.RangeLocking {
		// Other transactions may own the bytes around this range in its
		// boundary pages, and share the latch.
		to.entry.inPlace.Lock()
		defer to.entry.inPlace.Unlock()
		return plan.ApplyShared()
	}
	return plan.Apply()
}

// settleReplace writes e's deferred replace home, if it has one, ahead of
// an operation of this transaction that could read or move the pages it
// covers.
func (t *Txn) settleReplace(e *catEntry) error {
	to := t.touched[e.id]
	if to == nil || to.pending == nil {
		return nil
	}
	t.s.earlyReplaceApplies.Add(1)
	t.kept = keptRead{} // the write below changes pages it may hold
	e.latch.RLock()
	defer e.latch.RUnlock()
	return t.applyReplace(to)
}

// Read returns n bytes at byte off of the named object under a shared
// lock (whole-object by default, byte-range with Options.RangeLocking).
//
// The page runs a read of at most keptReadMaxPages pages transferred stay
// with the transaction until its next operation: a Replace of the same
// bytes takes them instead of reading the pages again (see keptRead).
func (t *Txn) Read(name string, off, n int64) ([]byte, error) {
	if err := t.begin(); err != nil {
		return nil, err
	}
	e, err := t.touch(name, lockRead, off, n)
	if err != nil {
		return nil, err
	}
	if err := t.settleReplace(e); err != nil {
		return nil, err
	}
	e.latch.RLock()
	defer e.latch.RUnlock()
	if t.s.opts.RangeLocking {
		return e.obj.Read(off, n)
	}
	data, err := e.obj.ReadKeeping(off, n, &t.kept.imgs)
	if err == nil && t.kept.imgs.Pages(t.s.vol.PageSize()) <= keptReadMaxPages {
		t.kept.entry = e
	} else {
		t.kept = keptRead{}
	}
	return data, err
}

// Size returns the named object's length.
func (t *Txn) Size(name string) (int64, error) {
	if err := t.begin(); err != nil {
		return 0, err
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	e, ok := t.s.catalog[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e.obj.Size(), nil
}

// Commit makes the transaction durable: the commit record is forced to
// the log, deferred replaces are written home behind that force, the
// deferred frees are applied, dirty pages (bar the space directories) are
// flushed and forced, and the catalog is updated with the new descriptors.
func (t *Txn) Commit() error { return t.commit(true) }

// CommitNoForce is the fast commit path: the commit record is appended
// to the group-commit buffer and made durable by a log force covering
// its LSN — usually another committer's batch (the piggyback case) or,
// with no concurrent commit traffic, a force this call leads itself.
// Data pages and the catalog stay volatile; if the system crashes,
// recovery re-executes the logged operations (redo), so durability is
// preserved at a fraction of the commit I/O — a later Commit or
// Checkpoint migrates everything to the data volume.
func (t *Txn) CommitNoForce() error { return t.commit(false) }

func (t *Txn) commit(force bool) error {
	if err := t.begin(); err != nil {
		return err
	}
	readOnly, err := t.commitLog()
	if err != nil {
		return err
	}
	return t.commitBarrier(force && !readOnly)
}

// commitLog is the first half of a commit: from the moment it returns,
// the transaction is committed — its commit record is durable, its
// in-place writes are on the device, and any catalog barrier persists its
// new roots and forces its pages.  It reports whether the transaction
// performed no mutating operation.
func (t *Txn) commitLog() (readOnly bool, err error) {
	t.done = true
	// A transaction that performed no mutating operation has nothing to
	// make durable: its commit record can stay in the log buffer (the
	// next leader force or checkpoint carries it), and there is no data
	// page or catalog state of its own to force.
	readOnly = len(t.journal) == 0
	rec := &wal.Record{Txn: t.id, Type: wal.RecCommit}
	if _, err := t.s.log.Append(rec); err != nil {
		return readOnly, err
	}
	if !readOnly {
		// Group commit: block until some leader's force covers our
		// commit record — one batched log write per concurrent batch of
		// committers instead of one force per transaction.
		if err := t.s.log.ForceLSN(rec.LSN); err != nil {
			return readOnly, err
		}
	}
	// That force covered every pre-image record too: write the deferred
	// replaces home, in log order.  A crash from here on redoes whichever
	// of them the device lost.
	for _, op := range t.journal {
		if to := t.touched[op.entry.id]; op.plan != nil && to.pending == op.plan {
			op.entry.latch.RLock()
			err := t.applyReplace(to)
			op.entry.latch.RUnlock()
			if err != nil {
				return readOnly, err
			}
		}
	}
	t.s.mu.Lock()
	for _, to := range t.touched {
		e := to.entry
		if e.txnDirty == t.id {
			e.txnDirty = 0
			e.obj.Rebind(t.s.lm)
			// Refresh the fallback descriptor NOW: a catalog barrier
			// that runs while the next transaction holds this object
			// dirty persists stableDesc, and the durability quarantine
			// reasons that any barrier started after a commit writes
			// roots at least as new as that commit.  Leaving the
			// pre-commit image here would break that — a freed run
			// could be released while the durable catalog still held a
			// root that references it.
			e.setStableDesc(e.obj.EncodeDescriptor())
		}
		if t.s.catalog[e.name] != e {
			delete(t.s.byID, e.id) // destroyed by this transaction
		}
	}
	// Leave liveTxns in the SAME critical section that refreshes
	// stableDesc.  A barrier persists stableDesc and skips live
	// transactions' write sets, so a window between the two would let
	// another transaction's barrier make these roots durable without the
	// pages they reference — and redo, seeing the roots' LSNs, would not
	// repair them after a crash.
	delete(t.s.liveTxns, t.id)
	t.s.mu.Unlock()
	return readOnly, nil
}

// commitBarrier is the second half of a commit: publish to snapshot
// readers, release the superseded pages, and (with force) make data and
// catalog durable before the locks go.
func (t *Txn) commitBarrier(force bool) error {
	// Publish the committed roots BEFORE applying the deferred frees:
	// the frees retire the superseded pages into the current epoch, and
	// the epoch-reclamation invariant requires every retired batch's
	// replacement root to be visible to snapshot readers before the
	// epoch that holds the batch can advance.
	t.publishTouched()
	// Apply the deferred frees.  The directory pages they dirty stay in
	// the pool: every Open rebuilds the directories from the catalog.
	if err := t.alloc.apply(); err != nil {
		return err
	}
	var err error
	if force {
		t.s.mu.Lock()
		err = t.s.forceDurableLocked(t)
		t.s.mu.Unlock()
	}
	t.s.locks.ReleaseAll(t.id)
	if rerr := t.s.epochs.Reclaim(); err == nil {
		err = rerr
	}
	return err
}

// publishTouched installs each touched object's current root as its
// newest committed version.  Objects the transaction destroyed (no
// longer in the catalog) keep their last pre-destroy version for any
// snapshot still holding it.  The transaction's exclusive locks are
// still held, so no other committer can be publishing these objects.
func (t *Txn) publishTouched() {
	for _, to := range t.touched {
		t.s.mu.Lock()
		live := t.s.byID[to.entry.id] == to.entry
		t.s.mu.Unlock()
		if !live {
			continue
		}
		to.entry.latch.Lock()
		to.entry.obj.Publish(t.s.opts.SnapshotHistory)
		to.entry.latch.Unlock()
	}
}

// forceDurableLocked makes the committed state durable in two barriers,
// skipping pages other live transactions have written in place (minus
// any t also wrote).  The order is load-bearing: the data barrier
// (index and data pages) completes BEFORE the catalog that references
// those pages is written, so no crash state can hold a durable catalog
// root pointing at a page the device never received.  The space
// directories stay dirty in the pool: they are soft state no recovery
// reads.  Caller holds s.mu; t may be nil (checkpoint-style force).
//
// eos:requires s.mu
func (s *Store) forceDurableLocked(t *Txn) error {
	kept, err := s.pool.FlushAllExcept(s.dirPages)
	s.dirPagesSkipped.Add(int64(kept))
	if err != nil {
		return err
	}
	skip := make(map[disk.PageNum]bool)
	for _, other := range s.liveTxns {
		for _, p := range other.writePages() {
			skip[p] = true
		}
	}
	if t != nil {
		t.wmu.Lock()
		for p := range t.writeSet {
			delete(skip, p)
		}
		t.wmu.Unlock()
	}
	if err := s.vol.ForceAllExcept(skip); err != nil {
		return err
	}
	if err := s.catalogBarrier(); err != nil {
		return err
	}
	return s.releaseQuarantined()
}

// Abort rolls the transaction back: operations are undone logically in
// reverse order (delete undoes insert, re-insertion undoes delete, the
// logged pre-image undoes replace, truncation undoes append, the
// descriptor snapshot resurrects a destroyed object), surviving deferred
// frees are applied, and locks are released.  The abort record reaches
// the log only after the compensations and catalog are durable, so an
// "ended" classification at recovery always means the rollback is fully
// on disk.
//
// pre-image the forward operation already logged, and the abort record
// is forced only after the rollback is durable, so write-ahead
// coverage is provided by the forward records.
//
//eoslint:ignore walfirst -- logical undo: every compensation replays a
func (t *Txn) Abort() error {
	if err := t.begin(); err != nil {
		return err
	}
	t.done = true
	for i := len(t.journal) - 1; i >= 0; i-- {
		op := t.journal[i]
		o := op.entry.obj
		var err error
		switch op.typ {
		case wal.RecAppend:
			err = o.Truncate(op.oldSize)
		case wal.RecInsert:
			err = o.Delete(op.off, op.n)
		case wal.RecDelete:
			err = o.Insert(op.off, op.old)
		case wal.RecReplace:
			if !op.plan.Applied() {
				break // never written home: nothing to compensate
			}
			//eoslint:ignore forcedom -- undo replays the pre-image the forward Replace already logged and forced; recovery re-runs the same idempotent compensation
			err = o.Replace(op.off, op.plan.Old())
		case wal.RecCreate:
			err = o.Destroy()
			if err == nil {
				t.s.mu.Lock()
				delete(t.s.catalog, op.entry.name)
				delete(t.s.byID, op.entry.id)
				t.s.mu.Unlock()
			}
		case wal.RecDestroy:
			// The destroyed object's pages are intact: its frees were
			// deferred.  Cancel them and restore the descriptor.
			t.alloc.cancel(op.freeLo, op.freeHi)
			var obj *lob.Object
			obj, err = t.lm.OpenDescriptor(op.snapshot)
			if err == nil {
				//eoslint:ignore racecheck -- the aborting txn still holds this object's exclusive lock-table lock, so no other txn can reach entry.obj; snapshot readers swap roots under epoch protection
				op.entry.obj = obj
				t.s.mu.Lock()
				t.s.catalog[op.entry.name] = op.entry
				t.s.mu.Unlock()
			}
		}
		if err != nil {
			return fmt.Errorf("eos: abort undo failed: %w", err)
		}
	}
	t.s.mu.Lock()
	for _, to := range t.touched {
		if to.entry.txnDirty == t.id {
			to.entry.txnDirty = 0
			to.entry.obj.Rebind(t.s.lm)
		}
		to.entry.obj.SetLSN(to.prevLSN)
		// The compensations may have rebuilt the tree into a different
		// (logically equal) shape whose old nodes are now retired, so
		// the restored root — not the pre-transaction stableDesc image
		// — must be what the next catalog barrier persists.
		to.entry.setStableDesc(to.entry.obj.EncodeDescriptor())
	}
	// Same critical section as the stableDesc refresh, for the reason
	// commitLog gives: the compensations wrote fresh segments these roots
	// reference, and a barrier skips a live transaction's write set.
	delete(t.s.liveTxns, t.id)
	t.s.mu.Unlock()
	// The logical undos rebuilt the touched trees out of fresh pages, so
	// the surviving deferred frees include pages the last published
	// (pre-transaction) roots still name.  Republish the restored roots
	// before applying the frees — same invariant as commit.
	t.publishTouched()
	if err := t.alloc.apply(); err != nil {
		return err
	}
	t.s.mu.Lock()
	// An abort must leave the durable state self-consistent: its
	// compensations were written in place, its frees may let pages be
	// reused, and neither may become durable without the catalog that
	// describes them.  So an abort forces exactly like a durable commit.
	err := t.s.forceDurableLocked(t)
	t.s.mu.Unlock()
	// The abort record is written only AFTER the compensations and the
	// catalog are durable.  Order is load-bearing: recovery does not
	// undo an ended transaction's replaces, so if the abort record
	// could become durable while a compensation write was still
	// volatile, a crash in between would leave the forward replace's
	// post-image in the recovered state with nothing to erase it.
	// Written this late, a crash before the record classifies the
	// transaction as in flight and the forward records' pre-images undo
	// it (idempotently: extents whose compensation did reach the disk
	// fail the post-image check and are left alone).
	if err == nil {
		rec := &wal.Record{Txn: t.id, Type: wal.RecAbort}
		if _, aerr := t.s.log.Append(rec); aerr != nil {
			err = aerr
		} else if ferr := t.s.log.ForceLSN(rec.LSN); ferr != nil {
			err = ferr
		}
	}
	t.s.locks.ReleaseAll(t.id)
	if rerr := t.s.epochs.Reclaim(); err == nil {
		err = rerr
	}
	return err
}
