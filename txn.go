package eos

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
	"github.com/eosdb/eos/internal/txn"
	"github.com/eosdb/eos/internal/wal"
)

// deferredAlloc is one write scope's allocator over the store's — an Object
// operation's or a transaction's, the only writer allocator there is — and
// lm the store's manager derived over it, which the scope binds the objects
// it writes to.  Pages the scope frees stay allocated until it ends — the
// effect of the hierarchical release locks §4.5 cites from Starburst:
// "segments that are descendants of a locked segment are also locked, and
// thus they remain unallocated until the holding transaction releases the
// locks" —, and so does the room of an open tail it found; it records the
// runs it hands out.  Index updates are shadowed and segments never
// overwritten, so the roots of the scope's last commit point stay whole:
// behind its publish the frees are retired, and a scope that fails goes
// back to those roots and gives back what it allocated (Store.endScope).
// Scopes are pooled (Store.scope), and the lists keep their memory.
type deferredAlloc struct {
	lm     *lob.Manager
	inner  spaceAllocator
	mu     sync.Mutex
	frees  []txn.Run // eos:guardedby mu
	room   []txn.Run // eos:guardedby mu -- FreeUnpublished of pages the scope did not allocate
	allocs []txn.Run // eos:guardedby mu -- allocated by the scope and not given back
}

// spaceAllocator is the store's allocator as a write scope sees it
// (epochAlloc): it has no Free, as every scope holds its frees until its
// publish.
type spaceAllocator interface {
	Alloc(n int) (disk.PageNum, error)
	AllocUpTo(n int) (disk.PageNum, int, error)
	AllocAt(p disk.PageNum, n int) bool
	FreeUnpublished(p disk.PageNum, n int) error
	MaxSegmentPages() int
}

func (d *deferredAlloc) Alloc(n int) (disk.PageNum, error) {
	p, err := d.inner.Alloc(n)
	if err == nil {
		d.record(p, n)
	}
	return p, err
}

func (d *deferredAlloc) AllocUpTo(n int) (disk.PageNum, int, error) {
	p, got, err := d.inner.AllocUpTo(n)
	if err == nil {
		d.record(p, got)
	}
	return p, got, err
}

func (d *deferredAlloc) AllocAt(p disk.PageNum, n int) bool {
	if !d.inner.AllocAt(p, n) {
		return false
	}
	d.record(p, n)
	return true
}

func (d *deferredAlloc) record(p disk.PageNum, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.allocs = append(d.allocs, txn.Run{Start: p, Pages: n})
}

func (d *deferredAlloc) MaxSegmentPages() int { return d.inner.MaxSegmentPages() }

func (d *deferredAlloc) Free(p disk.PageNum, n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.frees = append(d.frees, txn.Run{Start: p, Pages: n})
	return nil
}

// FreeUnpublished passes on at once pages the scope allocated: no root it
// could go back to names them.  Other pages — the room of an open tail the
// scope found — wait for its commit point: the root from before the scope
// claims them.  The pages are always part of one
// run (lob.Allocator.FreeUnpublished).
func (d *deferredAlloc) FreeUnpublished(p disk.PageNum, n int) error {
	end := func(r txn.Run) disk.PageNum { return r.Start + disk.PageNum(r.Pages) }
	d.mu.Lock()
	i := slices.IndexFunc(d.allocs, func(r txn.Run) bool { return r.Start <= p && p < end(r) })
	if i < 0 {
		d.room = append(d.room, txn.Run{Start: p, Pages: n})
		d.mu.Unlock()
		return nil
	}
	r, e := d.allocs[i], p+disk.PageNum(n)
	d.allocs = slices.Delete(d.allocs, i, i+1)
	if r.Start < p {
		d.allocs = append(d.allocs, txn.Run{Start: r.Start, Pages: int(p - r.Start)})
	}
	if e < end(r) {
		d.allocs = append(d.allocs, txn.Run{Start: e, Pages: int(end(r) - e)})
	}
	d.mu.Unlock()
	return d.inner.FreeUnpublished(p, n)
}

// apply ends a scope behind its commit point: the frees enter the
// reclamation queue em, their pages' images in the write-behind set p die
// for every checkpoint begun from now on, and the room no root named goes
// back to the free space.  The scope's owner is its only user, so the lists
// keep their memory for the scope's next use: they are reset before the
// runs are read, and nothing appends meanwhile.
func (d *deferredAlloc) apply(em *txn.EpochManager, p *lob.Pending) error {
	d.mu.Lock()
	frees, room := d.frees, d.room
	d.frees, d.room, d.allocs = d.frees[:0], d.room[:0], d.allocs[:0]
	d.mu.Unlock()
	barrier := em.Retire(frees)
	for _, r := range frees {
		p.Retire(r.Start, r.Pages, barrier)
	}
	for _, r := range room {
		if err := d.inner.FreeUnpublished(r.Start, r.Pages); err != nil {
			return err
		}
	}
	return nil
}

// giveBack ends a scope that went back: the deferred frees are dropped —
// the reinstated roots name those pages — and every page the scope
// allocated goes back to the free space at once, after forget has dropped
// its images.
func (d *deferredAlloc) giveBack(forget func(disk.PageNum, int)) error {
	d.mu.Lock()
	allocs := d.allocs
	d.frees, d.room, d.allocs = d.frees[:0], d.room[:0], d.allocs[:0]
	d.mu.Unlock()
	var err error
	for _, r := range allocs {
		forget(r.Start, r.Pages)
		if ferr := d.inner.FreeUnpublished(r.Start, r.Pages); err == nil {
			err = ferr
		}
	}
	return err
}

// Txn is one transaction over the store: strict two-phase object locks,
// write-ahead logging, shadowed index updates with deferred frees, and an
// abort that reinstates the roots from before the transaction.  It runs as
// one write scope, as an Object operation does: the same allocator, the
// same commit point and the same way back.
//
// A transaction's replaces write nothing before its commit record is
// forced: their page images wait in its manager's held set (lob/held.go),
// where its own later operations read them.  Its other operations write only
// pages it allocated, and the room of an open tail.  So the roots it found
// stay whole until it ends, and no operation needs undoing: an abort, like
// recovery for a transaction without a commit record, just goes back to
// them.  A commit is durable at its log force: it leaves the replaced pages
// in the write-behind set, and everything else — index pages in the pool,
// the new descriptors, the data volume's force — to the next checkpoint;
// until then recovery redoes it from its log records.
type Txn struct {
	s       *Store
	id      uint64
	scope   *deferredAlloc // the write scope it runs as; its objects are bound to scope.lm
	touched []*catEntry    // the objects it holds exclusively
	kept    keptRead
	wrote   bool // an operation record is logged
	// through: a logged splice names pages the transaction wrote through,
	// which its commit forces before its record (forceData).
	through bool
	// doom is the error of an operation that failed behind its logged
	// record: the transaction can only abort, and Commit does.
	doom error
	done bool
}

// keptRead is the transaction's one-slot memory of what its last Read
// transferred: the page runs of entry's segments, for a Replace of the
// same bytes that comes next (read-modify-write is what Replace exists
// for, and leaf pages are in no pool: without this the device is paid
// twice).  entry is nil when nothing is kept.
//
// The images are the pages' bytes as the transaction sees them for as long
// as nobody writes those pages — the argument ReplacePlan already rests on.
// Other transactions cannot: the Read's object lock is held to the end.
// This transaction's own writes clear the slot: every operation but Replace
// forgets it on entry (begin), and Replace forgets it whether or not it used
// it.
type keptRead struct {
	entry *catEntry
	imgs  lob.PageImages
}

// keptReadMaxPages bounds what a Read may leave in the slot, so that a
// transaction which reads 16 MB and then thinks for a minute does not pin
// 16 MB for that minute.
const keptReadMaxPages = 256

// Begin starts a transaction.  It logs nothing: its first operation's
// record begins it in the log, which keeps every record from there on while
// it is live.
func (s *Store) Begin() (*Txn, error) {
	t := &Txn{s: s, scope: s.scope()}
	stalled := s.stallStart()
	s.mu.Lock()
	s.stallEnd(stalled)
	t.id = s.nextTxn
	s.nextTxn++
	s.liveTxns[t.id] = t
	s.mu.Unlock()
	return t, nil
}

// logOp appends the record of one of the transaction's operations.
func (t *Txn) logOp(r *wal.Record) (uint64, error) {
	r.Txn = t.id
	lsn, err := t.s.log.Append(r)
	t.wrote = t.wrote || err == nil
	return lsn, err
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

func (t *Txn) check() error {
	if t.done {
		return ErrTxnDone
	}
	return t.doom
}

// begin is check for every operation but Replace: whatever the operation
// does, the read before it is no longer the last thing that happened to
// its pages.
func (t *Txn) begin() error {
	t.kept = keptRead{}
	return t.check()
}

// touch acquires the transaction-duration lock on the named object's root
// (§4.5: "locking the root of the large object") — shared for a read,
// exclusive for anything that writes — and, for a writer, binds the object
// to the transaction's write scope.
func (t *Txn) touch(name string, mode txn.Mode) (*catEntry, error) {
	t.s.mu.Lock()
	e, ok := t.s.catalog[name]
	t.s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err := t.s.locks.LockObject(t.id, e.id, mode); err != nil {
		return nil, err
	}
	if mode == txn.Shared {
		return e, nil
	}
	if !slices.Contains(t.touched, e) {
		// Bind e to the transaction's write scope, which marks it held
		// (Store.txnHolds): an abort goes back to its last commit point,
		// stableDesc, which no other writer can move from here on.  Under
		// the write latch: a diagnostic may be walking the tree, and a
		// non-transactional writer tests the binding under it.
		e.latch.Lock()
		e.obj.Rebind(t.scope.lm)
		e.latch.Unlock()
		t.touched = append(t.touched, e)
		if err := t.s.checkpointUnlogged(e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Create makes a new object inside the transaction; threshold is as for
// Store.Create.
func (t *Txn) Create(name string, threshold int) error {
	if err := t.begin(); err != nil {
		return err
	}
	t.s.mu.Lock()
	if _, ok := t.s.catalog[name]; ok {
		t.s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	e := &catEntry{id: t.s.nextID, name: name, obj: t.scope.lm.NewObject(threshold)}
	t.s.nextID++
	t.s.catalog[name] = e
	t.s.byID[e.id] = e
	t.s.measure(e, e.obj.DescriptorSize())
	t.s.mu.Unlock()
	err := t.s.locks.LockObject(t.id, e.id, txn.Exclusive)
	var lsn uint64
	if err == nil {
		lsn, err = t.logOp(&wal.Record{Type: wal.RecCreate, Object: e.id, Data: []byte(name), N: int64(threshold)})
	}
	if err != nil {
		// Nothing logged: the name is free again.
		t.s.mu.Lock()
		delete(t.s.catalog, name)
		delete(t.s.byID, e.id)
		t.s.measure(e, 0)
		t.s.mu.Unlock()
		return err
	}
	e.obj.SetLSN(lsn)
	t.touched = append(t.touched, e)
	return nil
}

// Destroy removes an object inside the transaction.  Its pages stay
// intact (frees are deferred), so an abort reinstates its root.  A destroy
// that fails behind its logged record dooms the transaction, as a splice
// does.
func (t *Txn) Destroy(name string) error {
	if err := t.begin(); err != nil {
		return err
	}
	e, err := t.touch(name, txn.Exclusive)
	if err != nil {
		return err
	}
	if _, err := t.logOp(&wal.Record{Type: wal.RecDestroy, Object: e.id}); err != nil {
		return err
	}
	e.latch.Lock()
	err = e.obj.Destroy()
	e.latch.Unlock()
	if err != nil {
		t.doom = err
		return err
	}
	// Only the name goes now.  The entry stays in byID, and so in every
	// checkpoint with its last committed descriptor, until the destroy
	// commits: a checkpoint's image must not drop an object whose destroy
	// may still abort or crash.
	t.s.mu.Lock()
	delete(t.s.catalog, e.name)
	t.s.mu.Unlock()
	return nil
}

// Append appends data at the end of the named object.
func (t *Txn) Append(name string, data []byte) error {
	return t.splice(name, wal.RecAppend, func(o *lob.Object) (*lob.Splice, error) { return o.PrepareAppend(data) })
}

// Insert inserts data at byte off of the named object.
func (t *Txn) Insert(name string, off int64, data []byte) error {
	return t.splice(name, wal.RecInsert, func(o *lob.Object) (*lob.Splice, error) { return o.PrepareInsert(off, data) })
}

// Delete removes n bytes at byte off of the named object.
func (t *Txn) Delete(name string, off, n int64) error {
	return t.splice(name, wal.RecDelete, func(o *lob.Object) (*lob.Splice, error) { return o.PrepareDelete(off, n) })
}

// splice runs one structural update in the three steps of §4.5's shadowing
// (lob/splice.go), under the object's write latch: prepare writes the new
// segments through to pages no root names, the record logs the splice the
// update makes — its segments by reference, the bytes it leaves in memory by
// value —, and Apply makes it.  The commit forces what the prepare wrote
// before its record (forceData).  An Apply that fails dooms the
// transaction: recovery would redo the logged splice, so it must not
// commit.
func (t *Txn) splice(name string, typ wal.RecType, prepare func(*lob.Object) (*lob.Splice, error)) error {
	if err := t.begin(); err != nil {
		return err
	}
	e, err := t.touch(name, txn.Exclusive)
	if err != nil {
		return err
	}
	e.latch.Lock()
	defer e.latch.Unlock()
	sp, err := prepare(e.obj)
	if err != nil || sp == nil {
		return err
	}
	lsn, err := t.logOp(spliceRecord(typ, e.id, sp))
	if err != nil {
		sp.Cancel()
		return err
	}
	t.through = t.through || sp.WroteThrough()
	if err := e.obj.Apply(sp); err != nil {
		t.doom = err
		return err
	}
	e.obj.SetLSN(lsn)
	return nil
}

// spliceRecord is the log record of a structural update of object id.
func spliceRecord(typ wal.RecType, id uint64, sp *lob.Splice) *wal.Record {
	r := &wal.Record{Type: typ, Object: id, Off: sp.Lo, N: sp.Hi - sp.Lo, Data: sp.Data, Extents: make([]wal.Extent, len(sp.Entries))}
	for i, x := range sp.Entries {
		r.Extents[i] = wal.Extent{Start: uint64(x.Start), Pages: uint32(x.Pages), Bytes: x.Bytes}
	}
	return r
}

// recordSplice is the splice a structural record logged.
func recordSplice(r *wal.Record) *lob.Splice {
	sp := &lob.Splice{Lo: r.Off, Hi: r.Off + r.N, Data: r.Data, Entries: make([]lob.Extent, len(r.Extents))}
	for i, x := range r.Extents {
		sp.Entries[i] = lob.Extent{Start: disk.PageNum(x.Start), Pages: int(x.Pages), Bytes: x.Bytes}
	}
	return sp
}

// Truncate shortens the named object to newSize bytes (a tail delete;
// with newSize 0 it empties the object without reading any data page).
// It reads the size under the exclusive lock and the write latch, where
// no other writer can move it; a newSize past it is out of bounds.
func (t *Txn) Truncate(name string, newSize int64) error {
	return t.splice(name, wal.RecDelete, func(o *lob.Object) (*lob.Splice, error) {
		return o.PrepareDelete(newSize, o.Size()-newSize)
	})
}

// Replace overwrites bytes of the named object in place; the operation is
// logged (§4.5: replace is the logged update, the other three shadow).
//
// The in-place write waits for the commit record's force (one log force per
// transaction): the page images stay in the transaction's held set, where its
// own later operations on the object read them, and enter the write-behind
// set behind that force; an abort simply drops them.  A write that can reach
// the device only behind its commit record needs no undo, so the record
// carries what redo needs, Off and Data, and no pre-image.
func (t *Txn) Replace(name string, off int64, data []byte) error {
	defer func() { t.kept = keptRead{} }() // used below or not, it does not outlive this call
	if err := t.check(); err != nil {
		return err
	}
	e, err := t.touch(name, txn.Exclusive)
	if err != nil {
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
	lsn, err := t.logOp(&wal.Record{Type: wal.RecReplace, Object: e.id, Off: off, Data: data})
	if err != nil {
		return err
	}
	plan.Hold()
	e.obj.SetLSN(lsn)
	t.s.deferredReplaces.Add(1)
	return nil
}

// Read returns n bytes at byte off of the named object under a shared
// lock on the object.
//
// The page runs a read of at most keptReadMaxPages pages transferred stay
// with the transaction until its next operation: a Replace of the same
// bytes takes them instead of reading the pages again (see keptRead).
func (t *Txn) Read(name string, off, n int64) ([]byte, error) {
	if err := t.begin(); err != nil {
		return nil, err
	}
	e, err := t.touch(name, txn.Shared)
	if err != nil {
		return nil, err
	}
	e.latch.RLock()
	defer e.latch.RUnlock()
	data, err := e.obj.ReadKeeping(off, n, &t.kept.imgs)
	if err == nil && t.kept.imgs.Pages(t.s.vol.PageSize()) <= keptReadMaxPages {
		t.kept.entry = e
	} else {
		t.kept = keptRead{}
	}
	return data, err
}

// Size returns the named object's length, its own writes included.
func (t *Txn) Size(name string) (int64, error) {
	if err := t.begin(); err != nil {
		return 0, err
	}
	e, err := t.touch(name, txn.Shared)
	if err != nil {
		return 0, err
	}
	e.latch.RLock()
	defer e.latch.RUnlock()
	return e.obj.Size(), nil
}

// Commit makes the transaction durable at its log force: the commit
// record is appended to the group-commit buffer and made durable by a
// force covering its LSN — usually another committer's batch (the
// piggyback case) or, with no concurrent commit traffic, a force this
// call leads itself.  Behind that force the held replaced pages enter the
// write-behind set, the roots are published and handed to the catalog, and
// the deferred frees are retired.  Nothing reaches the data volume: the
// replaced pages and index pages stay in memory until a checkpoint writes
// them in address order (or the set's limit, or the pool's eviction, does
// first), and the new descriptors reach the durable catalog at the next
// checkpoint.  Until then a crash recovers the transaction by redoing its
// log records from the older roots, whose freed pages wait in the
// reclamation queue until a checkpoint has persisted the new roots.
//
// A transaction an operation doomed (Txn.splice, Txn.Destroy) aborts
// instead, and Commit returns that operation's error.
func (t *Txn) Commit() error {
	if t.doom != nil && !t.done {
		if err := t.Abort(); err != nil {
			return errors.Join(t.doom, err)
		}
		return t.doom
	}
	if err := t.begin(); err != nil {
		return err
	}
	if err := t.commitLog(); err != nil {
		return err
	}
	return t.commitBarrier()
}

// commitLog is the first half of a commit: from the moment it returns,
// the transaction is committed — its commit record is durable and its
// replaced pages wait in the write-behind set.
func (t *Txn) commitLog() error {
	// The roots this commit hands the catalog go into the next checkpoint's
	// image: the log must keep room for them before it takes the commit
	// record.  A commit the full log refuses leaves the transaction to abort.
	stalled := t.s.stallStart()
	t.s.mu.Lock()
	t.s.stallEnd(stalled)
	for _, e := range t.touched {
		t.s.measure(e, max(e.stableSize(), e.obj.DescriptorSize()))
	}
	t.s.mu.Unlock()
	// A transaction that logged no operation has nothing to make durable,
	// and logs nothing.  Any other blocks until some leader's force covers
	// its commit record — one batched log write per concurrent batch of
	// committers instead of one force per transaction.  The pages its
	// records name by reference are forced first: once the record is in the
	// log buffer, any committer's force may make it durable.
	if t.wrote {
		if err := t.forceData(); err != nil {
			return err
		}
		lsn, err := t.s.log.Append(&wal.Record{Txn: t.id, Type: wal.RecCommit})
		if err != nil {
			return err
		}
		t.done = true
		if err := t.s.log.ForceLSN(lsn); err != nil {
			return err
		}
		// The transaction is committed: its replaced pages enter the
		// write-behind set, which keeps them until a checkpoint writes them
		// (or the set's limit does).  A crash before the write redoes them
		// from their records.  The object locks keep every other writer off
		// the pages.  They go in before the roots are handed over: a
		// checkpoint that captures these roots captures the set after them,
		// with the pages in it.
		if err := t.scope.lm.PendHeld(); err != nil {
			return err
		}
	}
	t.done = true
	return nil
}

// forceData forces the data volume when a logged splice of the
// transaction names pages it wrote through (Txn.splice): they must be on the
// device before its commit record can be.
func (t *Txn) forceData() error {
	if !t.through {
		return nil
	}
	return t.s.vol.ForceAll()
}

// commitBarrier is the second half of a commit, its commit point, the same
// as an Object operation's (Store.write): each root the transaction holds
// is published, and handed to the catalog as its stableDesc; then the
// objects go back to the store's manager, the write scope ends — its frees
// enter the reclamation queue, behind the publish — and the locks are
// released.  It makes nothing durable: the commit record's force did.
func (t *Txn) commitBarrier() error {
	descs := make([]*lob.Descriptor, len(t.touched))
	for i, e := range t.touched {
		e.latch.Lock()
		descs[i] = e.obj.PublishDescriptor()
		e.latch.Unlock()
	}
	stalled := t.s.stallStart()
	t.s.mu.Lock()
	t.s.stallEnd(stalled)
	for i, e := range t.touched {
		// A checkpoint that runs while the next transaction holds this
		// object persists stableDesc, and the reclamation queue's barrier
		// gate reasons that any checkpoint begun after a commit's retire
		// writes roots at least as new as that commit.  No
		// non-transactional writer can change the root meanwhile: the
		// object is still bound to the transaction's scope.
		if t.s.catalog[e.name] == e {
			e.setStableDesc(descs[i])
		} else {
			delete(t.s.byID, e.id) // destroyed by this transaction
		}
		t.s.measure(e, e.stableSize())
	}
	// Release the log in the SAME critical section that refreshes
	// stableDesc.  A checkpoint captures the descriptors and the log's
	// oldest held record in one critical section and truncates the log
	// behind it, so a window between the two would let it drop this commit's
	// records while persisting the roots from before it.
	t.s.log.Release(t.id)
	delete(t.s.liveTxns, t.id)
	t.s.mu.Unlock()
	for _, e := range t.touched {
		e.latch.Lock()
		e.obj.Rebind(t.s.lm)
		e.latch.Unlock()
	}
	err := t.s.endScope(t.scope, true)
	t.s.locks.ReleaseAll(t.id)
	t.s.epochs.Reclaim()
	return err
}

// Abort rolls the transaction back the way recovery treats a transaction
// without a commit record, and the way a failed Object operation goes back
// (Store.write): every object it holds gets back its last commit point,
// stableDesc (Store.goBack), an object it created leaves the catalog and
// one it destroyed gets its name back; its held replaced pages and its
// deferred frees are dropped, and every page it allocated goes back to the
// free space (Store.endScope).  So an abort allocates nothing and writes
// nothing but its record: like a commit it is durable at its log force,
// made when the transaction wrote anything, and it returns an error when
// that force fails.  The one data-volume request it can make is a read of
// an index page on the path to an open tail that the pool has let go
// (lob.Object.Reinstate).
//
// Each root is reinstated under the object's write latch, which a
// diagnostic shares; the latch is dropped before the catalog
// edits under Store.mu, which ranks above it.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	t.kept = keptRead{}
	t.done = true
	var err error
	for _, e := range t.touched {
		e.latch.Lock()
		if gerr := t.s.goBack(e); err == nil {
			err = gerr
		}
		e.latch.Unlock()
	}
	t.s.mu.Lock()
	for _, e := range t.touched {
		if e.stableDesc.Load() == nil { // created: it leaves the catalog, and stays refused to stale handles
			if t.s.catalog[e.name] == e {
				delete(t.s.catalog, e.name)
			}
			delete(t.s.byID, e.id)
		} else {
			t.s.catalog[e.name] = e // back if the transaction destroyed it
		}
		t.s.measure(e, e.stableSize())
	}
	delete(t.s.liveTxns, t.id)
	t.s.mu.Unlock()
	// The abort record of a transaction that logged anything goes to the
	// log before the lock release, and is forced like a commit record: Abort
	// returns nil only once the outcome is durable, and nobody else can
	// touch these objects before it is.  The log kept its room from the
	// transaction's first record on: only the force can fail.
	if t.wrote {
		lsn, lerr := t.s.log.Append(&wal.Record{Txn: t.id, Type: wal.RecAbort})
		if lerr == nil {
			lerr = t.s.log.ForceLSN(lsn)
		}
		if err == nil {
			err = lerr
		}
	}
	if gerr := t.s.endScope(t.scope, false); err == nil {
		err = gerr
	}
	t.s.locks.ReleaseAll(t.id)
	return err
}
