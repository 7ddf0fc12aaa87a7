package eos

import (
	"fmt"

	"github.com/eosdb/eos/internal/buddy"
	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
	"github.com/eosdb/eos/internal/wal"
)

// Crash recovery (§4.5).
//
// The durable-state invariants the transaction layer maintains:
//
//   - Uncommitted STRUCTURAL work never becomes durable: insert, delete
//     and append shadow index pages and never overwrite live data pages,
//     and catalog writes substitute the last committed descriptor for
//     any transaction-dirty object — and keep the record of an object a
//     live transaction has destroyed.
//   - Every volume force is followed by a catalog barrier (commits,
//     aborts, checkpoints all go through the same path) that journals
//     whichever descriptors changed, so durable page content and the
//     durable catalog always describe the same state.
//   - An in-place write reaches the device only behind a force of the
//     log record holding its pre-image.  A replace whose write is
//     deferred to commit is written behind the commit record's force, so
//     it can be durable only for a committed transaction; a crash before
//     the write leaves a committed record redo applies.
//   - A force never includes pages another live transaction has written
//     in place, and a transaction stops being live in the same critical
//     section that hands its new roots to the catalog.  So the only
//     uncommitted in-place writes that can be durable are those of
//     transactions still in flight at the crash — whose locks were never
//     released and whose logged physical extents are therefore still
//     accurate — and a durable root never references a page its own
//     barrier skipped.
//   - The buddy directories carry no durable information: step 3 below
//     rebuilds them on every open, and commit barriers do not write them.
//
// The recovery procedure:
//
//  1. Scan the log; classify transactions as committed, aborted, or in
//     flight.
//  2. UNDO pass: for in-flight transactions' replace records, in reverse
//     log order, restore the logged pre-image at each physical extent
//     where the post-image is present (replace is the only in-place
//     update; §4.5 makes it the logged one for exactly this reason).
//  3. Rebuild the buddy directories from scratch: reformat every space,
//     then reserve exactly the pages reachable from the catalog's
//     descriptors.  This both reclaims pages leaked by half-finished
//     commits and protects every live page before redo allocates.
//  4. REDO pass: re-execute, in log order, each committed operation the
//     catalog state has not seen — the LSN each object root carries
//     makes this idempotent, exactly as the paper requires.  (LSNs are
//     monotonic across log truncations: each epoch's records start at
//     the base the store header records, so a root's LSN always ranks
//     correctly against every record of every epoch and is never
//     zeroed.)
//  5. Take a checkpoint and truncate the log — always into a new LSN
//     epoch, which is what puts everything the scan stopped in front of
//     out of every later scan's reach (the log is never erased).

func (s *Store) recover() error {
	log, recs, err := wal.Recover(s.logVol, s.lsnBase)
	if err != nil {
		return err
	}
	log.SetGroupCommit(!s.opts.SerialWAL)
	s.log = log

	committed := make(map[uint64]bool)
	ended := make(map[uint64]bool)
	maxTxn := uint64(0)
	for _, r := range recs {
		switch r.Type {
		case wal.RecCommit:
			committed[r.Txn] = true
			ended[r.Txn] = true
		case wal.RecAbort:
			ended[r.Txn] = true
		}
		if r.Txn > maxTxn {
			maxTxn = r.Txn
		}
	}
	s.nextTxn = maxTxn + 1

	// Undo pass: physically restore the pre-images of replaces by
	// transactions that were IN FLIGHT at the crash, in reverse log
	// order.  Replace is the only in-place update; a checkpoint or
	// another transaction's commit may have forced an in-flight
	// transaction's page, and the logged extents point at exactly the
	// bytes to put back.  (The extents are still accurate: an in-flight
	// transaction never released its locks or applied its deferred
	// frees, so its pages cannot have been restructured or reused.
	// Ended transactions never need this: a commit's replaces are
	// re-applied by redo if lost, and an abort writes its record only
	// AFTER its compensations are durably forced — an abort record in
	// the log proves the rollback is fully on disk.)
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if r.Type != wal.RecReplace || ended[r.Txn] {
			continue
		}
		if err := s.undoReplace(r); err != nil {
			return fmt.Errorf("eos: undo of replace (lsn %d): %w", r.LSN, err)
		}
	}

	if err := s.rebuildFreeSpace(); err != nil {
		return err
	}

	for _, r := range recs {
		if !committed[r.Txn] {
			continue
		}
		if err := s.redo(r); err != nil {
			return fmt.Errorf("eos: redo of %s (lsn %d): %w", r.Type, r.LSN, err)
		}
	}

	// The checkpoint below must end the epoch just scanned even when the
	// scan found no record in it.  Nothing erases what lies past the tail,
	// and that may include intact records of this same epoch behind a torn
	// first page; their LSNs would fit again once new records of the same
	// sizes had grown up to them.  A checkpoint starts a new epoch only
	// behind a non-empty log, so give it one record.
	if s.log.Tail() == 0 {
		if _, err := s.log.Append(&wal.Record{Type: wal.RecCheckpoint}); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

// undoReplace writes a replace record's pre-image back to its physical
// extents — but only where the record's post-image is actually present,
// i.e. where the loser's in-place write reached the disk.  Extents whose
// durable content is something else (the write was never forced, or the
// page had been legitimately reused and captured by a newer catalog
// force) are left alone.  Idempotent: re-running finds the pre-image in
// place and skips.
func (s *Store) undoReplace(r *wal.Record) error {
	ps := int64(s.vol.PageSize())
	pos := 0
	for _, x := range r.Extents {
		if int64(x.Off)+int64(x.Len) > ps || pos+int(x.Len) > len(r.OldData) || pos+int(x.Len) > len(r.Data) {
			return fmt.Errorf("%w: bad extent in replace record", ErrCorruptStore)
		}
		raw := make([]byte, ps)
		if err := s.vol.ReadPages(disk.PageNum(x.Page), 1, raw); err != nil {
			return err
		}
		if bytesEqual(raw[x.Off:int(x.Off)+int(x.Len)], r.Data[pos:pos+int(x.Len)]) {
			copy(raw[x.Off:], r.OldData[pos:pos+int(x.Len)])
			if err := s.vol.WritePages(disk.PageNum(x.Page), 1, raw); err != nil {
				return err
			}
		}
		pos += int(x.Len)
	}
	return nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// redo re-executes one committed operation if the object has not seen it.
func (s *Store) redo(r *wal.Record) error {
	s.mu.Lock()
	e := s.byID[r.Object]
	s.mu.Unlock()

	switch r.Type {
	case wal.RecCreate:
		if e != nil {
			return nil // create already durable
		}
		s.mu.Lock()
		if cur := s.catalog[string(r.Data)]; cur != nil && cur.id > r.Object {
			// The name already belongs to an object created later, whose
			// creation is durable.  A name has one holder at a time, so this
			// object's destroy came before that and is durable too: creating
			// it again would take the name from its successor, and redoing
			// its destroy would then leave the name to nobody.  The records
			// that follow for it find no entry and are skipped.
			s.mu.Unlock()
			return nil
		}
		e = &catEntry{id: r.Object, name: string(r.Data), obj: s.lm.NewObject(int(r.N))}
		s.catalog[e.name] = e
		s.byID[e.id] = e
		if r.Object >= s.nextID {
			s.nextID = r.Object + 1
		}
		s.mu.Unlock()
		e.obj.SetLSN(r.LSN)
		e.setStableDesc(e.obj.EncodeDescriptor())
		return nil
	case wal.RecDestroy:
		if e == nil {
			return nil // destroy already durable
		}
		if err := e.obj.Destroy(); err != nil {
			return err
		}
		s.mu.Lock()
		delete(s.catalog, e.name)
		delete(s.byID, e.id)
		s.mu.Unlock()
		return nil
	case wal.RecAppend, wal.RecInsert, wal.RecDelete, wal.RecReplace:
		if e == nil {
			// Object destroyed by a later committed operation; the
			// destroy's redo (or durable state) governs.
			return nil
		}
		if e.obj.LSN() >= r.LSN {
			return nil // effect already durable: idempotent skip
		}
		var err error
		switch r.Type {
		case wal.RecAppend:
			err = e.obj.Append(r.Data)
		case wal.RecInsert:
			err = e.obj.Insert(r.Off, r.Data)
		case wal.RecDelete:
			err = e.obj.Delete(r.Off, r.N)
		case wal.RecReplace:
			err = e.obj.Replace(r.Off, r.Data)
		}
		if err != nil {
			return err
		}
		e.obj.SetLSN(r.LSN)
		// The re-executed operation is committed state: the checkpoint
		// that ends recovery persists stableDesc, so it must carry the
		// post-redo root or the redone update would be lost when the
		// log truncates.
		e.setStableDesc(e.obj.EncodeDescriptor())
		return nil
	}
	return nil // control records
}

// rebuildFreeSpace reformats every buddy space and reserves the pages
// reachable from the catalog.
func (s *Store) rebuildFreeSpace() error {
	// The directories are rebuilt from catalog reachability alone, so
	// any quarantined runs (only possible if recovery ever becomes
	// callable on a live store) are subsumed: unreachable pages come
	// back as free space directly.
	s.quarMu.Lock()
	s.quar = nil
	s.quarMu.Unlock()
	bm := buddy.NewManager(s.pool, !s.opts.DisableSuperdirectory)
	page := disk.PageNum(1 + catalogRegionPages(s.opts))
	for i := 0; i < s.opts.NumSpaces; i++ {
		sp, err := buddy.FormatSpace(s.pool, page, page+1, s.opts.SpaceCapacity, s.vol)
		if err != nil {
			return err
		}
		bm.AddSpace(sp)
		page += disk.PageNum(s.opts.SpaceCapacity + 1)
	}
	s.buddy = bm
	var err error
	prevObjs := make(map[string]*catEntry, len(s.catalog))
	s.mu.Lock()
	for n, e := range s.catalog {
		prevObjs[n] = e
	}
	s.mu.Unlock()
	s.lm, err = lob.NewManager(s.vol, s.pool, &epochAlloc{s: s}, s.lobConfig())
	if err != nil {
		return err
	}
	for _, e := range prevObjs {
		// Reattach the loaded descriptor to the new manager and reserve
		// its pages.
		desc := e.obj.EncodeDescriptor()
		obj, err := s.lm.OpenDescriptor(desc)
		if err != nil {
			return err
		}
		e.obj = obj
		e.setStableDesc(desc)
		runs, err := obj.ReachablePages()
		if err != nil {
			return err
		}
		for _, run := range runs {
			if err := bm.Reserve(run.Start, run.Pages); err != nil {
				return fmt.Errorf("eos: reserving %d+%d for %q: %w", run.Start, run.Pages, e.name, err)
			}
		}
	}
	return nil
}
