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
//     and catalog images substitute the last committed descriptor for
//     any transaction-dirty object — and keep the record of an object a
//     live transaction has destroyed.
//   - A commit or an abort is durable at its log force and writes no
//     catalog image.  The catalog lags them: a commit is redone from the
//     older roots until a checkpoint persists the roots that followed, and
//     the durability quarantine keeps the older roots' pages intact until
//     then; an abort reinstated the roots from before its transaction,
//     whose bytes it left as they were.
//   - Only the checkpoint writes the catalog.  It writes the write-behind
//     set's pages and forces the whole data volume first, so the durable
//     image never names a page the device does not hold, then forces the
//     image, then the master copy naming it.
//   - No uncommitted byte is ever written over bytes a committed root
//     names.  Replace, the one in-place update, keeps its page images in
//     its transaction's held set until the commit record is forced, and
//     only then hands them to the write-behind set, which reaches the
//     device from there; its record carries no pre-image, and a crash
//     before the write leaves a committed record redo applies.  A
//     transaction's other writes go to pages no committed root names.  So
//     recovery has nothing to undo: a transaction without a commit record
//     left no trace the durable roots can reach.  An abort has nothing to
//     undo either, for the same reason: it goes back to those roots.
//   - A transaction is live from before its first record until the
//     critical section that hands its new roots to the catalog, and the
//     log is truncated only behind the image and every live transaction's
//     first record — after the master copy naming that start is durable.
//     So the scan from the master's start sees every record of every
//     transaction the image does not account for.
//   - A committed plain append's pages may be on no device: they wait in
//     the object's pending run until its tail segment closes or a
//     checkpoint runs.  Its record carries its bytes, and until an image
//     names the grown tail, redo re-executes it into a fresh tail.
//   - The buddy directories carry no durable information: step 4 below
//     rebuilds them on every open.
//
// The recovery procedure:
//
//  1. Load the master copy with the higher seq (Open).  Scan the log from
//     its start; load the image at its image LSN; classify transactions as
//     committed, aborted, or in flight.
//  2. Move the log onto a new lap before anything is written: whatever lies
//     past the recovered tail carries the old lap's LSNs, which no later
//     scan accepts there (the log is never erased).
//  3. Rebuild the buddy directories from scratch: reformat every space,
//     then reserve exactly the pages reachable from the catalog's
//     descriptors.  This both reclaims pages leaked by half-finished
//     commits and protects every live page before redo allocates.
//  4. REDO pass: re-execute, in log order, each committed operation the
//     catalog state has not seen — the LSN each object root carries
//     makes this idempotent, exactly as the paper requires.  (LSNs never
//     restart, so a root's LSN ranks correctly against every record.)
//  5. Trim the tails redo's appends left open: nothing continues them
//     (every open forgets tails), so their room would only sit reserved;
//     the trim writes the pending runs redo's appends left.
//  6. Take a checkpoint: a new image, a new master copy, and a log
//     truncated behind them.  Ordinary records left room for it (see
//     Store.measure), and it may take all the room there is; only then does
//     the log keep room for the catalog's next checkpoint again.

// recover runs the procedure above from the master copy m.
func (s *Store) recover(m master) error {
	log, recs, err := wal.Recover(s.logVol, m.start)
	if err != nil {
		return err
	}
	s.log = log
	loaded := false
	for _, r := range recs {
		if r.LSN == m.image && r.Type == wal.RecCheckpoint {
			if err := s.loadCatalog(r.Data); err != nil {
				return err
			}
			loaded = true
		}
	}
	if !loaded {
		return fmt.Errorf("%w: the log holds no image at the master record's LSN %d", ErrCorruptStore, m.image)
	}
	if err := log.NewLap(); err != nil {
		return err
	}

	committed := make(map[uint64]bool)
	maxTxn := uint64(0)
	for _, r := range recs {
		if r.Type == wal.RecCommit {
			committed[r.Txn] = true
		}
		if r.Txn > maxTxn {
			maxTxn = r.Txn
		}
	}
	s.nextTxn = maxTxn + 1

	if err := s.rebuildFreeSpace(); err != nil {
		return err
	}

	for _, r := range recs {
		if !committed[r.Txn] {
			continue
		}
		redone, err := s.redo(r)
		if err != nil {
			return fmt.Errorf("eos: redo of %s (lsn %d): %w", r.Type, r.LSN, err)
		}
		if redone {
			s.recovered.Redone++
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.catalog {
		// No root has named the room (lob.Object.Trim), so it goes back
		// through FreeUnpublished, at once.
		e.latch.Lock()
		err := e.obj.Trim()
		e.setStableDesc(e.obj.EncodeDescriptor())
		e.latch.Unlock()
		if err != nil {
			return err
		}
	}
	// The recovered log keeps no room yet, so this checkpoint may take all
	// there is: it is the recovery the room is kept for.  From here on the
	// log keeps room for the catalog's.
	if err := s.checkpointLocked(); err != nil {
		return err
	}
	for _, e := range s.byID {
		s.measure(e, len(e.loadStableDesc()))
	}
	s.log.Reserve(s.catBytes)
	return nil
}

// redo re-executes one committed operation if the object has not seen it,
// and reports whether it did.
func (s *Store) redo(r *wal.Record) (bool, error) {
	s.mu.Lock()
	e := s.byID[r.Object]
	s.mu.Unlock()

	switch r.Type {
	case wal.RecCreate:
		if e != nil {
			return false, nil // create already durable
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
			return false, nil
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
		return true, nil
	case wal.RecDestroy:
		if e == nil {
			return false, nil // destroy already durable
		}
		if err := e.obj.Destroy(); err != nil {
			return false, err
		}
		s.mu.Lock()
		delete(s.catalog, e.name)
		delete(s.byID, e.id)
		s.mu.Unlock()
		return true, nil
	case wal.RecAppend, wal.RecInsert, wal.RecDelete, wal.RecReplace:
		if e == nil {
			// Object destroyed by a later committed operation; the
			// destroy's redo (or durable state) governs.
			return false, nil
		}
		if e.obj.LSN() >= r.LSN {
			return false, nil // effect already durable: idempotent skip
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
			return false, err
		}
		e.obj.SetLSN(r.LSN)
		// The re-executed operation is committed state: the checkpoint
		// that ends recovery persists stableDesc, so it must carry the
		// post-redo root or the redone update would be lost when the
		// log truncates.
		e.setStableDesc(e.obj.EncodeDescriptor())
		return true, nil
	}
	return false, nil // control records
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
	bm := buddy.NewManager(s.pool, true)
	page := disk.PageNum(masterPages)
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
