package eos

import (
	"cmp"
	"fmt"
	"slices"

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
//     the reclamation queue keeps the older roots' pages intact until
//     then; an abort reinstated the roots from before its transaction,
//     whose bytes it left as they were.
//   - Only the checkpoint writes the catalog.  It captures the committed
//     descriptors, the live transactions, the log's tail and the
//     write-behind set in one critical section under Store.mu; writes the
//     captured set's pages and forces the whole data volume without it, so
//     the durable image never names a page the device does not hold; then,
//     under Store.mu again, forces the image, then the master copy naming
//     it, and truncates the log to the capture's start.
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
//     A checkpoint's start is where the log ended when it captured the
//     image, not the image's own LSN: the commits made while it wrote lie
//     between the two.  So the scan from the master's start sees every
//     record of every transaction the image does not account for.
//   - A structural update (insert, append, delete) writes its new segments
//     through to pages no root names before it logs anything, and its
//     record names them by reference: the leaf entries that replaced a byte
//     range.  A commit forces the data volume before it appends its record
//     when any of them was written through, so a durable commit record's
//     segments are on the device.  Only the bytes an update leaves in
//     memory — a tail's pending pages, which wait there until a checkpoint
//     runs or the segment is trimmed, the open tail's and a filled one's
//     alike — travel in the record by value.
//   - Every write that logs nothing (the Object API, Create) is captured by
//     a checkpoint before a transaction first takes the object, so the root
//     the image names for it is the root its records were spliced into.
//   - The buddy directories carry no durable information: step 3 below
//     rebuilds them on every open.
//
// The recovery procedure:
//
//  1. Load the master copy with the higher seq (Open).  Scan the log from
//     its start; load the image at its image LSN; classify transactions as
//     committed or not.
//  2. Move the log onto a new lap before anything is written: whatever lies
//     past the recovered tail carries the old lap's LSNs, which no later
//     scan accepts there (the log is never erased).
//  3. Rebuild the buddy directories from scratch: reformat every space,
//     then reserve exactly the pages reachable from the catalog's
//     descriptors and the pages every record to redo names — a committed
//     record on an object whose root in the image is older than it — the
//     room of the open tails they filled included.  This reclaims pages
//     leaked by half-finished commits and losers, and keeps every page redo
//     splices in from the index pages it allocates.
//  4. REDO pass: in log order, splice each committed structural record the
//     catalog state has not seen into its object's tree, rebuild the pages
//     of its by-value bytes, and re-apply each replace — the LSN each
//     object root carries makes this idempotent, exactly as the paper
//     requires.  (LSNs never restart, so a root's LSN ranks correctly
//     against every record.)  Nothing is re-executed: redo allocates only
//     index pages and frees nothing as it goes.
//  5. Trim the tails redo's appends left open: nothing continues them
//     (every open forgets tails), so their room would only sit reserved;
//     the trim writes the pending runs redo left.  Then free what the
//     redone updates freed: every page reserved or allocated before that
//     no object reaches any more.
//  6. Take a checkpoint: a new image, a new master copy, and a log
//     truncated behind them.  The log kept room for this image and NewLap's
//     skip record (wal's ledger, Store.measure), and no transaction is live
//     in the recovered log, so the image may take all there is; measuring
//     the catalog behind it has the log keep the room again.

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
	destroyed := make(map[uint64]bool) // objects a committed transaction destroyed
	maxTxn := uint64(0)
	for _, r := range recs {
		if r.Type == wal.RecCommit {
			committed[r.Txn] = true
		}
		maxTxn = max(maxTxn, r.Txn)
	}
	for _, r := range recs {
		if r.Type == wal.RecDestroy && committed[r.Txn] {
			destroyed[r.Object] = true
		}
	}
	s.nextTxn = maxTxn + 1

	// The records to redo, and the pages they name.  An object the image
	// does not show whose destroy committed lived and died behind the image:
	// its pages may be another object's now.  through maps each page of a
	// grown tail to the last of those records that wrote it through: the
	// device holds its bytes from then on, newer than any image redo could
	// build from the records before.
	var redo []*wal.Record
	var named []lob.PageRun
	through := make(map[disk.PageNum]uint64)
	ps := s.vol.PageSize()
	for _, r := range recs {
		e := s.byID[r.Object]
		if !committed[r.Txn] || r.Type == wal.RecCommit || e == nil && destroyed[r.Object] || e != nil && e.obj.LSN() >= r.LSN {
			continue
		}
		redo = append(redo, r)
		sp := recordSplice(r)
		for _, x := range sp.Entries {
			named = append(named, x.Run(ps))
		}
		if r.Type == wal.RecAppend {
			run := sp.Continued(ps)
			for i := 0; i < run.Pages; i++ {
				through[run.Start+disk.PageNum(i)] = r.LSN
			}
		}
	}
	before, err := s.rebuildFreeSpace(named)
	if err != nil {
		return err
	}
	rm, ra, err := s.redoManager()
	if err != nil {
		return err
	}
	for _, e := range s.byID {
		e.obj.Rebind(rm)
	}

	touched := make(map[uint64]bool)
	for _, r := range redo {
		redone, err := s.redo(rm, r, func(p disk.PageNum) bool { return through[p] > r.LSN })
		if err != nil {
			return fmt.Errorf("eos: redo of %s (lsn %d): %w", r.Type, r.LSN, err)
		}
		if redone {
			s.recovered.Redone++
			touched[r.Object] = true
		}
	}

	if err := s.closeRedo(rm, ra, before, named, touched); err != nil {
		return err
	}
	// The recovered log keeps no room yet, so this checkpoint may take all
	// there is: it is the recovery the room is kept for.  Measuring the
	// catalog has the log keep room for its next image again.
	if err := s.Checkpoint(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.byID {
		s.measure(e, e.stableSize())
	}
	return nil
}

// closeRedo is step 5: it trims the tails redo's appends left open, frees
// what the redone updates freed, and gives the objects back to the store's
// manager.
func (s *Store) closeRedo(rm *lob.Manager, ra *redoAlloc, before map[*catEntry][]lob.PageRun, named []lob.PageRun, touched map[uint64]bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.catalog {
		// No root has named the room (lob.Object.Trim).
		e.latch.Lock()
		err := e.obj.Trim()
		e.setStableDesc(e.obj.Capture())
		e.latch.Unlock()
		if err != nil {
			return err
		}
	}
	if err := s.freeRedone(rm, ra, before, named, touched); err != nil {
		return err
	}
	for _, e := range s.byID {
		e.obj.Rebind(s.lm)
	}
	return nil
}

// redoAlloc is redo's allocator.  Redo splices the segments its records
// name, so it allocates only index pages — one at a time, for the trees it
// shadows; anything else is counted as data.  It frees nothing: the pages
// the redone updates freed are found at the end (Store.freeRedone).
type redoAlloc struct {
	s    *Store
	runs []lob.PageRun // every run handed out
}

func (a *redoAlloc) Alloc(n int) (disk.PageNum, error) {
	p, err := a.s.buddy.Alloc(n)
	if err == nil {
		a.note(p, n, n > 1)
	}
	return p, err
}

func (a *redoAlloc) AllocUpTo(n int) (disk.PageNum, int, error) {
	p, got, err := a.s.buddy.AllocUpTo(n)
	if err == nil {
		a.note(p, got, true)
	}
	return p, got, err
}

func (a *redoAlloc) note(p disk.PageNum, n int, data bool) {
	a.runs = append(a.runs, lob.PageRun{Start: p, Pages: n})
	if data {
		a.s.recovered.DataPages += int64(n)
	} else {
		a.s.recovered.IndexPages += int64(n)
	}
}

// AllocAt places nothing: redo allocates index pages only, and those by
// Alloc.
func (a *redoAlloc) AllocAt(disk.PageNum, int) bool          { return false }
func (a *redoAlloc) Free(disk.PageNum, int) error            { return nil }
func (a *redoAlloc) FreeUnpublished(disk.PageNum, int) error { return nil }
func (a *redoAlloc) MaxSegmentPages() int                    { return a.s.buddy.MaxSegmentPages() }

// redoManager is the manager redo runs the recovered objects on: the
// store's, over redoAlloc.
func (s *Store) redoManager() (*lob.Manager, *redoAlloc, error) {
	ra := &redoAlloc{s: s}
	rm, err := lob.NewManager(s.vol, s.pool, ra, s.lobConfig())
	return rm, ra, err
}

// redo applies one committed operation if the object has not seen it,
// and reports whether it did.  newer reports the pages a later record
// wrote through (lob.Splice.Newer).
func (s *Store) redo(rm *lob.Manager, r *wal.Record, newer func(disk.PageNum) bool) (bool, error) {
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
		e = &catEntry{id: r.Object, name: string(r.Data), obj: rm.NewObject(int(r.N))}
		s.catalog[e.name] = e
		s.byID[e.id] = e
		if r.Object >= s.nextID {
			s.nextID = r.Object + 1
		}
		s.mu.Unlock()
		e.obj.SetLSN(r.LSN)
		e.setStableDesc(e.obj.Capture())
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
		if r.Type == wal.RecReplace {
			err = e.obj.Replace(r.Off, r.Data)
		} else {
			sp := recordSplice(r)
			sp.Newer = newer
			err = e.obj.Apply(sp)
		}
		if err != nil {
			return false, err
		}
		e.obj.SetLSN(r.LSN)
		// The redone operation is committed state: the checkpoint that
		// ends recovery persists stableDesc, so it must carry the
		// post-redo root or the redone update would be lost when the
		// log truncates.
		e.setStableDesc(e.obj.Capture())
		return true, nil
	}
	return false, nil // control records
}

// freeRedone frees what the redone updates freed: every page that was
// reserved before redo — reachable from the image (before) or named by a
// record to redo — or that redo allocated, and that no object reaches now.
// An object no record changed still reaches what it did.  Recovery runs
// alone, and the checkpoint that ends it names the new roots before
// anything allocates; a crash before that rebuilds the free space from the
// old image.  So the pages go straight back, their frames and images
// dropped.
//
// eos:requires s.mu
func (s *Store) freeRedone(rm *lob.Manager, ra *redoAlloc, before map[*catEntry][]lob.PageRun, named []lob.PageRun, touched map[uint64]bool) error {
	if len(touched) == 0 && len(named) == 0 && len(ra.runs) == 0 {
		return nil
	}
	old := append(append([]lob.PageRun{}, named...), ra.runs...)
	for _, runs := range before {
		old = append(old, runs...)
	}
	var now []lob.PageRun
	for _, e := range s.byID {
		if runs, ok := before[e]; ok && !touched[e.id] {
			now = append(now, runs...)
			continue
		}
		runs, err := e.obj.ReachablePages()
		if err != nil {
			return err
		}
		now = append(now, runs...)
	}
	for _, r := range subtractRuns(mergeRuns(old), mergeRuns(now)) {
		rm.Forget(r.Start, r.Pages)
		if err := s.buddy.FreeUnpublished(r.Start, r.Pages); err != nil {
			return err
		}
	}
	return nil
}

// mergeRuns sorts runs and merges the overlapping ones.
func mergeRuns(runs []lob.PageRun) []lob.PageRun {
	slices.SortFunc(runs, func(a, b lob.PageRun) int { return cmp.Compare(a.Start, b.Start) })
	var out []lob.PageRun
	for _, r := range runs {
		if n := len(out); n > 0 && r.Start < out[n-1].Start+disk.PageNum(out[n-1].Pages) {
			end := max(out[n-1].Start+disk.PageNum(out[n-1].Pages), r.Start+disk.PageNum(r.Pages))
			out[n-1].Pages = int(end - out[n-1].Start)
			continue
		}
		out = append(out, r)
	}
	return out
}

// subtractRuns returns the pages of the merged runs a that the merged runs b
// do not hold.
func subtractRuns(a, b []lob.PageRun) []lob.PageRun {
	var out []lob.PageRun
	j := 0
	for _, r := range a {
		at, end := r.Start, r.Start+disk.PageNum(r.Pages)
		for ; j < len(b) && b[j].Start+disk.PageNum(b[j].Pages) <= at; j++ {
		}
		for k := j; k < len(b) && b[k].Start < end; k++ {
			if b[k].Start > at {
				out = append(out, lob.PageRun{Start: at, Pages: int(b[k].Start - at)})
			}
			at = max(at, b[k].Start+disk.PageNum(b[k].Pages))
		}
		if at < end {
			out = append(out, lob.PageRun{Start: at, Pages: int(end - at)})
		}
	}
	return out
}

// rebuildFreeSpace reformats every buddy space and reserves the pages
// reachable from the catalog and the pages named, which redo splices in.
// It returns each object's reachable runs.
func (s *Store) rebuildFreeSpace(named []lob.PageRun) (map[*catEntry][]lob.PageRun, error) {
	// The directories are rebuilt from catalog reachability alone, so
	// any queued runs (only possible if recovery ever becomes callable on
	// a live store) are subsumed: unreachable pages come back as free
	// space directly.
	s.epochs.Reset()
	bm := buddy.NewManager(s.pool, true)
	page := disk.PageNum(masterPages)
	for i := 0; i < s.opts.NumSpaces; i++ {
		sp, err := buddy.FormatSpace(s.pool, page, page+1, s.opts.SpaceCapacity, s.vol)
		if err != nil {
			return nil, err
		}
		bm.AddSpace(sp)
		page += disk.PageNum(s.opts.SpaceCapacity + 1)
	}
	s.buddy = bm
	s.mu.Lock()
	entries := make([]*catEntry, 0, len(s.byID))
	for _, e := range s.byID {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	before := make(map[*catEntry][]lob.PageRun, len(entries))
	reserve := append([]lob.PageRun{}, named...)
	for _, e := range entries {
		e.setStableDesc(e.obj.Capture()) // without the tail loadCatalog forgot
		runs, err := e.obj.ReachablePages()
		if err != nil {
			return nil, err
		}
		before[e] = runs
		reserve = append(reserve, runs...)
	}
	for _, run := range mergeRuns(reserve) {
		if err := bm.Reserve(run.Start, run.Pages); err != nil {
			return nil, fmt.Errorf("eos: reserving %d+%d: %w", run.Start, run.Pages, err)
		}
	}
	return before, nil
}
