package txn

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

// Epoch-based reclamation for lock-free snapshot reads.
//
// Shadowing (§4.5) means every committed root names an immutable tree:
// updates write fresh index and data pages and free the superseded ones.
// A snapshot reader captures a published root and reads through it with
// no locks, so the pages that root references must not return to the
// free space map — where they would be reallocated and overwritten —
// until no reader can still be holding a root that names them.
//
// The EpochManager implements that grace period.  Mutators RETIRE page
// runs instead of freeing them; each run is stamped with current+1, one
// past the epoch at retire time.  Readers PIN the current epoch on
// entry.  A run stamped e may flow to the real free routine only once
// e < current and no reader is pinned at an epoch <= e.
//
// The subtle case is a non-transactional mutator, which retires the
// superseded pages of the STILL-PUBLISHED root mid-operation and only
// publishes the new root at the end.  Those pages must not mature while
// the old root is still the one a new reader would capture.  Two rules
// make that window safe without any reader/writer lock:
//
//   - The pessimistic stamp: a run retired at epoch c is stamped c+1,
//     so one epoch advance is never enough to mature it.
//   - The advance guard: the epoch may not advance from e to e+1 while
//     any mutation that BEGAN before e is still in flight.  Mutation
//     scopes register their begin epoch in a multiset
//     (BeginMutation/EndMutation — two map operations under mu, no
//     blocking); Advance simply fails while an older scope is open and
//     is retried at the next reclamation point.
//
// Together they bound current <= b+1 <= c_r+1 = stamp for every run a
// still-open scope (begun at b, earliest retire at c_r >= b) has
// retired, so "stamp < current" cannot hold before the scope publishes
// and closes.  A reader that enters mid-scope pins c in {c_r, c_r+1}
// and the stamp c_r+1 >= its pin, so the pin protects every page of
// whichever root it captures.  Transactional commits are simpler: they
// publish every touched root BEFORE applying their deferred frees, so
// their retires never reference a published root at all.
//
// Nothing here blocks: mutators never wait for an advance, advances
// never wait for mutators (they just fail and retry), and readers only
// ever take mu for two map updates.  An earlier design ordered advances
// against whole mutations with an RWMutex held for the full operation;
// under a write storm every reclamation point forced that lock and
// serialized the write side (a convoy costing ~40% of mutator wall
// time).
//
// Lock order: mu is rank 33 — above the object latch (20), so Retire
// may be called while an operation holds its object's latch; the free
// routine is never invoked while holding mu.

// Run is a contiguous run of pages retired by a mutator and not yet
// returned to the free space map.
type Run struct {
	Start disk.PageNum
	Pages int
}

// retiredRun is a run Retire parked, with its stamp and when it was parked.
type retiredRun struct {
	Run
	stamp uint64
	at    time.Time
}

// EpochGuard pins one reader to the epoch it entered.  Every guard
// returned by Enter must Exit exactly once, on all paths.
type EpochGuard struct {
	em    *EpochManager
	epoch uint64
	done  bool // eos:guardedby em.mu
}

// EpochManager tracks reader epochs and retired page runs.  It is safe
// for concurrent use.
type EpochManager struct {
	// freeFn returns matured runs to the real free space map (and drops
	// any cached frames).  Called without mu held.
	freeFn func([]Run) error

	mu       sync.Mutex
	current  uint64         // eos:guardedby mu
	pins     map[uint64]int // eos:guardedby mu
	inflight map[uint64]int // eos:guardedby mu -- open mutation scopes by begin epoch
	// retired is every run not yet reclaimed, in the order Retire parked
	// them.  A run is stamped current+1 and current only grows, so the
	// stamps never decrease along the queue, and the runs that have matured
	// are always a prefix of it.
	retired []retiredRun // eos:guardedby mu
	pending int64        // eos:guardedby mu -- pages awaiting reclamation
	budget  int64        // eos:guardedby mu -- Admit throttles above this

	advances     atomic.Uint64 // epochs advanced (stat)
	retiredTotal atomic.Uint64 // pages ever retired (stat)
}

// NewEpochManager creates a manager routing matured runs to free.
func NewEpochManager(free func([]Run) error) *EpochManager {
	return &EpochManager{
		freeFn:   free,
		pins:     make(map[uint64]int),
		inflight: make(map[uint64]int),
	}
}

// Enter pins the calling reader to the current epoch.  The returned
// guard must Exit on all paths; the reader must capture published roots
// only after Enter returns.
func (em *EpochManager) Enter() *EpochGuard {
	em.mu.Lock()
	g := &EpochGuard{em: em, epoch: em.current}
	em.pins[g.epoch]++
	em.mu.Unlock()
	return g
}

// Exit releases the guard's pin and reclaims any runs that matured.
// Exiting twice is a no-op.
func (g *EpochGuard) Exit() error {
	em := g.em
	em.mu.Lock()
	if g.done {
		em.mu.Unlock()
		return nil
	}
	g.done = true
	if em.pins[g.epoch]--; em.pins[g.epoch] == 0 {
		delete(em.pins, g.epoch)
	}
	runs := em.collectLocked()
	em.mu.Unlock()
	if err := em.release(runs); err != nil {
		return err
	}
	return em.Reclaim()
}

// SetBudget bounds the retired-page backlog: Admit throttles incoming
// mutations while more than budget pages await reclamation.  Zero
// (the default) disables admission control.
func (em *EpochManager) SetBudget(budget int64) {
	em.mu.Lock()
	em.budget = budget
	em.mu.Unlock()
}

// Admission-control bounds: how long one over-budget mutation may be
// held back, and how often it rechecks.  The wait is a throttle, not a
// guarantee — when the deadline passes the mutation proceeds anyway
// and the allocation path deals with whatever pressure remains.
const (
	admitWait = 2 * time.Second
	admitPoll = 2 * time.Millisecond
)

// Admit throttles a mutator while the retired backlog is over budget.
// It must be called BEFORE the mutation opens its scope or takes its
// object latch: a waiter here holds nothing, so reader pins keep
// rotating, the epoch keeps advancing, and the backlog drains.  (The
// allocation-failure path cannot give that guarantee — a mutator
// mid-operation has its scope open, which caps the epoch advance and
// freezes maturation of everything retired during its wait.  Admission
// control keeps the backlog bounded so that path stays rare.)
func (em *EpochManager) Admit() error {
	em.mu.Lock()
	over := em.budget > 0 && em.pending > em.budget
	em.mu.Unlock()
	if !over {
		return nil
	}
	deadline := time.Now().Add(admitWait)
	for {
		if err := em.Reclaim(); err != nil {
			return err
		}
		em.mu.Lock()
		over = em.budget > 0 && em.pending > em.budget
		em.mu.Unlock()
		if !over || time.Now().After(deadline) {
			return nil
		}
		time.Sleep(admitPoll)
	}
}

// BeginMutation opens a mutation scope and returns its begin epoch,
// which the caller passes back to EndMutation.  While the scope is
// open the epoch can advance at most once, so the scope's mid-flight
// retires (stamped one past their retire epoch) cannot mature before
// the caller publishes its new root and closes the scope.
func (em *EpochManager) BeginMutation() uint64 {
	em.mu.Lock()
	b := em.current
	em.inflight[b]++
	em.mu.Unlock()
	return b
}

// EndMutation closes the mutation scope opened at begin epoch b.  The
// caller must have published its new root (or restored the old one)
// before calling EndMutation.
func (em *EpochManager) EndMutation(b uint64) {
	em.mu.Lock()
	if em.inflight[b]--; em.inflight[b] <= 0 {
		delete(em.inflight, b)
	}
	em.mu.Unlock()
}

// Retire parks page runs one past the current epoch.  Safe to call with
// or without a mutation scope open; transactional callers retire only
// after publishing the superseding roots.
func (em *EpochManager) Retire(runs []Run) {
	if len(runs) == 0 {
		return
	}
	var pages int64
	for _, r := range runs {
		pages += int64(r.Pages)
	}
	now := time.Now()
	em.mu.Lock()
	for _, r := range runs {
		em.retired = append(em.retired, retiredRun{Run: r, stamp: em.current + 1, at: now})
	}
	em.pending += pages
	em.mu.Unlock()
	em.retiredTotal.Add(uint64(pages))
}

// collectLocked removes and returns every run whose epoch has matured:
// stamped before the current epoch, with no reader pinned at or before
// the stamp — the queue's prefix up to the first run that has not.  The
// queue's memory goes when it empties.  Caller holds mu; the returned
// runs are released after mu is dropped.
//
// eos:requires em.mu
func (em *EpochManager) collectLocked() []Run {
	if len(em.retired) == 0 {
		return nil
	}
	minPinned, pinned := em.minPinnedLocked()
	k := 0
	for ; k < len(em.retired); k++ {
		e := em.retired[k].stamp
		if e >= em.current || pinned && minPinned <= e {
			break // a superseding publish may still be in flight, or a reader pins it
		}
	}
	if k == 0 {
		return nil
	}
	out := make([]Run, k)
	for i := range out {
		out[i] = em.retired[i].Run
	}
	if em.retired = em.retired[k:]; len(em.retired) == 0 {
		em.retired = nil
	}
	return out
}

// eos:requires em.mu
func (em *EpochManager) minPinnedLocked() (uint64, bool) {
	var min uint64
	found := false
	for e := range em.pins {
		if !found || e < min {
			min, found = e, true
		}
	}
	return min, found
}

// advanceLocked bumps the epoch if no mutation scope begun before the
// current epoch is still open; it reports whether it advanced.  The
// begin-epoch test is what bounds advances to at most one per open
// scope — see the package comment's safety argument.
//
// eos:requires em.mu
func (em *EpochManager) advanceLocked() bool {
	for b := range em.inflight {
		if b < em.current {
			return false
		}
	}
	em.current++
	em.advances.Add(1)
	return true
}

// release hands matured runs to the free routine and settles the
// pending counter.  Called without mu held.
func (em *EpochManager) release(runs []Run) error {
	if len(runs) == 0 {
		return nil
	}
	var pages int64
	for _, r := range runs {
		pages += int64(r.Pages)
	}
	err := em.freeFn(runs)
	em.mu.Lock()
	em.pending -= pages
	em.mu.Unlock()
	return err
}

// Reclaim advances the epoch past every retired stamp (each step can
// fail harmlessly while an older mutation scope is open — nothing ever
// blocks) and frees whatever no reader still pins.  With no readers
// and no mutation in flight that is everything retired, so a quiescent
// store reclaims promptly; under load the work left behind is picked
// up at the next reclamation point.  Cheap enough to call after every
// mutation.
func (em *EpochManager) Reclaim() error {
	em.mu.Lock()
	var maxStamp uint64
	if n := len(em.retired); n > 0 {
		maxStamp = em.retired[n-1].stamp
	}
	for em.current <= maxStamp {
		if !em.advanceLocked() {
			break
		}
	}
	runs := em.collectLocked()
	em.mu.Unlock()
	return em.release(runs)
}

// Advances reports how many times the global epoch has advanced.
func (em *EpochManager) Advances() uint64 { return em.advances.Load() }

// RetiredPages reports the cumulative number of pages ever retired.
func (em *EpochManager) RetiredPages() uint64 { return em.retiredTotal.Load() }

// PendingPages reports the pages currently retired but not yet freed.
func (em *EpochManager) PendingPages() int64 {
	em.mu.Lock()
	defer em.mu.Unlock()
	return em.pending
}

// Pinned reports how many readers currently hold epoch guards.
func (em *EpochManager) Pinned() int {
	em.mu.Lock()
	defer em.mu.Unlock()
	n := 0
	for _, c := range em.pins {
		n += c
	}
	return n
}

// OldestAge reports how long the oldest unreclaimed epoch has been
// holding retired pages (zero when nothing is pending).
func (em *EpochManager) OldestAge() time.Duration {
	em.mu.Lock()
	defer em.mu.Unlock()
	if len(em.retired) == 0 {
		return 0
	}
	return time.Since(em.retired[0].at)
}
