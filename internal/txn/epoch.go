package txn

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/eosdb/eos/internal/buffer"
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
// A writer keeps the runs it frees until it has published the roots that
// stop naming them — a transaction until its commit, an Object operation
// until its end — and only then RETIRES them here.  Retire stamps each run
// with two numbers at once: the current epoch, and the number of the latest
// checkpoint begun (StartBarrier), its barrier stamp.  Readers PIN the
// current epoch on entry and then capture the newest published root.
// Three gates follow:
//
//   - matured, no reader can reach the run: its epoch stamp is behind the
//     current epoch and no reader is pinned at or before it.  The publish
//     came before the retire, so a reader that can hold the old root
//     captured it before the retire, and pinned before that: at or below
//     the stamp.
//   - discarded, its frames are dropped: its barrier stamp is at most the
//     last checkpoint whose pool flush has ended (EndFlush).  The checkpoint
//     numbered by the stamp is the latest that can have captured the old
//     root, before the publish, so the latest whose flush can need its
//     frames.
//   - released, back in the free space: its barrier stamp precedes the last
//     checkpoint whose master copy is durable (Releasable, Released, which
//     the store calls).  Any checkpoint numbered above the stamp began after
//     the retire, so after the publish, and captured the new root: no
//     master copy recovery can load names the run.
//
// Neither stamp decreases along the queue, so each gate lets out a prefix
// of it, released ⊆ discarded ⊆ matured: runs reach the free space in the
// order they were retired, and every advance of a prefix wakes the waiters
// (Wait) — an admission over budget, and an allocation the free space could
// not serve.
//
// Nothing here blocks: Retire, Enter and Exit take mu for a few slice and
// map updates, and Reclaim advances the epoch past the newest stamp.
//
// Lock order: mu is rank 33 — above the object latch (20), so Retire
// may be called while an operation holds its object's latch, and below
// the buffer pool's (40), whose frames the discard gate drops under it;
// the store returns runs to the buddy system without it.

// Run is a contiguous run of pages retired by a writer and not yet
// returned to the free space map.
type Run struct {
	Start disk.PageNum
	Pages int
}

// retiredRun is a run in the queue with its epoch and barrier stamps, and
// when it was retired, in Unix nanoseconds.
type retiredRun struct {
	Run
	epoch, barrier uint64
	at             int64
}

// EpochGuard pins one reader to the epoch it entered.  Every guard
// returned by Enter must Exit exactly once, on all paths.
type EpochGuard struct {
	em    *EpochManager
	epoch uint64
	done  bool // eos:guardedby em.mu
}

// EpochManager tracks reader epochs and the queue of retired page runs.
// It is safe for concurrent use.
type EpochManager struct {
	// pool holds the frames of the pages the queue's runs name.  Their
	// frames may hold never-flushed images of superseded index nodes —
	// garbage once no checkpoint's pool flush needs them.
	pool *buffer.Pool

	mu      sync.Mutex
	current uint64         // eos:guardedby mu
	pins    map[uint64]int // eos:guardedby mu
	// queue is every retired run not yet back in the free space, in the
	// order Retire parked them; queue[:matured] have matured and
	// queue[:discarded] have lost their frames.
	queue     []retiredRun // eos:guardedby mu
	matured   int          // eos:guardedby mu
	discarded int          // eos:guardedby mu
	started   uint64       // eos:guardedby mu -- checkpoints begun
	flushed   uint64       // eos:guardedby mu -- the last checkpoint whose pool flush ended
	pending   int64        // eos:guardedby mu -- pages retired and not matured
	waiting   int64        // eos:guardedby mu -- pages in the queue
	budget    int64        // eos:guardedby mu -- Admit throttles above this
	// seq counts the advances of the queue's prefixes; wake, made by the
	// first waiter, is closed at the next one.
	seq  uint64        // eos:guardedby mu
	wake chan struct{} // eos:guardedby mu

	advances     atomic.Uint64 // epochs advanced (stat)
	retiredTotal atomic.Uint64 // pages ever retired (stat)
}

// NewEpochManager creates a manager that drops the frames of the runs
// leaving its discard gate from pool.
func NewEpochManager(pool *buffer.Pool) *EpochManager {
	return &EpochManager{pool: pool, pins: make(map[uint64]int)}
}

// Enter pins the calling reader to the current epoch.  The returned
// guard must Exit on all paths; the reader must capture published roots
// only after Enter returns.  Enter is small enough to inline, so a guard
// that does not outlive its caller's frame costs no allocation.
func (em *EpochManager) Enter() *EpochGuard {
	return &EpochGuard{em: em, epoch: em.pin()}
}

// pin counts one more reader at the current epoch and returns it.
func (em *EpochManager) pin() uint64 {
	em.mu.Lock()
	defer em.mu.Unlock()
	em.pins[em.current]++
	return em.current
}

// Exit releases the guard's pin and reclaims any runs that matured.
// Exiting twice is a no-op.
func (g *EpochGuard) Exit() {
	em := g.em
	em.mu.Lock()
	if g.done {
		em.mu.Unlock()
		return
	}
	g.done = true
	if em.pins[g.epoch]--; em.pins[g.epoch] == 0 {
		delete(em.pins, g.epoch)
	}
	em.mu.Unlock()
	em.Reclaim()
}

// SetBudget bounds the retired-page backlog: Admit throttles incoming
// mutations while more than budget pages await their grace period.  Zero
// (the default) disables admission control.
func (em *EpochManager) SetBudget(budget int64) {
	em.mu.Lock()
	em.budget = budget
	em.mu.Unlock()
}

// admitWait bounds how long one over-budget mutation may be held back.
// The wait is a throttle, not a guarantee — when the deadline passes the
// mutation proceeds anyway and the allocation path deals with whatever
// pressure remains.
const admitWait = 2 * time.Second

// Admit throttles a mutator while the retired backlog is over budget,
// waking at each advance of the queue.  It must be called before the
// mutation takes its object latch: a waiter here holds nothing, so the
// writers it waits behind can publish, retire and release.  An allocation
// that fails mid-operation waits too (the store's spaceWaiter), but it
// holds its latch while it does; admission control keeps the backlog
// bounded so that path stays rare.
func (em *EpochManager) Admit() {
	var deadline time.Time
	for {
		em.mu.Lock()
		over, seen := em.budget > 0 && em.pending > em.budget, em.seq
		em.mu.Unlock()
		if !over {
			return
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(admitWait)
		} else if time.Now().After(deadline) {
			return
		}
		em.Reclaim()
		em.Wait(seen, deadline)
	}
}

// Retire enters runs in the queue, stamped with the current epoch and the
// latest checkpoint begun, and returns that barrier stamp: no checkpoint
// numbered above it can name the runs.  The caller has published every
// root that named them: see the package comment.
func (em *EpochManager) Retire(runs []Run) (barrier uint64) {
	if len(runs) == 0 {
		return 0
	}
	var pages int64
	for _, r := range runs {
		pages += int64(r.Pages)
	}
	now := time.Now().UnixNano()
	em.mu.Lock()
	barrier = em.started
	for _, r := range runs {
		em.queue = append(em.queue, retiredRun{Run: r, epoch: em.current, barrier: barrier, at: now})
	}
	em.pending += pages
	em.waiting += pages
	em.mu.Unlock()
	em.retiredTotal.Add(uint64(pages))
	return barrier
}

// matureLocked moves the matured prefix past every run whose epoch stamp
// is behind the current epoch and behind every pinned reader, and drops
// the frames the discard gate lets go.
//
// eos:requires em.mu
func (em *EpochManager) matureLocked() {
	minPinned, pinned := em.minPinnedLocked()
	k := em.matured
	for ; k < len(em.queue); k++ {
		r := em.queue[k]
		if r.epoch >= em.current || pinned && minPinned <= r.epoch {
			break // a reader may hold a root that names it
		}
		em.pending -= int64(r.Pages)
	}
	if k > em.matured {
		em.matured = k
		em.discardLocked()
		em.signalLocked()
	}
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

// signalLocked notes an advance of one of the queue's prefixes and wakes
// every waiter.
//
// eos:requires em.mu
func (em *EpochManager) signalLocked() {
	em.seq++
	if em.wake != nil {
		close(em.wake)
		em.wake = nil
	}
}

// discardLocked drops, unwritten, the frames of the matured runs whose
// barrier stamp the last ended pool flush covers.
//
// eos:requires em.mu
func (em *EpochManager) discardLocked() {
	for ; em.discarded < em.matured && em.queue[em.discarded].barrier <= em.flushed; em.discarded++ {
		r := em.queue[em.discarded]
		for i := 0; i < r.Pages; i++ {
			em.pool.Discard(r.Start + disk.PageNum(i))
		}
	}
}

// Reclaim advances the epoch past the newest stamp in the queue, matures
// whatever no reader still pins and drops the frames the discard gate lets
// go.  With no reader pinned that is everything retired, so a quiescent
// store reclaims promptly; under load the work left behind is picked up at
// the next reclamation point.  Cheap enough to call after every mutation.
func (em *EpochManager) Reclaim() {
	em.mu.Lock()
	if n := len(em.queue); n > em.matured {
		if em.current == em.queue[n-1].epoch {
			em.current++
			em.advances.Add(1)
		}
		em.matureLocked()
	}
	em.mu.Unlock()
}

// StartBarrier begins a checkpoint and returns its number: the runs
// retired from now on take it as their barrier stamp, and keep their
// frames until its pool flush ends.
func (em *EpochManager) StartBarrier() uint64 {
	em.mu.Lock()
	defer em.mu.Unlock()
	em.started++
	return em.started
}

// EndFlush records that checkpoint b's pool flush has ended, written or
// failed, and drops the frames of the runs it held.
func (em *EpochManager) EndFlush(b uint64) {
	em.mu.Lock()
	defer em.mu.Unlock()
	em.flushed = b
	em.discardLocked()
	em.signalLocked()
}

// Releasable returns the runs at the head of the queue whose frames are
// dropped and whose barrier stamp precedes durable, the last checkpoint
// whose master copy is durable.  The caller returns them to the free
// space, in order, and then reports how many it did to Released; one
// caller at a time.
func (em *EpochManager) Releasable(durable uint64) []Run {
	em.mu.Lock()
	defer em.mu.Unlock()
	k := 0
	for k < em.discarded && em.queue[k].barrier < durable {
		k++
	}
	runs := make([]Run, k)
	for i := range runs {
		runs[i] = em.queue[i].Run
	}
	return runs
}

// Released removes the first n runs Releasable returned from the queue,
// whose memory goes when it empties, and wakes every waiter: a checkpoint
// has ended.
func (em *EpochManager) Released(n int) {
	em.mu.Lock()
	defer em.mu.Unlock()
	for _, r := range em.queue[:n] {
		em.waiting -= int64(r.Pages)
	}
	if em.queue = em.queue[n:]; len(em.queue) == 0 {
		em.queue = nil
	}
	em.matured -= n
	em.discarded -= n
	em.signalLocked()
}

// Freed wakes every waiter: pages reached the free space without passing
// through the queue (a write scope that went back, an abort's or a failed
// Object operation's, gave back what it allocated).
func (em *EpochManager) Freed() {
	em.mu.Lock()
	defer em.mu.Unlock()
	em.signalLocked()
}

// Reset empties the queue: the free space was rebuilt from what the
// catalog reaches, which none of its runs is.
func (em *EpochManager) Reset() {
	em.mu.Lock()
	defer em.mu.Unlock()
	em.queue, em.matured, em.discarded = nil, 0, 0
	em.pending, em.waiting = 0, 0
	em.signalLocked()
}

// Seq reports how often a prefix of the queue has advanced; Wait takes it.
func (em *EpochManager) Seq() uint64 {
	em.mu.Lock()
	defer em.mu.Unlock()
	return em.seq
}

// Wait returns once a prefix of the queue has advanced since Seq reported
// seen, or when the deadline passes.
func (em *EpochManager) Wait(seen uint64, deadline time.Time) {
	em.mu.Lock()
	if em.seq != seen {
		em.mu.Unlock()
		return
	}
	if em.wake == nil {
		em.wake = make(chan struct{})
	}
	wake := em.wake
	em.mu.Unlock()
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-wake:
	case <-t.C:
	}
}

// Advances reports how many times the global epoch has advanced.
func (em *EpochManager) Advances() uint64 { return em.advances.Load() }

// RetiredPages reports the cumulative number of pages ever retired.
func (em *EpochManager) RetiredPages() uint64 { return em.retiredTotal.Load() }

// PendingPages reports the pages retired whose grace period has not
// ended.
func (em *EpochManager) PendingPages() int64 {
	em.mu.Lock()
	defer em.mu.Unlock()
	return em.pending
}

// WaitingPages reports the pages in the queue: retired and not yet back
// in the free space.
func (em *EpochManager) WaitingPages() int64 {
	em.mu.Lock()
	defer em.mu.Unlock()
	return em.waiting
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

// OldestAge reports how long the oldest run whose grace period has not
// ended has been waiting (zero when there is none).
func (em *EpochManager) OldestAge() time.Duration {
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.matured == len(em.queue) {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - em.queue[em.matured].at)
}
