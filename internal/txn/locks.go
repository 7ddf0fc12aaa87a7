// Package txn provides the transactional substrate for EOS: a lock
// manager with object and byte-range granularities (§4.5: "Concurrency
// can be handled either by locking the root of the large object or, for
// finer granularity, the byte range affected by each operation"), and a
// deferred-free allocator wrapper implementing the effect of Starburst's
// hierarchical release locks — segments freed by a transaction stay
// unavailable for reallocation until the transaction commits.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Lock modes.
type Mode uint8

const (
	// Shared permits concurrent readers.
	Shared Mode = iota + 1
	// Exclusive permits a single writer.
	Exclusive
)

// ErrLockTimeout is returned when a lock cannot be granted within the
// table's timeout — the simple deadlock resolution strategy.
var ErrLockTimeout = errors.New("txn: lock wait timeout (possible deadlock)")

// rangeReq is one granted or waiting byte-range lock.
type rangeReq struct {
	txn     uint64
	mode    Mode
	lo, hi  int64 // [lo, hi); whole-object locks use [0, 1<<62)
	granted bool
}

// MaxRange is the exclusive upper bound used for whole-object and
// suffix locks: a lock on [off, MaxRange) covers every byte an operation
// at off can shift.
const MaxRange = int64(1) << 62

const wholeHi = MaxRange

type objQueue struct {
	reqs []*rangeReq
}

// LockTable grants object-root and byte-range locks with strict
// two-phase semantics (callers release only at commit or abort).
type LockTable struct {
	mu      sync.Mutex
	cond    *sync.Cond
	objects map[uint64]*objQueue // eos:guardedby mu
	timeout time.Duration
}

// NewLockTable creates a table whose waits time out after timeout
// (resolving deadlocks by aborting the waiter).
func NewLockTable(timeout time.Duration) *LockTable {
	t := &LockTable{objects: make(map[uint64]*objQueue), timeout: timeout}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func overlap(a, b *rangeReq) bool {
	return a.lo < b.hi && b.lo < a.hi
}

func conflicts(a, b *rangeReq) bool {
	if a.txn == b.txn {
		return false
	}
	if !overlap(a, b) {
		return false
	}
	return a.mode == Exclusive || b.mode == Exclusive
}

// LockObject acquires a lock on the whole object.
func (t *LockTable) LockObject(txn, obj uint64, mode Mode) error {
	return t.LockRange(txn, obj, mode, 0, wholeHi)
}

// LockRange acquires a lock on bytes [lo, hi) of the object.  Waiters
// queue FIFO behind conflicting granted or earlier-waiting requests.
func (t *LockTable) LockRange(txn, obj uint64, mode Mode, lo, hi int64) error {
	if lo < 0 || hi <= lo {
		return fmt.Errorf("txn: invalid lock range [%d,%d)", lo, hi)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.objects[obj]
	if q == nil {
		q = &objQueue{}
		t.objects[obj] = q
	}
	// Re-entrant upgrade-friendly check: an identical or stronger lock by
	// the same transaction is a no-op.
	for _, r := range q.reqs {
		if r.granted && r.txn == txn && r.lo <= lo && hi <= r.hi &&
			(r.mode == Exclusive || r.mode == mode) {
			return nil
		}
	}
	req := &rangeReq{txn: txn, mode: mode, lo: lo, hi: hi}
	q.reqs = append(q.reqs, req)

	deadline := time.Now().Add(t.timeout)
	for {
		if t.grantableLocked(q, req) {
			req.granted = true
			return nil
		}
		if time.Now().After(deadline) {
			t.removeLocked(q, req)
			return fmt.Errorf("%w: txn %d on object %d [%d,%d)", ErrLockTimeout, txn, obj, lo, hi)
		}
		t.waitLocked(deadline)
	}
}

// grantableLocked reports whether req conflicts with any granted request
// or any earlier waiter (to prevent starvation).
func (t *LockTable) grantableLocked(q *objQueue, req *rangeReq) bool {
	for _, r := range q.reqs {
		if r == req {
			break
		}
		// Block behind any earlier conflicting request, granted or
		// waiting — FIFO ordering prevents writer starvation.
		if conflicts(r, req) {
			return false
		}
	}
	return true
}

// waitLocked waits for a release or the deadline, whichever first.
func (t *LockTable) waitLocked(deadline time.Time) {
	done := make(chan struct{})
	go func() {
		select {
		case <-time.After(time.Until(deadline)):
			t.cond.Broadcast()
		case <-done:
		}
	}()
	t.cond.Wait()
	close(done)
}

func (t *LockTable) removeLocked(q *objQueue, req *rangeReq) {
	for i, r := range q.reqs {
		if r == req {
			q.reqs = append(q.reqs[:i], q.reqs[i+1:]...)
			break
		}
	}
}

// ReleaseAll drops every lock held or awaited by txn (commit or abort).
func (t *LockTable) ReleaseAll(txn uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for obj, q := range t.objects {
		kept := q.reqs[:0]
		for _, r := range q.reqs {
			if r.txn != txn {
				kept = append(kept, r)
			}
		}
		q.reqs = kept
		if len(q.reqs) == 0 {
			delete(t.objects, obj)
		}
	}
	t.cond.Broadcast()
}

// Held reports how many locks txn currently holds.
func (t *LockTable) Held(txn uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, q := range t.objects {
		for _, r := range q.reqs {
			if r.txn == txn && r.granted {
				n++
			}
		}
	}
	return n
}
