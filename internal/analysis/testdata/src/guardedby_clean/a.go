// Package guardedby_clean holds correct guarded-field usage the
// analyzer must accept without diagnostics.
package guardedby_clean

import (
	"sync"
	"sync/atomic"
)

type counter struct {
	mu   sync.Mutex
	n    int           // eos:guardedby mu
	hits atomic.Uint64 // eos:guardedby mu
}

// lockedWrite holds the mutex across the store.
func lockedWrite(c *counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// deferredUnlock holds the mutex to function exit.
func deferredUnlock(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = 2
	return c.n
}

// atomicExempt touches the atomic field lock-free: sync/atomic types
// are hardware-ordered, the annotation documents intent only.
func atomicExempt(c *counter) uint64 {
	c.hits.Add(1)
	return c.hits.Load()
}

// eos:requires c.mu
// lockedByCaller declares the caller-holds contract and may touch the
// field directly.
func lockedByCaller(c *counter) int {
	c.n++
	return c.n
}

// callerHoldsAndCalls takes the lock and uses the helper.
func callerHoldsAndCalls(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return lockedByCaller(c)
}

type table struct {
	mu   sync.RWMutex
	rows map[string]int // eos:guardedby mu
}

// readUnderReadLock loads under the shared latch.
func readUnderReadLock(t *table, k string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[k]
}

// writeUnderWriteLock upgrades to the exclusive latch for the store.
func writeUnderWriteLock(t *table, k string) {
	t.mu.Lock()
	t.rows[k] = 1
	t.mu.Unlock()
}

// bothBranchesLocked locks on both arms before the join.
func bothBranchesLocked(t *table, k string, cond bool) {
	if cond {
		t.mu.Lock()
	} else {
		t.mu.Lock()
	}
	t.rows[k] = 2
	t.mu.Unlock()
}

// object's root pointer is guarded by a latch owned by the catalog
// entry above it: an external guard is inventory, not flow-checked.
type object struct {
	root *int // eos:guardedby catEntry.latch
	size int64
}

// externalGuard may touch root freely as far as this analyzer can see.
func externalGuard(o *object) *int {
	return o.root
}

// suppressedWithReason documents why a lock-free read is safe.
func suppressedWithReason(c *counter) int {
	//eoslint:ignore guardedby -- racy stats read is advisory; consistency is not required here
	return c.n
}

// bumpLocked runs with the counter's lock held by its caller.
//
// eos:requires c.mu
func (c *counter) bumpLocked() { c.n++ }

// callsRequiresLocked calls it with the lock held, and so does a method
// that requires the lock itself.
func callsRequiresLocked(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bumpLocked()
}

// bumpTwiceLocked requires the lock and passes it on.
//
// eos:requires c.mu
func (c *counter) bumpTwiceLocked() {
	c.bumpLocked()
	c.bumpLocked()
}
