// Package guardedby_bad holds eos:guardedby violations the analyzer
// must report.
package guardedby_bad

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // eos:guardedby mu
}

// unlockedRead loads the guarded field with no lock at all.
func unlockedRead(c *counter) int {
	return c.n // want "read of counter.n without holding c.mu"
}

// unlockedWrite stores with no lock.
func unlockedWrite(c *counter) {
	c.n = 7 // want "write to counter.n without holding c.mu"
}

// releasedTooEarly unlocks before the last store.
func releasedTooEarly(c *counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.n++ // want "write to counter.n without holding c.mu"
}

// lockedOnOneBranch joins a locked path with an unlocked one: the
// intersection no longer holds the mutex.
func lockedOnOneBranch(c *counter, cond bool) {
	if cond {
		c.mu.Lock()
	}
	c.n = 1 // want "write to counter.n without holding c.mu"
	if cond {
		c.mu.Unlock()
	}
}

type table struct {
	mu   sync.RWMutex
	rows map[string]int // eos:guardedby mu
}

// writeUnderReadLock holds only the shared latch across a store.
func writeUnderReadLock(t *table, k string) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.rows[k] = 1 // want "write to table.rows with only a read lock on t.mu"
}

// wrongReceiver locks one table but touches another.
func wrongReceiver(a, b *table, k string) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return b.rows[k] // want "read of table.rows without holding b.mu"
}

// helperNeedsRequires accesses the field with the lock held by its
// caller but does not declare it.
func helperNeedsRequires(c *counter) int {
	return c.n // want "read of counter.n without holding c.mu"
}

type typoed struct {
	mu sync.Mutex
	// eos:guardedby mux /* want "eos:guardedby names \"mux\", which is not a field of typoed" */
	n int
}

// use keeps the structs and fields referenced.
func use(t *typoed) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// suppressedWithoutReason is ignored but gives no justification.
func suppressedWithoutReason(c *counter) int {
	//eoslint:ignore guardedby
	return c.n // want "eoslint:ignore guardedby without a '-- reason' clause"
}

// bumpLocked runs with the counter's lock held by its caller.
//
// eos:requires c.mu
func (c *counter) bumpLocked() { c.n++ }

// callsRequiresUnlocked calls a method that requires the lock after
// dropping it.
func callsRequiresUnlocked(c *counter) {
	c.mu.Lock()
	c.mu.Unlock()
	c.bumpLocked() // want "call of bumpLocked without holding c.mu"
}
