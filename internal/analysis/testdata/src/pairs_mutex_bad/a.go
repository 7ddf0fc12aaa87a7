// Package pairs_mutex_bad holds ranked-latch violations the pairs
// analyzer must report: a Lock on a lattice mutex that can reach a
// function exit still held.
package pairs_mutex_bad

import "sync"

// Pool mirrors the buffer pool: its mu is in the ranked
// lattice, so Lock must pair with Unlock on every path.
type Pool struct {
	mu sync.Mutex
	n  int
}

// leakOnEarlyReturn forgets the unlock on the early return.
func leakOnEarlyReturn(p *Pool, cond bool) int {
	p.mu.Lock() // want "latch leak: Lock\\(p.mu\\) can reach a function exit without Unlock\\(p.mu\\)"
	if cond {
		return 0
	}
	n := p.n
	p.mu.Unlock()
	return n
}

// Log mirrors the WAL: mu is ranked, and read latches leak the same
// way write latches do.
type Log struct {
	mu   sync.RWMutex
	tail []byte
}

// rlockLeak exits the early path holding the read latch.
func rlockLeak(l *Log) int {
	l.mu.RLock() // want "latch leak: RLock\\(l.mu\\) can reach a function exit without Unlock\\(l.mu\\)"
	if len(l.tail) == 0 {
		return 0
	}
	n := len(l.tail)
	l.mu.RUnlock()
	return n
}

// panicPathLeak holds the latch into a branch that falls off the end
// of the function.
func panicPathLeak(p *Pool, xs []int) {
	p.mu.Lock() // want "latch leak: Lock\\(p.mu\\) can reach a function exit without Unlock\\(p.mu\\)"
	for _, x := range xs {
		p.n += x
	}
	// missing p.mu.Unlock()
}
