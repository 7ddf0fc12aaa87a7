// Package deadlock_bad holds interprocedural lattice violations the
// deadlock analyzer must report: a rank inversion reachable only
// through a call chain, a same-rank cycle split across functions, and
// a singleton self-deadlock through a helper.  The stand-in types rank
// exactly like the engine's (matching is by type and field name).
package deadlock_bad

import "sync"

type Store struct{ mu, quarMu sync.Mutex }

type deferredAlloc struct{ mu sync.Mutex }

type Pool struct{ mu sync.Mutex }

type Log struct{ mu sync.Mutex }

// lockStore takes the store manager latch (rank 10) for its caller.
func lockStore(s *Store) {
	s.mu.Lock()
	s.mu.Unlock()
}

// lockManager adds a hop: the acquisition is two calls away from the
// inverting call site.
func lockManager(s *Store) {
	lockStore(s)
}

// invertViaChain holds a pool latch (rank 40) and calls a chain
// that reaches down to the store manager latch (rank 10).
func invertViaChain(s *Store, p *Pool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	lockManager(s) // want "interprocedural lock order inversion: call chain lockManager → lockStore acquires Store.mu"
}

// invertOnElsePath holds the pool latch to function exit on the else
// branch only, then calls the chain that takes the store latch.
func invertOnElsePath(s *Store, p *Pool, c bool) {
	if c {
		lockStore(s)
	} else {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	lockManager(s) // want "interprocedural lock order inversion: call chain lockManager → lockStore acquires Store.mu"
}

// lockDeferred and lockQuarantine are the two halves of a same-rank
// cycle: Store.quarMu and deferredAlloc.mu share rank 30, so neither
// nesting inverts the lattice — but the opposite orders below deadlock
// against each other.
func lockDeferred(d *deferredAlloc) {
	d.mu.Lock()
	d.mu.Unlock()
}

func lockQuarantine(s *Store) {
	s.quarMu.Lock()
	s.quarMu.Unlock()
}

// quarantineThenDefer nests quarMu → deferredAlloc.mu.
func quarantineThenDefer(s *Store, d *deferredAlloc) {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	lockDeferred(d) // want "deadlock cycle among same-rank locks: Store.quarMu → deferredAlloc.mu"
}

// deferThenQuarantine nests deferredAlloc.mu → quarMu: the other half of
// the cycle.
func deferThenQuarantine(s *Store, d *deferredAlloc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	lockQuarantine(s)
}

// appendRecord takes the WAL latch directly.
func appendRecord(l *Log) {
	l.mu.Lock()
	l.mu.Unlock()
}

// forceTail reaches appendRecord through one more hop.
func forceTail(l *Log) {
	appendRecord(l)
}

// flushHoldingLog already holds the WAL latch when the chain tries to
// take it again: Log.mu is a singleton, so this self-deadlocks.
func flushHoldingLog(l *Log) {
	l.mu.Lock()
	defer l.mu.Unlock()
	forceTail(l) // want "self-deadlock: call chain forceTail → appendRecord re-acquires Log.mu"
}
