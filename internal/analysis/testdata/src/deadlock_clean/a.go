// Package deadlock_clean holds interprocedural lock nesting the
// deadlock analyzer must stay silent on: downward chains, balanced
// release before the call, and per-instance latch nesting that only
// looks like re-acquisition.
package deadlock_clean

import "sync"

type Store struct{ mu sync.Mutex }

type catEntry struct{ latch sync.RWMutex }

type Pool struct{ mu sync.Mutex }

type Log struct{ mu sync.Mutex }

// lockPool takes a pool latch (rank 40) for its caller.
func lockPool(p *Pool) {
	p.mu.Lock()
	p.mu.Unlock()
}

// lockPoolIndirect adds a hop.
func lockPoolIndirect(p *Pool) {
	lockPool(p)
}

// downwardChain holds the store manager latch (rank 10) and reaches a
// pool latch (rank 40) through a chain: strictly downward, fine.
func downwardChain(s *Store, p *Pool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lockPoolIndirect(p)
}

// releasedBeforeCall drops the pool latch before the chain that takes
// the manager latch: nothing is held at the call site.
func releasedBeforeCall(s *Store, p *Pool) {
	p.mu.Lock()
	p.mu.Unlock()
	lockStore(s)
}

func lockStore(s *Store) {
	s.mu.Lock()
	s.mu.Unlock()
}

// latchEntry takes one object latch for its caller.
func latchEntry(e *catEntry) {
	e.latch.Lock()
	e.latch.Unlock()
}

// copyEntries holds the source entry's latch and latches the
// destination through a helper.  catEntry.latch is per-instance, not a
// singleton: two distinct entries may nest, and the analyzer must not
// call this a self-deadlock.
func copyEntries(src, dst *catEntry) {
	src.latch.Lock()
	defer src.latch.Unlock()
	latchEntry(dst)
}

// readTail holds the WAL latch shared and calls a read-only helper
// that acquires nothing.
func readTail(l *Log, p *Pool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	tailSize(l)
}

func tailSize(l *Log) int { return 0 }
