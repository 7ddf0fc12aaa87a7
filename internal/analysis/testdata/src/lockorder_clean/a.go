// Package lockorder_clean holds lattice-respecting locking that
// lockorder must accept without diagnostics.
package lockorder_clean

import "sync"

type Store struct{ mu sync.Mutex }

type catEntry struct{ latch sync.RWMutex }

type shard struct{ mu sync.Mutex }

type Log struct {
	forceMu sync.Mutex
	mu      sync.Mutex
}

type Pool struct{ flushMu sync.Mutex }

// nestedDownward acquires strictly down the lattice.
func nestedDownward(s *Store, e *catEntry, sh *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.latch.RLock()
	defer e.latch.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
}

// sequential never holds two ranked locks at once, so rank order
// between the sections does not matter.
func sequential(l *Log, s *Store) {
	l.mu.Lock()
	l.mu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
}

// releasedBeforeDescent drops the higher lock before going back up.
func releasedBeforeDescent(e *catEntry, sh *shard) {
	sh.mu.Lock()
	sh.mu.Unlock()
	e.latch.Lock()
	e.latch.Unlock()
}

// deferredOnOtherPath holds the shard latch to function exit only on a
// branch that returns: the path that reaches the store latch holds
// nothing.
func deferredOnOtherPath(s *Store, sh *shard, c bool) {
	if c {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return
	}
	s.mu.Lock()
	s.mu.Unlock()
}

// closureIsSeparate: a goroutine body is its own acquisition context;
// the enclosing function's held set does not apply to it.
func closureIsSeparate(l *Log, s *Store) {
	l.mu.Lock()
	defer l.mu.Unlock()
	go func() {
		s.mu.Lock()
		s.mu.Unlock()
	}()
}

// groupCommitDescent mirrors the WAL leader path: the force mutex
// (rank 45) is taken before the log buffer mutex (rank 50).
func groupCommitDescent(l *Log) {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	l.mu.Lock()
	l.mu.Unlock()
}

// flushDescent mirrors the pool write-back path: the whole-pool flush
// mutex (rank 38) is taken before a shard mutex (rank 40).
func flushDescent(p *Pool, sh *shard) {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	sh.mu.Lock()
	sh.mu.Unlock()
}

// unranked locks are outside the lattice and never constrained.
func unranked(l *Log) {
	var local sync.Mutex
	l.mu.Lock()
	local.Lock()
	local.Unlock()
	l.mu.Unlock()
}

type account struct{ mu sync.Mutex }

type Volume struct {
	account
	mu sync.RWMutex
}

// volumeDescent mirrors the disk I/O path: the page-data latch
// (rank 60) is taken before the accounting mutex (rank 70), never the
// other way around.
func volumeDescent(v *Volume) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	v.account.mu.Lock()
	v.account.mu.Unlock()
}
