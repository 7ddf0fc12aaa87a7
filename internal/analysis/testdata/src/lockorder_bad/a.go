// Package lockorder_bad holds lattice inversions lockorder must
// report.  The lattice keys match by type and field name, so the
// stand-in types here rank exactly like the engine's.
package lockorder_bad

import "sync"

type Store struct{ mu sync.Mutex }

type catEntry struct{ latch sync.RWMutex }

type shard struct{ mu sync.Mutex }

type Log struct {
	forceMu sync.Mutex
	mu      sync.Mutex
}

type Pool struct{ flushMu sync.Mutex }

type account struct{ mu sync.Mutex }

type Volume struct {
	account
	mu sync.Mutex
}

// invertedPair takes the pool shard before the store manager.
func invertedPair(s *Store, sh *shard) {
	sh.mu.Lock()
	s.mu.Lock() // want "lock order inversion: acquiring Store.mu \\(rank 10, manager\\) while holding shard.mu"
	s.mu.Unlock()
	sh.mu.Unlock()
}

// heldOnElsePath holds the shard latch to function exit on the else
// branch only; that path reaches the store latch with it held.
func heldOnElsePath(s *Store, sh *shard, c bool) {
	if c {
		s.mu.Lock()
		s.mu.Unlock()
	} else {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	s.mu.Lock() // want "lock order inversion: acquiring Store.mu \\(rank 10, manager\\) while holding shard.mu"
	s.mu.Unlock()
}

// invertedUnderDefer holds the WAL latch to function exit via defer and
// then reaches down for an object latch.
func invertedUnderDefer(l *Log, e *catEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.latch.RLock() // want "lock order inversion: acquiring catEntry.latch"
	e.latch.RUnlock()
}

// invertedGroupCommit takes the log buffer mutex before the leader
// force mutex — the follower that did this while a leader flushed
// would deadlock the commit path.
func invertedGroupCommit(l *Log) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.forceMu.Lock() // want "lock order inversion: acquiring Log.forceMu"
	l.forceMu.Unlock()
}

// invertedFlush takes a shard mutex before the whole-pool flush mutex.
func invertedFlush(p *Pool, sh *shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p.flushMu.Lock() // want "lock order inversion: acquiring Pool.flushMu"
	p.flushMu.Unlock()
}

// invertedWithinVolume takes the accounting core's lock before the
// volume image lock.
func invertedWithinVolume(v *Volume) {
	v.account.mu.Lock()
	defer v.account.mu.Unlock()
	v.mu.Lock() // want "lock order inversion: acquiring Volume.mu"
	v.mu.Unlock()
}
