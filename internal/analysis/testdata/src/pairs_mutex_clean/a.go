// Package pairs_mutex_clean holds correct ranked-latch usage the pairs
// analyzer must accept without diagnostics.
package pairs_mutex_clean

import "sync"

type Pool struct {
	mu sync.Mutex
	n  int
}

// deferUnlock is the canonical pattern.
func deferUnlock(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// pairedBothPaths unlocks explicitly before each return.
func pairedBothPaths(p *Pool, cond bool) int {
	p.mu.Lock()
	if cond {
		p.mu.Unlock()
		return 0
	}
	n := p.n
	p.mu.Unlock()
	return n
}

// unlockPool is a helper that releases the latch it is handed; pairs
// exports a release fact for it, so calls count as the Unlock.
func unlockPool(p *Pool) {
	p.mu.Unlock()
}

// viaHelper releases through the helper.
func viaHelper(p *Pool) int {
	p.mu.Lock()
	n := p.n
	unlockPool(p)
	return n
}

// viaDeepHelper releases through a helper five calls deep, each helper
// declared before the one it calls: the release summary must reach the
// top of the chain whatever the declaration order.
func viaDeepHelper(p *Pool) int {
	p.mu.Lock()
	n := p.n
	unlock5(p)
	return n
}

func unlock5(p *Pool) { unlock4(p) }
func unlock4(p *Pool) { unlock3(p) }
func unlock3(p *Pool) { unlock2(p) }
func unlock2(p *Pool) { unlock1(p) }
func unlock1(p *Pool) { p.mu.Unlock() }

type Log struct {
	mu   sync.RWMutex
	tail []byte
}

// readLatch pairs RLock with RUnlock on every path.
func readLatch(l *Log, cond bool) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if cond {
		return 0
	}
	return len(l.tail)
}

// scratch is not in the ranked lattice: pairs does not police
// unranked mutexes (lockorder does not rank them either).
type scratch struct {
	mu sync.Mutex
}

// unrankedIsExempt intentionally holds an unranked mutex past the
// return without a diagnostic.
func unrankedIsExempt(s *scratch) {
	s.mu.Lock()
}
