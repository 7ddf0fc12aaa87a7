// Package pairs_mutex_clean holds correct ranked-latch usage the pairs
// analyzer must accept without diagnostics.
package pairs_mutex_clean

import "sync"

type shard struct {
	mu sync.Mutex
	n  int
}

// deferUnlock is the canonical pattern.
func deferUnlock(sh *shard) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.n
}

// pairedBothPaths unlocks explicitly before each return.
func pairedBothPaths(sh *shard, cond bool) int {
	sh.mu.Lock()
	if cond {
		sh.mu.Unlock()
		return 0
	}
	n := sh.n
	sh.mu.Unlock()
	return n
}

// unlockShard is a helper that releases the latch it is handed; pairs
// exports a release fact for it, so calls count as the Unlock.
func unlockShard(sh *shard) {
	sh.mu.Unlock()
}

// viaHelper releases through the helper.
func viaHelper(sh *shard) int {
	sh.mu.Lock()
	n := sh.n
	unlockShard(sh)
	return n
}

// viaDeepHelper releases through a helper five calls deep, each helper
// declared before the one it calls: the release summary must reach the
// top of the chain whatever the declaration order.
func viaDeepHelper(sh *shard) int {
	sh.mu.Lock()
	n := sh.n
	unlock5(sh)
	return n
}

func unlock5(sh *shard) { unlock4(sh) }
func unlock4(sh *shard) { unlock3(sh) }
func unlock3(sh *shard) { unlock2(sh) }
func unlock2(sh *shard) { unlock1(sh) }
func unlock1(sh *shard) { sh.mu.Unlock() }

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
