// Package eosssa exercises the ssa facility's IR construction: block
// and dominator structure, instruction classification, static and CHA
// call resolution, and SCC ordering.  The ssa probe test asserts over
// the Program built from this package; there are no diagnostics.
package eosssa

import (
	"sync"

	"lob"
	"wal"
)

type Log struct{ mu sync.Mutex }

type Txn struct {
	log *wal.Log
	obj *lob.Object
}

func leaf() int { return 1 }

func mid() int { return leaf() }

// top has a diamond: the lock in the entry block dominates everything,
// neither branch dominates the join, and the join holds the WAL append
// and the mutation.
func top(t *Txn, l *Log, cond bool) int {
	l.mu.Lock()
	x := 0
	if cond {
		x = mid()
	} else {
		x = leaf()
	}
	l.mu.Unlock()
	t.log.Append(wal.Record{Type: 1})
	t.obj.Append(nil)
	return x
}

func pingA(n int) int {
	if n == 0 {
		return 0
	}
	return pingB(n - 1)
}

func pingB(n int) int { return pingA(n) }

// fakeAlloc implements lob.Allocator so CHA has a concrete candidate
// for the interface call below.
type fakeAlloc struct{}

func (fakeAlloc) Alloc(n int) (lob.PageNum, error)          { return 0, nil }
func (fakeAlloc) AllocUpTo(n int) (lob.PageNum, int, error) { return 0, n, nil }
func (fakeAlloc) Free(p lob.PageNum, n int) error           { return nil }
func (fakeAlloc) FreeUnpublished(lob.PageNum, int) error    { return nil }
func (fakeAlloc) MaxSegmentPages() int                      { return 16 }

func callAlloc(a lob.Allocator) {
	a.Alloc(1)
}
