// Package leaksip_bad holds leaks that only a whole-program view can
// see: resources acquired by wrapper helpers (latches two calls down,
// pins behind a fixer, transactions produced by an opener) that the
// caller never releases.  A wrapper's own literal acquire is reported
// too, as for any function that returns holding the resource.
package leaksip_bad

import (
	"sync"

	"buffer"
	"eos"
)

type Pool struct{ mu sync.Mutex }

// lockPool acquires the pool latch on behalf of its caller.
func lockPool(p *Pool) {
	p.mu.Lock() // want "latch leak: Lock\\(p.mu\\) can reach a function exit without Unlock\\(p.mu\\)"
}

// lockPoolIndirect adds a hop: the acquisition is two calls away from
// the leaking site.
func lockPoolIndirect(p *Pool) {
	lockPool(p)
}

// Store owns the pool, as the engine's store does.
type Store struct{ pool Pool }

// LeakViaChain locks the pool through the two-deep chain and returns
// without unlocking.
func (s *Store) LeakViaChain() {
	p := &s.pool
	lockPoolIndirect(p) // want "interprocedural latch leak: call chain lockPoolIndirect → lockPool acquires p.mu"
}

// LeakOnBranch unlocks on the fast path only; the slow path exits with
// the latch held.
func (s *Store) LeakOnBranch(fast bool) {
	p := &s.pool
	lockPool(p) // want "interprocedural latch leak: call chain lockPool acquires p.mu"
	if fast {
		p.mu.Unlock()
		return
	}
}

// pinPage fixes a page on behalf of its caller; the caller owns the
// unpin.
func pinPage(p *buffer.Pool, pg buffer.PageID) error {
	_, err := p.Fix(pg) // want "pin leak: Fix\\(pg\\) can reach a function exit without Unpin/Discard\\(pg\\)"
	return err
}

// ReadNoUnpin pins a locally chosen page through the wrapper and
// forgets the unpin on the success path (the error branch is exempt: a
// failed fix pins nothing).  Had the page been ReadNoUnpin's own
// parameter, the obligation would propagate to its callers instead.
func ReadNoUnpin(p *buffer.Pool, vol, page uint32) error {
	pg := buffer.PageID{Vol: vol, Page: page}
	if err := pinPage(p, pg); err != nil { // want "interprocedural pin leak: call chain pinPage acquires pg"
		return err
	}
	return nil
}

func other() error { return nil }

// ReuseErr reuses err for a second call: only the first test of err
// guards the pin, so the second test's return leaks it.
func ReuseErr(p *buffer.Pool, vol, page uint32) error {
	pg := buffer.PageID{Vol: vol, Page: page}
	err := pinPage(p, pg) // want "interprocedural pin leak: call chain pinPage acquires pg"
	if err != nil {
		return err
	}
	err = other()
	if err != nil {
		return err
	}
	return p.Unpin(pg)
}

// openTxn produces a transaction the caller must finish.
func openTxn(s *eos.Store) (*eos.Txn, error) {
	return s.Begin()
}

// BeginAndDrop binds the produced transaction and never commits or
// aborts it.
func BeginAndDrop(s *eos.Store) error {
	t, err := openTxn(s) // want "interprocedural txn leak: \"t\" acquired by call chain openTxn can reach a function exit without release"
	if err != nil {
		return err
	}
	_ = t
	return nil
}

// BeginDiscard throws the produced transaction away outright.
func BeginDiscard(s *eos.Store) {
	openTxn(s) // want "interprocedural txn leak: openTxn returns an acquired txn that is discarded"
}
