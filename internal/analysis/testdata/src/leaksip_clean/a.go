// Package leaksip_clean holds wrapper-acquired resources that are
// correctly released on every path — directly, through releaser
// helpers, or by propagating the obligation to the caller — so pairs
// must stay silent.  Each wrapper that returns holding a resource says
// so with a directive, as the engine's own such wrapper does; the
// directive excuses the wrapper's literal acquire, not its callers.
package leaksip_clean

import (
	"sync"

	"buffer"
	"eos"
)

type Pool struct{ mu sync.Mutex }

func lockPool(p *Pool) {
	//eoslint:ignore pairs -- acquired for the caller, which unlocks
	p.mu.Lock()
}

func lockPoolIndirect(p *Pool) {
	lockPool(p)
}

// unlockPool releases the latch its caller acquired through the
// wrappers: release recognition is propagated too.
func unlockPool(p *Pool) {
	p.mu.Unlock()
}

// Store owns the pool, as the engine's store does.
type Store struct{ pool Pool }

// BalancedChain pairs the two-deep acquire with a deferred releaser
// helper.
func (s *Store) BalancedChain() {
	p := &s.pool
	lockPoolIndirect(p)
	defer unlockPool(p)
}

// BalancedBranches unlocks on both paths.
func (s *Store) BalancedBranches(fast bool) {
	p := &s.pool
	lockPool(p)
	if fast {
		p.mu.Unlock()
		return
	}
	unlockPool(p)
}

func pinPage(p *buffer.Pool, pg buffer.PageID) error {
	//eoslint:ignore pairs -- pinned for the caller, which unpins
	_, err := p.Fix(pg)
	return err
}

// ReadAndUnpin pins a locally chosen page through the wrapper and
// unpins after the error check.
func ReadAndUnpin(p *buffer.Pool, vol, page uint32) error {
	pg := buffer.PageID{Vol: vol, Page: page}
	if err := pinPage(p, pg); err != nil {
		return err
	}
	defer p.Unpin(pg)
	return nil
}

func openTxn(s *eos.Store) (*eos.Txn, error) {
	return s.Begin()
}

// BeginCommit finishes the produced transaction on every live path.
func BeginCommit(s *eos.Store) error {
	t, err := openTxn(s)
	if err != nil {
		return err
	}
	return t.Commit()
}

// BeginForCaller passes the produced transaction on: the obligation
// propagates to its callers instead of being reported here.
func BeginForCaller(s *eos.Store) (*eos.Txn, error) {
	t, err := openTxn(s)
	if err != nil {
		return nil, err
	}
	return t, nil
}
