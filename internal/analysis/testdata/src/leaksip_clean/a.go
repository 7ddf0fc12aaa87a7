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

type shard struct{ mu sync.Mutex }

func lockShard(sh *shard) {
	//eoslint:ignore pairs -- acquired for the caller, which unlocks
	sh.mu.Lock()
}

func lockShardIndirect(sh *shard) {
	lockShard(sh)
}

// unlockShard releases the latch its caller acquired through the
// wrappers: release recognition is propagated too.
func unlockShard(sh *shard) {
	sh.mu.Unlock()
}

type Pool struct{ shards [4]shard }

// BalancedChain pairs the two-deep acquire with a deferred releaser
// helper.
func (p *Pool) BalancedChain(i int) {
	sh := &p.shards[i]
	lockShardIndirect(sh)
	defer unlockShard(sh)
}

// BalancedBranches unlocks on both paths.
func (p *Pool) BalancedBranches(i int, fast bool) {
	sh := &p.shards[i]
	lockShard(sh)
	if fast {
		sh.mu.Unlock()
		return
	}
	unlockShard(sh)
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
