package txn

import (
	"testing"
	"time"

	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
)

// newTestManager returns an epoch manager over a small buffer pool, the
// pool, and the accessor for the pages whose grace period has ended and
// that wait in the queue — with no checkpoint begun, every one of them
// has lost its frames.
func newTestManager(t *testing.T) (*EpochManager, *buffer.Pool, func() int) {
	t.Helper()
	pool, err := buffer.NewPool(disk.MustNewVolume(512, 256, disk.DefaultCostModel()), 32)
	if err != nil {
		t.Fatal(err)
	}
	em := NewEpochManager(pool)
	return em, pool, func() int { return int(em.WaitingPages() - em.PendingPages()) }
}

func TestEpochQuiescentReclaim(t *testing.T) {
	em, _, matured := newTestManager(t)
	em.Retire([]Run{{Start: disk.PageNum(10), Pages: 4}, {Start: disk.PageNum(20), Pages: 2}})
	if got := em.PendingPages(); got != 6 {
		t.Fatalf("PendingPages = %d, want 6", got)
	}
	// No readers: one Reclaim matures everything, with one advance past
	// the epoch the runs were stamped with.
	em.Reclaim()
	if got, advances := matured(), em.Advances(); got != 6 || advances != 1 {
		t.Fatalf("matured %d pages after quiescent Reclaim with %d advances, want 6 and 1", got, advances)
	}
	if got := em.PendingPages(); got != 0 {
		t.Fatalf("PendingPages = %d after Reclaim, want 0", got)
	}
}

func TestEpochPinBlocksCollection(t *testing.T) {
	em, _, matured := newTestManager(t)
	g := em.Enter()
	em.Retire([]Run{{Start: disk.PageNum(10), Pages: 8}})
	em.Reclaim()
	if got := matured(); got != 0 {
		t.Fatalf("matured %d pages while a reader is pinned, want 0", got)
	}
	// Exit releases the pin and reclaims what matured.
	g.Exit()
	if got := matured(); got != 8 {
		t.Fatalf("matured %d pages after pin exit, want 8", got)
	}
	// Exit is idempotent.
	g.Exit()
	if got := em.Pinned(); got != 0 {
		t.Fatalf("Pinned = %d after double Exit, want 0", got)
	}
}

// TestEpochRetiredRunMaturesOneAdvancePastEveryPin: a writer retires a
// run after the publish that stops naming it, stamped with the current
// epoch.  A reader pinned at that epoch may have captured the old root,
// so the run waits for it however often the store reclaims; a reader that
// enters after the retire can only capture the new root, and holds
// nothing back.  Once the old reader leaves, the run matures with exactly
// one advance behind it.
func TestEpochRetiredRunMaturesOneAdvancePastEveryPin(t *testing.T) {
	em, _, matured := newTestManager(t)
	em.Retire([]Run{{Start: disk.PageNum(2), Pages: 1}}) // move off epoch 0
	em.Reclaim()
	before := em.Advances()
	old := em.Enter() // captures the root the writer is about to supersede
	em.Retire([]Run{{Start: disk.PageNum(10), Pages: 4}})
	for i := 0; i < 3; i++ {
		em.Reclaim()
	}
	if got := matured(); got != 1 {
		t.Fatalf("matured %d pages while a reader pinned at the run's epoch is in, want only the 1 retired before", got)
	}
	young := em.Enter() // after the retire: sees the new root only
	old.Exit()
	if got, advances := matured(), em.Advances()-before; got != 5 || advances != 1 {
		t.Fatalf("matured %d pages with %d advances once the old reader left, want 5 and 1", got, advances)
	}
	young.Exit()
}

func TestEpochAdmitThrottlesOverBudget(t *testing.T) {
	em, _, _ := newTestManager(t)
	em.SetBudget(4)
	// Under budget: Admit returns immediately.
	em.Retire([]Run{{Start: disk.PageNum(10), Pages: 2}})
	em.Admit()
	// Push over budget with a pinned reader holding the backlog, then
	// release the pin from another goroutine: Admit must return well
	// before its deadline once the backlog drains.
	g := em.Enter()
	em.Retire([]Run{{Start: disk.PageNum(20), Pages: 16}})
	done := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		g.Exit()
		close(done)
	}()
	start := time.Now()
	em.Admit()
	if waited := time.Since(start); waited >= admitWait {
		t.Fatalf("Admit waited the full deadline (%v) despite the backlog draining", waited)
	}
	<-done
	if got := em.PendingPages(); got != 0 {
		t.Fatalf("PendingPages = %d after drain, want 0", got)
	}
}

func TestEpochStats(t *testing.T) {
	em, _, _ := newTestManager(t)
	em.Retire([]Run{{Start: disk.PageNum(10), Pages: 3}})
	if got := em.RetiredPages(); got != 3 {
		t.Fatalf("RetiredPages = %d, want 3", got)
	}
	if em.OldestAge() <= 0 {
		t.Fatal("OldestAge = 0 with a pending epoch")
	}
	before := em.Advances()
	em.Reclaim()
	if em.Advances() <= before {
		t.Fatal("Reclaim did not advance the epoch")
	}
	if em.OldestAge() != 0 {
		t.Fatal("OldestAge != 0 with nothing pending")
	}
}

// TestEpochReclaimsTheMaturedPrefix: runs wait in one queue in retire
// order, and a reader's exit matures the runs it held — the run an older
// reader pinned — but not a later one that a younger reader still pins.
// Behind the matured prefix, a checkpoint's flush window holds the frames
// of the runs retired inside it, and only a durable checkpoint begun after
// a run was retired releases it: released ⊆ discarded ⊆ matured, each a
// prefix of the queue, and runs leave it in the order they were retired.
func TestEpochReclaimsTheMaturedPrefix(t *testing.T) {
	em, pool, _ := newTestManager(t)
	// Every page a run names has a frame, as a shadowed index page would.
	for _, p := range []disk.PageNum{10, 20, 21, 40, 41, 42, 43, 80, 81, 82, 83, 84, 85, 86, 87} {
		if _, err := pool.FixNew(p); err != nil {
			t.Fatal(err)
		}
		if err := pool.Unpin(p); err != nil {
			t.Fatal(err)
		}
	}
	// discarded counts the frames the queue dropped.
	discarded := func() int {
		n := 0
		for _, p := range []disk.PageNum{10, 20, 21, 40, 41, 42, 43, 80, 81, 82, 83, 84, 85, 86, 87} {
			if !pool.Resident(p) {
				n++
			}
		}
		return n
	}
	older := em.Enter()
	em.Retire([]Run{{Start: disk.PageNum(10), Pages: 1}})
	em.Reclaim()
	younger := em.Enter()
	em.Retire([]Run{{Start: disk.PageNum(20), Pages: 2}})
	older.Exit()
	checkPrefixes(t, em)
	if got := discarded(); got != 1 {
		t.Fatalf("dropped %d frames once the older reader left, want the 1 it pinned", got)
	}
	if age := em.OldestAge(); age <= 0 {
		t.Fatalf("OldestAge = %v with a run still pinned", age)
	}
	younger.Exit()
	checkPrefixes(t, em)
	if got, pending := discarded(), em.PendingPages(); got != 3 || pending != 0 {
		t.Fatalf("dropped %d frames with %d pages pending once both readers left, want 3 and 0", got, pending)
	}
	if em.OldestAge() != 0 {
		t.Fatal("OldestAge != 0 with nothing pending")
	}

	// A checkpoint begins: a run retired now keeps its frames until the
	// checkpoint's flush ends.
	b := em.StartBarrier()
	em.Retire([]Run{{Start: disk.PageNum(40), Pages: 4}})
	em.Reclaim()
	checkPrefixes(t, em)
	if got := discarded(); got != 3 {
		t.Fatalf("discarded %d pages inside the flush window, want the 3 that matured before it", got)
	}
	reader := em.Enter()
	em.Retire([]Run{{Start: disk.PageNum(80), Pages: 8}})
	em.Reclaim()
	checkPrefixes(t, em)
	if got := em.Releasable(b); len(got) != 2 {
		t.Fatalf("releasable behind checkpoint %d before its flush ended: %v, want the 2 runs discarded before it", b, got)
	}
	em.EndFlush(b)
	checkPrefixes(t, em)
	if got := discarded(); got != 7 {
		t.Fatalf("discarded %d pages once the flush ended, want 7", got)
	}
	// The checkpoint is durable: it releases the runs stamped before it,
	// not the one retired inside it, nor the pinned one.
	var released []Run
	release := func(durable uint64) {
		t.Helper()
		runs := em.Releasable(durable)
		released = append(released, runs...)
		em.Released(len(runs))
		checkPrefixes(t, em)
	}
	release(b)
	if len(released) != 2 || em.WaitingPages() != 12 {
		t.Fatalf("checkpoint %d released %v with %d pages waiting, want the first 2 runs and 12", b, released, em.WaitingPages())
	}
	reader.Exit()
	checkPrefixes(t, em)
	release(b)
	if len(released) != 2 {
		t.Fatalf("checkpoint %d released %v, runs retired after it began", b, released)
	}
	b = em.StartBarrier()
	em.EndFlush(b)
	release(b)
	want := []Run{{10, 1}, {20, 2}, {40, 4}, {80, 8}}
	if len(released) != len(want) || em.WaitingPages() != 0 || em.PendingPages() != 0 {
		t.Fatalf("released %v with %d pages waiting, want %v and 0", released, em.WaitingPages(), want)
	}
	for i := range want {
		if released[i] != want[i] {
			t.Fatalf("released %v, want retire order %v", released, want)
		}
	}
}

// checkPrefixes holds the queue's invariants: discarded ⊆ matured, each a
// prefix; neither stamp decreases along the queue; the discarded prefix is
// every matured run the last ended flush covers; and the page counters add
// up.
func checkPrefixes(t *testing.T, em *EpochManager) {
	t.Helper()
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.discarded < 0 || em.discarded > em.matured || em.matured > len(em.queue) {
		t.Fatalf("prefixes discarded %d, matured %d of %d runs", em.discarded, em.matured, len(em.queue))
	}
	var pending, waiting int64
	for i, r := range em.queue {
		waiting += int64(r.Pages)
		if i >= em.matured {
			pending += int64(r.Pages)
		}
		if i > 0 && (r.epoch < em.queue[i-1].epoch || r.barrier < em.queue[i-1].barrier) {
			t.Fatalf("run %d stamped %d/%d behind a run stamped %d/%d", i, r.epoch, r.barrier, em.queue[i-1].epoch, em.queue[i-1].barrier)
		}
		if i < em.discarded && r.barrier > em.flushed {
			t.Fatalf("run %d discarded with barrier stamp %d past the last ended flush %d", i, r.barrier, em.flushed)
		}
	}
	if em.discarded < em.matured && em.queue[em.discarded].barrier <= em.flushed {
		t.Fatalf("run %d matured under the ended flush %d and kept its frames", em.discarded, em.flushed)
	}
	if pending != em.pending || waiting != em.waiting {
		t.Fatalf("counted %d pending, %d waiting pages; the queue holds %d and %d", em.pending, em.waiting, pending, waiting)
	}
}
