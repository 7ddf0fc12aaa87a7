package txn

import (
	"sync"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

// collectingFree returns a freeFn recording every freed run, and the
// accessor for the total pages freed so far.
func collectingFree() (func([]Run) error, func() int) {
	var mu sync.Mutex
	total := 0
	free := func(runs []Run) error {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range runs {
			total += r.Pages
		}
		return nil
	}
	pages := func() int {
		mu.Lock()
		defer mu.Unlock()
		return total
	}
	return free, pages
}

func TestEpochQuiescentReclaim(t *testing.T) {
	free, freed := collectingFree()
	em := NewEpochManager(free)
	em.Retire([]Run{{Start: disk.PageNum(10), Pages: 4}, {Start: disk.PageNum(20), Pages: 2}})
	if got := em.PendingPages(); got != 6 {
		t.Fatalf("PendingPages = %d, want 6", got)
	}
	// No readers, no mutation in flight: one Reclaim matures everything
	// (it advances past the pessimistic +1 stamp on its own).
	if err := em.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if got := freed(); got != 6 {
		t.Fatalf("freed %d pages after quiescent Reclaim, want 6", got)
	}
	if got := em.PendingPages(); got != 0 {
		t.Fatalf("PendingPages = %d after Reclaim, want 0", got)
	}
}

func TestEpochPinBlocksCollection(t *testing.T) {
	free, freed := collectingFree()
	em := NewEpochManager(free)
	g := em.Enter()
	em.Retire([]Run{{Start: disk.PageNum(10), Pages: 8}})
	if err := em.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if got := freed(); got != 0 {
		t.Fatalf("freed %d pages while a reader is pinned, want 0", got)
	}
	// Exit releases the pin and reclaims what matured.
	if err := g.Exit(); err != nil {
		t.Fatal(err)
	}
	if got := freed(); got != 8 {
		t.Fatalf("freed %d pages after pin exit, want 8", got)
	}
	// Exit is idempotent.
	if err := g.Exit(); err != nil {
		t.Fatal(err)
	}
	if got := em.Pinned(); got != 0 {
		t.Fatalf("Pinned = %d after double Exit, want 0", got)
	}
}

func TestEpochMutationScopeCapsAdvance(t *testing.T) {
	free, freed := collectingFree()
	em := NewEpochManager(free)
	scope := em.BeginMutation()
	// Mid-operation retire of pages the still-published root references:
	// they must not mature while the scope is open, no matter how many
	// reclamation points run.
	em.Retire([]Run{{Start: disk.PageNum(10), Pages: 4}})
	for i := 0; i < 3; i++ {
		if err := em.Reclaim(); err != nil {
			t.Fatal(err)
		}
	}
	if got := freed(); got != 0 {
		t.Fatalf("freed %d pages inside an open mutation scope, want 0", got)
	}
	em.EndMutation(scope)
	if err := em.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if got := freed(); got != 4 {
		t.Fatalf("freed %d pages after scope closed, want 4", got)
	}
}

func TestEpochAdmitThrottlesOverBudget(t *testing.T) {
	free, _ := collectingFree()
	em := NewEpochManager(free)
	em.SetBudget(4)
	// Under budget: Admit returns immediately.
	em.Retire([]Run{{Start: disk.PageNum(10), Pages: 2}})
	if err := em.Admit(); err != nil {
		t.Fatal(err)
	}
	// Push over budget with a pinned reader holding the backlog, then
	// release the pin from another goroutine: Admit must return well
	// before its deadline once the backlog drains.
	g := em.Enter()
	em.Retire([]Run{{Start: disk.PageNum(20), Pages: 16}})
	done := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		done <- g.Exit()
	}()
	start := time.Now()
	if err := em.Admit(); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited >= admitWait {
		t.Fatalf("Admit waited the full deadline (%v) despite the backlog draining", waited)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := em.PendingPages(); got != 0 {
		t.Fatalf("PendingPages = %d after drain, want 0", got)
	}
}

func TestEpochStats(t *testing.T) {
	free, _ := collectingFree()
	em := NewEpochManager(free)
	em.Retire([]Run{{Start: disk.PageNum(10), Pages: 3}})
	if got := em.RetiredPages(); got != 3 {
		t.Fatalf("RetiredPages = %d, want 3", got)
	}
	if em.OldestAge() <= 0 {
		t.Fatal("OldestAge = 0 with a pending epoch")
	}
	before := em.Advances()
	if err := em.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if em.Advances() <= before {
		t.Fatal("Reclaim did not advance the epoch")
	}
	if em.OldestAge() != 0 {
		t.Fatal("OldestAge != 0 with nothing pending")
	}
}

// TestEpochReclaimsTheMaturedPrefix: runs wait in one queue in retire
// order, and a reader's exit frees the runs that matured — the run an
// older reader pinned — but not a later one that a younger reader still
// pins.
func TestEpochReclaimsTheMaturedPrefix(t *testing.T) {
	free, freed := collectingFree()
	em := NewEpochManager(free)
	older := em.Enter()
	em.Retire([]Run{{Start: disk.PageNum(10), Pages: 1}})
	if err := em.Reclaim(); err != nil {
		t.Fatal(err)
	}
	younger := em.Enter()
	em.Retire([]Run{{Start: disk.PageNum(20), Pages: 2}})
	if err := older.Exit(); err != nil {
		t.Fatal(err)
	}
	if got := freed(); got != 1 {
		t.Fatalf("freed %d pages once the older reader left, want the 1 it pinned", got)
	}
	if age := em.OldestAge(); age <= 0 {
		t.Fatalf("OldestAge = %v with a run still pinned", age)
	}
	if err := younger.Exit(); err != nil {
		t.Fatal(err)
	}
	if got, pending := freed(), em.PendingPages(); got != 3 || pending != 0 {
		t.Fatalf("freed %d pages with %d pending once both readers left, want 3 and 0", got, pending)
	}
	if em.OldestAge() != 0 {
		t.Fatal("OldestAge != 0 with nothing pending")
	}
}
