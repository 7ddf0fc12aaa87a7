package eos

import (
	"math"
	"slices"
	"testing"

	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/txn"
)

// fakeAlloc hands out consecutive pages and records what is given back,
// for deferredAlloc tests.
type fakeAlloc struct {
	next        disk.PageNum
	unpublished []txn.Run
}

func (f *fakeAlloc) Alloc(n int) (disk.PageNum, error) {
	p, _, err := f.AllocUpTo(n)
	return p, err
}
func (f *fakeAlloc) AllocUpTo(n int) (disk.PageNum, int, error) {
	p := 1000 + f.next
	f.next += disk.PageNum(n)
	return p, n, nil
}
func (f *fakeAlloc) AllocAt(p disk.PageNum, n int) bool {
	if p != 1000+f.next {
		return false
	}
	f.next += disk.PageNum(n)
	return true
}
func (f *fakeAlloc) MaxSegmentPages() int { return 1 << 12 }
func (f *fakeAlloc) FreeUnpublished(p disk.PageNum, n int) error {
	f.unpublished = append(f.unpublished, txn.Run{Start: p, Pages: n})
	return nil
}

// retiredRuns returns, in order, the runs retired into a fresh epoch
// manager em: with no reader and no checkpoint, every one of them is
// releasable once reclaimed.
func retiredRuns(em *txn.EpochManager) []txn.Run {
	em.Reclaim()
	return em.Releasable(math.MaxUint64)
}

func newFakeEpochs(t *testing.T) *txn.EpochManager {
	t.Helper()
	pool, err := buffer.NewPool(disk.MustNewVolume(512, 64, disk.DefaultCostModel()), 8)
	if err != nil {
		t.Fatal(err)
	}
	return txn.NewEpochManager(pool)
}

func TestDeferredAllocDefersAndApplies(t *testing.T) {
	inner, em := &fakeAlloc{}, newFakeEpochs(t)
	d := &deferredAlloc{inner: inner}
	if err := d.Free(10, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(20, 2); err != nil {
		t.Fatal(err)
	}
	// Room the transaction did not allocate: an abort's root claims it.
	if err := d.FreeUnpublished(30, 3); err != nil {
		t.Fatal(err)
	}
	if len(inner.unpublished) != 0 || em.RetiredPages() != 0 {
		t.Fatal("free applied eagerly")
	}
	// Pages the transaction allocated have nothing to wait for.
	p, _ := d.Alloc(8)
	if err := d.FreeUnpublished(p+6, 2); err != nil {
		t.Fatal(err)
	}
	if len(inner.unpublished) != 1 || inner.unpublished[0] != (txn.Run{Start: p + 6, Pages: 2}) {
		t.Fatalf("unpublished free of its own pages not passed on at once: %v", inner.unpublished)
	}
	inner.unpublished = nil
	if err := d.apply(em, nil); err != nil {
		t.Fatal(err)
	}
	if got := retiredRuns(em); !slices.Equal(got, []txn.Run{{Start: 10, Pages: 4}, {Start: 20, Pages: 2}}) {
		t.Fatalf("retired = %v", got)
	}
	if len(inner.unpublished) != 1 || inner.unpublished[0] != (txn.Run{Start: 30, Pages: 3}) {
		t.Fatalf("applied unpublished = %v", inner.unpublished)
	}
	// apply drains: a second apply is a no-op.
	if err := d.apply(em, nil); err != nil {
		t.Fatal(err)
	}
	if em.RetiredPages() != 6 || len(inner.unpublished) != 1 {
		t.Error("second apply re-freed")
	}
	// Between scopes an object rests on the store's manager, whose
	// allocator frees nothing.
	if err := (&restAlloc{}).Free(10, 4); err == nil {
		t.Error("the store's manager freed a run outside a write scope")
	}
}

// TestDeferredAllocGivesBackWhatItAllocated: an abort drops every deferred
// free and returns exactly the pages the transaction allocated and still
// holds — placed runs too, and its own frees of them, deferred or not,
// counted once.
func TestDeferredAllocGivesBackWhatItAllocated(t *testing.T) {
	inner, em := &fakeAlloc{}, newFakeEpochs(t)
	d := &deferredAlloc{inner: inner}
	a, _ := d.Alloc(1)         // shadowed index page, shadowed again below
	b, _, _ := d.AllocUpTo(16) // a tail segment, trimmed below
	c := b + 16                // a segment placed right behind it
	if !d.AllocAt(c, 3) || d.AllocAt(7, 1) {
		t.Fatal("placement refused where the allocator places, or granted where it does not")
	}
	d.Free(5, 1) // a page of the root from before
	d.Free(a, 1)
	if err := d.FreeUnpublished(b+4, 12); err != nil {
		t.Fatal(err)
	}
	if err := d.FreeUnpublished(40, 4); err != nil { // room from before: deferred
		t.Fatal(err)
	}
	inner.unpublished = nil
	var forgot []txn.Run
	if err := d.giveBack(func(p disk.PageNum, n int) { forgot = append(forgot, txn.Run{Start: p, Pages: n}) }); err != nil {
		t.Fatal(err)
	}
	want := []txn.Run{{Start: a, Pages: 1}, {Start: c, Pages: 3}, {Start: b, Pages: 4}}
	if !slices.Equal(inner.unpublished, want) || !slices.Equal(forgot, want) {
		t.Fatalf("gave back %v (images dropped %v), want %v only", inner.unpublished, forgot, want)
	}
	if err := d.apply(em, nil); err != nil || em.RetiredPages() != 0 || !slices.Equal(inner.unpublished, want) {
		t.Fatalf("frees survived the abort: %d pages retired, %v given back (%v)", em.RetiredPages(), inner.unpublished, err)
	}
}

func TestTxnCreatedObjectOmittedFromCatalogUntilCommit(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	tx, _ := s.Begin()
	if err := tx.Create("ghost", 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("ghost", pat(1, 500)); err != nil {
		t.Fatal(err)
	}
	// A checkpoint while the creating txn is live must not persist the
	// object (soft checkpoint; stableDesc is nil so the entry is
	// omitted).
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Open("ghost"); err == nil {
		t.Error("uncommitted created object became durable")
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}
