package eos

import (
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// fakeAlloc counts frees for deferredAlloc tests.
type fakeAlloc struct {
	freed []pageRun
}

func (f *fakeAlloc) FreeUnpublished(p disk.PageNum, n int) error { return f.Free(p, n) }

func (f *fakeAlloc) Alloc(n int) (disk.PageNum, error)          { return 1, nil }
func (f *fakeAlloc) AllocUpTo(n int) (disk.PageNum, int, error) { return 1, n, nil }
func (f *fakeAlloc) MaxSegmentPages() int                       { return 1 << 12 }
func (f *fakeAlloc) Free(p disk.PageNum, n int) error {
	f.freed = append(f.freed, pageRun{p, n})
	return nil
}

func TestDeferredAllocDefersAndApplies(t *testing.T) {
	inner := &fakeAlloc{}
	d := &deferredAlloc{inner: inner}
	if err := d.Free(10, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(20, 2); err != nil {
		t.Fatal(err)
	}
	if len(inner.freed) != 0 {
		t.Fatal("free applied eagerly")
	}
	// Pages no descriptor ever named have nothing to wait for.
	if err := d.FreeUnpublished(30, 3); err != nil {
		t.Fatal(err)
	}
	if len(inner.freed) != 1 || inner.freed[0] != (pageRun{30, 3}) {
		t.Fatalf("unpublished free not passed on at once: %v", inner.freed)
	}
	inner.freed = nil
	if err := d.apply(); err != nil {
		t.Fatal(err)
	}
	if len(inner.freed) != 2 || inner.freed[0] != (pageRun{10, 4}) {
		t.Fatalf("applied = %v", inner.freed)
	}
	// apply drains: a second apply is a no-op.
	if err := d.apply(); err != nil {
		t.Fatal(err)
	}
	if len(inner.freed) != 2 {
		t.Error("second apply re-freed")
	}
}

func TestDeferredAllocCancelRange(t *testing.T) {
	inner := &fakeAlloc{}
	d := &deferredAlloc{inner: inner}
	d.Free(1, 1)
	lo := d.mark()
	d.Free(2, 1)
	d.Free(3, 1)
	hi := d.mark()
	d.Free(4, 1)
	d.cancel(lo, hi) // drop frees of pages 2 and 3
	if err := d.apply(); err != nil {
		t.Fatal(err)
	}
	if len(inner.freed) != 2 || inner.freed[0].start != 1 || inner.freed[1].start != 4 {
		t.Fatalf("applied = %v", inner.freed)
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
