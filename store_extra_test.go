package eos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/buddy"
	"github.com/eosdb/eos/internal/disk"
)

func TestCheckNoLeaksAcrossLifecycle(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatalf("fresh store: %v", err)
	}
	o, _ := s.Create("a", 0)
	if err := o.Append(pat(1, 60000)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatalf("after append: %v", err)
	}
	if err := o.Insert(30000, pat(2, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(1000, 20000); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatalf("after updates: %v", err)
	}
	tx, _ := s.Begin()
	if err := tx.Insert("a", 0, pat(3, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatalf("after abort: %v", err)
	}
	if err := s.Destroy("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatalf("after destroy: %v", err)
	}
}

// TestFailedAppendLeavesStoreUnchanged: an append that runs out of space
// part-way — the ROADMAP's "a failed append leaves the object one page
// longer" — changes neither the object nor the page accounting.
func TestFailedAppendLeavesStoreUnchanged(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	o, _ := s.Create("a", 0)
	data := pat(7, 70000)
	if err := o.Append(data); err != nil {
		t.Fatal(err)
	}
	free, _ := s.FreePages()
	// More than the volume holds: the append takes what runs there are
	// before it finds the space exhausted.
	if err := o.Append(pat(8, 4096*s.PageSize())); !errors.Is(err, buddy.ErrNoSpace) {
		t.Fatalf("append beyond the volume's capacity: err = %v, want ErrNoSpace", err)
	}
	if got, err := o.Read(0, o.Size()); err != nil || !bytes.Equal(got, data) {
		t.Errorf("after the failed append: %d bytes (err %v), want the %d appended before", len(got), err, len(data))
	}
	if err := s.Check(); err != nil {
		t.Error(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Error(err)
	}
	// No root ever named the runs it took, so they are free again now, not
	// after the next barrier.
	if after, _ := s.FreePages(); after != free {
		t.Errorf("free pages %d right after the failed append, %d before it", after, free)
	}
}

// TestSmallAppendsNeedNoBarrier: a few hundred small appends — one Append
// call each, or one short stream of unknown size each — with no checkpoint
// between them and a snapshot reader open throughout fill a sixth of the
// volume and must not run it out of space.  They did, at the twentieth
// append and after many seconds of allocation backpressure, when every
// call took the doubling schedule's next run and its trimmed tail was
// retired behind the reader's pin like a page the reader could reach.
func TestSmallAppendsNeedNoBarrier(t *testing.T) {
	for _, tc := range []struct {
		name   string
		append func(o *Object, data []byte) error
	}{
		{"Append", func(o *Object, data []byte) error { return o.Append(data) }},
		{"Appender", func(o *Object, data []byte) error {
			a := o.OpenAppender(0)
			if _, err := a.Write(data); err != nil {
				return err
			}
			return a.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, _ := newStore(t, Options{})
			o, _ := s.Create("a", 0)
			var model []byte
			var snap *Snapshot
			for i := 0; i < 300; i++ {
				data := pat(i, 900+i%400)
				if err := tc.append(o, data); err != nil {
					t.Fatalf("append %d of 300, %d bytes stored on a %d-page volume: %v",
						i, len(model), 4096, err)
				}
				model = append(model, data...)
				if snap == nil {
					var err error
					if snap, err = s.OpenSnapshot("a"); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got, err := o.Read(0, o.Size()); err != nil || !bytes.Equal(got, model) {
				t.Fatalf("content wrong after 300 appends (err %v)", err)
			}
			if err := snap.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.Check(); err != nil {
				t.Error(err)
			}
			if err := s.CheckNoLeaks(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCheckNoLeaksAfterRecovery(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	o, _ := s.Create("r", 0)
	if err := o.Append(pat(4, 40000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	if err := tx.Insert("r", 100, pat(5, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.CheckNoLeaks(); err != nil {
		t.Fatalf("after redo recovery: %v", err)
	}
}

// TestRecoveryTrimsTheTailsRedoOpened: redo re-executes committed appends
// with the plain Append, which leaves each tail open for a next append
// that never comes — every open forgets tails.  Recovery trims them before
// its checkpoint, so no object keeps the room reserved.
func TestRecoveryTrimsTheTailsRedoOpened(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	want := map[string][]byte{}
	for i, name := range []string{"a", "b", "c"} {
		o, err := s.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = pat(100+i, 5000)
		if err := o.Append(want[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		tx, _ := s.Begin()
		for i, name := range []string{"a", "b", "c"} {
			more := pat(110+3*round+i, 300)
			if err := tx.Append(name, more); err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], more...)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	re := crashReopen(t, vol, logVol)
	if got := re.Stats().Recovery.Redone; got != 6 {
		t.Fatalf("recovery redid %d appends, want 6", got)
	}
	expectObjects(t, re, want)
	for name := range want {
		// A trimmed segment wastes less than its last page.
		o, _ := re.Open(name)
		if u, err := o.Usage(); err != nil || u.WastedBytes >= int64(u.SegmentCount*re.PageSize()) {
			t.Errorf("%s: %d segments keep %d bytes of room behind their bytes (err %v): an open tail", name, u.SegmentCount, u.WastedBytes, err)
		}
	}
	if err := re.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestTxnChurnWithoutCheckpoints: transactional inserts and deletes on a
// small volume, with no Checkpoint call, allocate more pages over the run
// than the volume holds, and no operation may fail for want of space.
// Committed, they free as many: a commit is no barrier, so those pages wait
// in the durability quarantine until a failed allocation asks for a
// checkpoint (spaceWaiter, requestBarrier).  Aborted, they free nothing the
// root from before names, and what they allocated goes back at once: no
// page waits for a checkpoint, and none runs.
func TestTxnChurnWithoutCheckpoints(t *testing.T) {
	for _, abort := range []bool{false, true} {
		t.Run(fmt.Sprintf("abort=%v", abort), func(t *testing.T) {
			vol := newTestDevice(t, 512, 1024)
			logVol := newTestDevice(t, 512, 8192)
			s, err := Format(vol, logVol, Options{})
			if err != nil {
				t.Fatal(err)
			}
			o, err := s.Create("x", 0)
			if err != nil {
				t.Fatal(err)
			}
			model := pat(1, 100000)
			if err := o.Append(model); err != nil {
				t.Fatal(err)
			}
			// The append logged nothing: the first transaction to take x
			// would checkpoint it (Store.checkpointUnlogged).
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			total := uint64(s.opts.NumSpaces * s.opts.SpaceCapacity)
			barriers := func() int64 { return s.Stats().Barrier.MasterWrites }
			end := func(tx *Txn) {
				t.Helper()
				finish := tx.Commit
				if abort {
					finish = tx.Abort
				}
				if err := finish(); err != nil {
					t.Fatal(err)
				}
			}
			before, free := barriers(), freePages(t, s)
			done := func(i int) bool {
				if abort {
					return i == 200 // allocating more pages than the volume holds
				}
				return s.Stats().Snap.RetiredPages >= 2*total
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; !done(i); i++ {
				if i == 2000 {
					t.Fatalf("%d pages freed after %d rounds, want %d", s.Stats().Snap.RetiredPages, i, 2*total)
				}
				data := pat(i, 3000)
				off := int64(rng.Intn(len(model) + 1))
				tx, _ := s.Begin()
				if err := tx.Insert("x", off, data); err != nil {
					t.Fatalf("round %d, insert: %v", i, err)
				}
				end(tx)
				if !abort {
					model = append(model[:off:off], append(append([]byte{}, data...), model[off:]...)...)
				}
				off = int64(rng.Intn(len(model) - len(data) + 1))
				tx, _ = s.Begin()
				if err := tx.Delete("x", off, int64(len(data))); err != nil {
					t.Fatalf("round %d, delete: %v", i, err)
				}
				end(tx)
				if !abort {
					model = append(model[:off:off], model[off+int64(len(data)):]...)
				}
			}
			switch {
			case abort && (barriers() != before || s.Stats().Snap.RetiredPages != 0 || freePages(t, s) != free):
				t.Fatalf("the aborts left %d free pages of %d, retired %d and ran %d checkpoints, want all back at once", freePages(t, s), free, s.Stats().Snap.RetiredPages, barriers()-before)
			case !abort && barriers() == before:
				t.Fatal("no checkpoint ran: the churn never ran short of space")
			}
			if !bytes.Equal(readObject(t, s, "x"), model) {
				t.Fatal("content wrong after the churn")
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
			if err := s.CheckNoLeaks(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIOErrorsPropagateWithoutPanic(t *testing.T) {
	s, vol, _ := newStore(t, Options{})
	o, _ := s.Create("e", 0)
	if err := o.Append(pat(6, 50000)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected I/O failure")

	// Fail at several depths into each operation; every call must
	// surface an error (or succeed if it needed fewer I/Os) — never
	// panic, never corrupt the in-memory model silently.
	ops := []struct {
		name string
		run  func() error
	}{
		{"read", func() error { _, err := o.Read(10000, 5000); return err }},
		{"replace", func() error { return o.Replace(10000, pat(7, 2000)) }},
		{"insert", func() error { return o.Insert(20000, pat(8, 500)) }},
		{"delete", func() error { return o.Delete(5000, 800) }},
		{"append", func() error { return o.Append(pat(9, 3000)) }},
	}
	for _, op := range ops {
		for after := int64(0); after < 4; after++ {
			vol.FailAfter(after, boom)
			err := op.run()
			vol.ClearFault()
			if err != nil && !errors.Is(err, boom) {
				t.Errorf("%s (after %d): unexpected error %v", op.name, after, err)
			}
		}
	}
	// The store may have leaked pages from interrupted operations — that
	// is what recovery's free-space rebuild repairs — but reads must
	// still work after faults clear for all content the model confirms.
	if _, err := o.Read(0, 100); err != nil {
		t.Fatalf("read after faults cleared: %v", err)
	}
}

func TestConcurrentTxnsOnDistinctObjects(t *testing.T) {
	s, _, _ := newStore(t, Options{LockTimeout: 5 * time.Second})
	const workers = 8
	for i := 0; i < workers; i++ {
		o, err := s.Create(fmt.Sprintf("obj-%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Append(pat(i, 4000)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("obj-%d", i)
			for round := 0; round < 10; round++ {
				tx, err := s.Begin()
				if err != nil {
					errs <- err
					return
				}
				if err := tx.Insert(name, int64(round*100), pat(round, 200)); err != nil {
					errs <- err
					return
				}
				if err := tx.Append(name, pat(round, 100)); err != nil {
					errs <- err
					return
				}
				if round%3 == 0 {
					if err := tx.Abort(); err != nil {
						errs <- err
						return
					}
				} else if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
	// Each object: base 4000 + committed rounds (6 of 10; rounds 0, 3,
	// 6, 9 abort) x 300 bytes.
	for i := 0; i < workers; i++ {
		o, _ := s.Open(fmt.Sprintf("obj-%d", i))
		if o.Size() != 4000+6*300 {
			t.Errorf("obj-%d size = %d, want %d", i, o.Size(), 4000+6*300)
		}
	}
}

func TestConcurrentReadersWithWriter(t *testing.T) {
	s, _, _ := newStore(t, Options{LockTimeout: 5 * time.Second})
	o, _ := s.Create("shared", 0)
	base := pat(10, 20000)
	if err := o.Append(base); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Readers under shared locks, a fixed number of transactions each.  A
	// transaction that only reads logs nothing, so they leave the log as
	// the writer alone fills it.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tx, err := s.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				data, err := tx.Read("shared", 0, 100)
				if err != nil {
					t.Error(err)
					return
				}
				if len(data) != 100 {
					t.Error("short read")
				}
				tx.Abort()
			}
		}()
	}
	// One writer alternating commits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			tx, err := s.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			if err := tx.Replace("shared", 500, pat(i, 100)); err != nil {
				t.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidation(t *testing.T) {
	vol := disk.MustNewVolume(512, 64, disk.CostModel{})
	logVol := disk.MustNewVolume(512, 16, disk.CostModel{})
	// Volume too small for the requested layout.
	if _, err := Format(vol, logVol, Options{NumSpaces: 10, SpaceCapacity: 400}); err == nil {
		t.Error("oversized layout accepted")
	}
	// Defaults on a modest volume succeed.
	vol2 := disk.MustNewVolume(512, 2048, disk.CostModel{})
	s, err := Format(vol2, logVol, Options{})
	if err != nil {
		t.Fatalf("defaulted Format: %v", err)
	}
	if s.PageSize() != 512 {
		t.Errorf("page size = %d", s.PageSize())
	}
}

func TestOpenRejectsGarbageHeader(t *testing.T) {
	vol := disk.MustNewVolume(512, 2048, disk.CostModel{})
	logVol := disk.MustNewVolume(512, 64, disk.CostModel{})
	if _, err := Open(vol, logVol, Options{}); !errors.Is(err, ErrCorruptStore) {
		t.Errorf("open of unformatted volume: %v", err)
	}
}

func TestCatalogManyObjects(t *testing.T) {
	s, vol, logVol := newStore(t, Options{CatalogPages: 8})
	var names []string
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("object-%02d", i)
		o, err := s.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Append(pat(i, 100*(i+1))); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.List(); len(got) != len(names) {
		t.Fatalf("recovered %d objects, want %d", len(got), len(names))
	}
	for i, name := range names {
		o, err := s2.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.Read(0, o.Size())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pat(i, 100*(i+1))) {
			t.Errorf("%s content mismatch", name)
		}
	}
	if err := s2.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestLockTimeoutSurfacesAsError(t *testing.T) {
	s, _, _ := newStore(t, Options{LockTimeout: 50 * time.Millisecond})
	o, _ := s.Create("locked", 0)
	if err := o.Append(pat(11, 100)); err != nil {
		t.Fatal(err)
	}
	t1, _ := s.Begin()
	if err := t1.Replace("locked", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	t2, _ := s.Begin()
	if err := t2.Replace("locked", 0, []byte("y")); err == nil {
		t.Error("conflicting write succeeded")
	}
	t1.Commit()
	t2.Abort()
}

func TestTxnTruncate(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	o, _ := s.Create("t", 0)
	data := pat(78, 5000)
	if err := o.Append(data); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	if err := tx.Truncate("t", 2000); err != nil {
		t.Fatal(err)
	}
	if err := tx.Truncate("t", 5000); err == nil {
		t.Error("growing truncate accepted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := o.Read(0, o.Size())
	if !bytes.Equal(got, data[:2000]) {
		t.Error("truncate content wrong")
	}

	// Truncate inside an aborted txn rolls back.
	tx2, _ := s.Begin()
	if err := tx2.Truncate("t", 0); err != nil {
		t.Fatal(err)
	}
	if sz, _ := tx2.Size("t"); sz != 0 {
		t.Errorf("size inside txn = %d", sz)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if o.Size() != 2000 {
		t.Errorf("size after abort = %d, want 2000", o.Size())
	}
}

func TestStoreClose(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	o, _ := s.Create("c", 0)
	if err := o.Append(pat(79, 1000)); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	if err := tx.Append("c", pat(80, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil {
		t.Error("Close with live txn accepted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything durable after Close.
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := s2.Open("c")
	if o2.Size() != 1010 {
		t.Errorf("size after close+reopen = %d", o2.Size())
	}
}

// TestNonTransactionalWritersRefuseATransactionsObject: while a live
// transaction holds an object dirty, every non-transactional change of it is
// refused, as Rename is: it would publish the transaction's uncommitted root
// to snapshots, make it the catalog's, or take the root from before the
// transaction away from its abort.  The abort then finds that root whole, and
// once it is done the writers work again.
func TestNonTransactionalWritersRefuseATransactionsObject(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	x, _ := s.Create("x", 0)
	committed := pat(5, 3000)
	if err := x.Append(committed); err != nil {
		t.Fatal(err)
	}
	desc := x.e.obj.EncodeDescriptor()
	tx, _ := s.Begin()
	if err := tx.Insert("x", 1000, pat(6, 500)); err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func() error{
		"Append":         func() error { return x.Append(pat(7, 100)) },
		"AppendWithHint": func() error { return x.AppendWithHint(pat(7, 100), 100) },
		"Appender": func() error {
			_, err := x.OpenAppender(0).Write(pat(7, 100))
			return err
		},
		"Insert":       func() error { return x.Insert(0, pat(7, 100)) },
		"Delete":       func() error { return x.Delete(0, 100) },
		"Truncate":     func() error { return x.Truncate(100) },
		"Replace":      func() error { return x.Replace(0, pat(7, 100)) },
		"Compact":      func() error { return x.Compact() },
		"SetThreshold": func() error { return x.SetThreshold(2) },
		"Destroy":      func() error { return s.Destroy("x") },
		"Rename":       func() error { return s.Rename("x", "z") },
	} {
		if err := write(); !errors.Is(err, ErrInUse) {
			t.Errorf("%s of an object a live transaction holds: %v, want ErrInUse", name, err)
		}
	}
	snap, err := s.OpenSnapshot("x")
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]byte, snap.Size())
	if _, err := snap.ReadAt(seen, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	snap.Close()
	if !bytes.Equal(seen, committed) {
		t.Fatalf("a snapshot sees %d bytes, want the committed %d", len(seen), len(committed))
	}
	s.mu.Lock()
	stable := x.e.loadStableDesc()
	s.mu.Unlock()
	if !bytes.Equal(stable, desc) {
		t.Fatal("the catalog's descriptor is no longer the committed one")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readObject(t, s, "x"), committed) {
		t.Fatal("content wrong after the abort")
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
	if err := x.Append(pat(8, 100)); err != nil {
		t.Fatalf("append after the transaction ended: %v", err)
	}
}
