package eos

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/buddy"
	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
	"github.com/eosdb/eos/internal/txn"
)

// readSnapshot reads the whole of sn.
func readSnapshot(t *testing.T, sn *Snapshot) []byte {
	t.Helper()
	got := make([]byte, sn.Size())
	if _, err := sn.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestAbortWakesAStalledAllocation: an allocation that finds the volume
// full while freed runs wait for a reader waits for the reclamation queue
// to move.  A transaction that aborts beside it gives back every page it
// allocated, and that wakes the waiter at once: the allocation returns well
// before its 2 s deadline.
func TestAbortWakesAStalledAllocation(t *testing.T) {
	s, err := Format(newTestDevice(t, 512, 1024), newTestDevice(t, 512, 1024), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A destroyed object's pages wait for the snapshot that reads it: the
	// queue holds runs, and none of them can mature.
	gone, err := s.Create("gone", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := gone.Append(pat(1, 64*512)); err != nil {
		t.Fatal(err)
	}
	sn, err := s.OpenSnapshot("gone")
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if err := s.Destroy("gone"); err != nil {
		t.Fatal(err)
	}
	other, err := s.Create("other", 0)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	if err := tx.Create("held", 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("held", pat(2, (freePages(t, s)-16)*512)); err != nil {
		t.Fatal(err)
	}

	appended := make(chan error, 1)
	go func() { appended <- other.Append(pat(3, 100*512)) }()
	// The append takes what is left and then waits for more.
	for deadline := time.Now().Add(5 * time.Second); freePages(t, s) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the append never ran out of space")
		}
	}
	time.Sleep(50 * time.Millisecond)
	aborted := time.Now()
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-appended; err != nil {
		t.Fatalf("the stalled append: %v", err)
	}
	if waited := time.Since(aborted); waited > allocBackpressureWait/2 {
		t.Fatalf("the stalled append returned %v after the abort gave its pages back, want well under its %v deadline", waited, allocBackpressureWait)
	}
	if !bytes.Equal(readSnapshot(t, sn), pat(1, 64*512)) {
		t.Fatal("the snapshot of the destroyed object changed")
	}
	sn.Close()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestStalledWritesWaitOnlyForTheirCheckpoints: Object inserts and deletes
// on a small volume, with no Checkpoint call, free more pages than the
// volume holds.  Each freed run waits in the reclamation queue for a
// checkpoint, which only a stalled allocation requests (spaceWaiter,
// requestBarrier), and the release that checkpoint makes wakes the stalled
// allocation: no operation waits anywhere near its 2 s deadline.
func TestStalledWritesWaitOnlyForTheirCheckpoints(t *testing.T) {
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
	total := uint64(s.opts.NumSpaces * s.opts.SpaceCapacity)
	barriers := func() int64 { return s.Stats().Barrier.MasterWrites }
	before := barriers()
	var slowest time.Duration
	timed := func(op func() error) {
		t.Helper()
		begun := time.Now()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		slowest = max(slowest, time.Since(begun))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; s.Stats().Snap.RetiredPages < 2*total; i++ {
		if i == 2000 {
			t.Fatalf("%d pages freed after %d rounds, want %d", s.Stats().Snap.RetiredPages, i, 2*total)
		}
		data := pat(i, 3000)
		off := int64(rng.Intn(len(model) + 1))
		timed(func() error { return o.Insert(off, data) })
		model = append(model[:off:off], append(append([]byte{}, data...), model[off:]...)...)
		off = int64(rng.Intn(len(model) - len(data) + 1))
		timed(func() error { return o.Delete(off, int64(len(data))) })
		model = append(model[:off:off], model[off+int64(len(data)):]...)
	}
	if barriers() == before {
		t.Fatal("no checkpoint ran: the churn never ran short of space")
	}
	t.Logf("slowest operation: %v", slowest)
	if slowest > allocBackpressureWait/2 {
		t.Fatalf("the slowest operation took %v, want well under the %v deadline of a stalled allocation", slowest, allocBackpressureWait)
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
}

// TestCommitPublishesBeforeItRetires: a commit publishes its roots before
// the runs they stopped naming enter the reclamation queue.  Here the
// publish is held up — the test holds the object's latch — while the epoch
// advances and a snapshot opens on the root the commit is about to
// supersede.  The freed runs must wait for that snapshot, through a
// checkpoint and an append that takes the free space.
func TestCommitPublishesBeforeItRetires(t *testing.T) {
	s, err := Format(newTestDevice(t, 512, 1024), newTestDevice(t, 512, 1024), Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	model := pat(1, 80*512)
	for i := 0; i < 8; i++ { // eight segments of ten pages
		if err := x.AppendWithHint(model[i*10*512:(i+1)*10*512], 10*512); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	if err := tx.Delete("x", 0, int64(len(model)/2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.commitLog(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	e := s.catalog["x"]
	s.mu.Unlock()
	e.latch.Lock()
	committed := make(chan error, 1)
	go func() { committed <- tx.commitBarrier() }()
	time.Sleep(20 * time.Millisecond) // the commit waits for the latch to publish
	s.epochs.Reclaim()
	// OpenSnapshot's pin and capture, without the store's lock, which
	// ranks before the latch.
	g := s.epochs.Enter()
	sn := &Snapshot{s: s, name: "x", v: e.obj.Published(), g: g}
	sn.src = sn
	e.latch.Unlock()
	defer sn.Close()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	y, err := s.Create("y", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := y.Append(pat(2, (freePages(t, s)-8)*512)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readSnapshot(t, sn), model) {
		t.Fatal("the snapshot opened before the commit published no longer reads its root")
	}
}

// fullVolume builds an object x whose root's four entries point at index
// pages, checkpoints it — nothing waits in the reclamation queue —, and
// then takes every free page of the volume.  It returns x, its content,
// its segments and the runs it took.
func fullVolume(t *testing.T, vol, logVol disk.Device) (*Store, *Object, []byte, []lob.SegmentInfo, []txn.Run) {
	t.Helper()
	s, err := Format(vol, logVol, Options{Threshold: 4, MaxRootEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	model := pat(1, 12000)
	if err := x.AppendWithHint(model, int64(len(model))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ { // the root's four entries come to point at index pages
		off, d := 200+i*1723%(len(model)/2), pat(100+i, 2100)
		if err := x.Insert(int64(off), d); err != nil {
			t.Fatal(err)
		}
		model = append(model[:off:off], append(d, model[off:]...)...)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, err := x.Segments()
	if err != nil || len(segs) <= 16 {
		t.Fatalf("x has %d segments (%v), want more than a root of 4 entries over index pages", len(segs), err)
	}
	var taken []txn.Run
	for {
		p, n, err := s.buddy.AllocUpTo(1 << 10)
		if err != nil {
			return s, x, model, segs, taken
		}
		taken = append(taken, txn.Run{Start: p, Pages: n})
	}
}

// TestWriteCannotPayWithPagesItFreed: an Object write keeps the runs it
// frees until its publish, as a transaction keeps them until its commit
// (§4.5's release locks), so it cannot pay for the index pages it shadows
// with them.  On a full volume, a delete of a whole segment frees the
// segment and then needs a page for the index node it rewrites: with
// nothing in the reclamation queue that could come back, it fails for want
// of space.  It must not wait for a checkpoint to hand it the segment,
// which the published root and the durable catalog still name.
func TestWriteCannotPayWithPagesItFreed(t *testing.T) {
	s, x, model, segs, _ := fullVolume(t, newTestDevice(t, 512, 1024), newTestDevice(t, 512, 2048))
	seg := segs[len(segs)/2]
	if err := x.Delete(seg.LogicalOff, seg.Bytes); !errors.Is(err, buddy.ErrNoSpace) {
		t.Fatalf("a delete on a full volume returned %v, want %v: it paid for its index page with the segment it freed", err, buddy.ErrNoSpace)
	}
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("the failed delete changed x")
	}
}

// TestFailedWriteGoesBackToItsCommitPoint: the delete above fails after it
// freed the segment its root names; it goes back to x's last commit point,
// and its frees with it, so once the volume's pages are back and a
// checkpoint has run every page is counted once.
func TestFailedWriteGoesBackToItsCommitPoint(t *testing.T) {
	s, x, model, segs, taken := fullVolume(t, newTestDevice(t, 512, 1024), newTestDevice(t, 512, 2048))
	seg := segs[len(segs)/2]
	if err := x.Delete(seg.LogicalOff, seg.Bytes); !errors.Is(err, buddy.ErrNoSpace) {
		t.Fatalf("a delete on a full volume returned %v, want %v", err, buddy.ErrNoSpace)
	}
	for _, r := range taken {
		if err := s.buddy.FreeUnpublished(r.Start, r.Pages); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("the failed delete changed x")
	}
}

// TestFailedOperationDoomsItsTransaction: a transactional delete that fails
// behind its logged record dooms its transaction — recovery would redo the
// record — so Commit aborts and returns the failure, and x reads the same
// before and after a crash and reopen.
func TestFailedOperationDoomsItsTransaction(t *testing.T) {
	vol, logVol := newTestDevice(t, 512, 1024), newTestDevice(t, 512, 2048)
	s, _, model, segs, _ := fullVolume(t, vol, logVol)
	seg := segs[len(segs)/2]
	tx, _ := s.Begin()
	if err := tx.Delete("x", seg.LogicalOff, seg.Bytes); !errors.Is(err, buddy.ErrNoSpace) {
		t.Fatalf("a delete on a full volume returned %v, want %v", err, buddy.ErrNoSpace)
	}
	if err := tx.Commit(); !errors.Is(err, buddy.ErrNoSpace) {
		t.Errorf("Commit after the failed delete returned %v, want %v", err, buddy.ErrNoSpace)
	}
	if got := readObject(t, s, "x"); !bytes.Equal(got, model) {
		t.Errorf("x reads %d bytes before the crash, want its %d", len(got), len(model))
	}
	if err := vol.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := logVol.Crash(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(vol, logVol, Options{Threshold: 4, MaxRootEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := readObject(t, re, "x"); !bytes.Equal(got, model) {
		t.Fatalf("x reads %d bytes after the crash, want its %d", len(got), len(model))
	}
}
