package eos

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/wal"
)

// The checkpoint writes what it captured without holding Store.mu: these
// tests hold its data writes at a gate and run transactions, snapshot opens
// and crashes around them.

// ckptDevice is a volume for the checkpoint tests.  Once holdRun is set, the
// holdRun-th WriteRun from then on announces itself on entered and waits for
// release.  With a cutter it stops serving requests where the cutter says,
// as a power cut would.
type ckptDevice struct {
	disk.Device
	holdRun          atomic.Int64
	runs             atomic.Int64
	heldAt           atomic.Int64 // the first page of the WriteRun held last
	entered, release chan struct{}
	cut              *cutter
}

// cutter counts the requests of a store's two volumes once armed, and fails
// every one from the left-th on.
type cutter struct {
	armed atomic.Bool
	left  atomic.Int64
}

var errCut = errors.New("power cut")

func (c *cutter) pass() error {
	if c == nil || !c.armed.Load() || c.left.Add(-1) >= 0 {
		return nil
	}
	return errCut
}

// hit reports whether a request was refused.
func (c *cutter) hit() bool { return c.armed.Load() && c.left.Load() < 0 }

func newCkptDevice(t *testing.T, pages disk.PageNum, cut *cutter) *ckptDevice {
	return &ckptDevice{Device: newTestDevice(t, 512, pages), entered: make(chan struct{}), release: make(chan struct{}), cut: cut}
}

func (d *ckptDevice) ReadPages(start disk.PageNum, n int, buf []byte) error {
	if err := d.cut.pass(); err != nil {
		return err
	}
	return d.Device.ReadPages(start, n, buf)
}

func (d *ckptDevice) Read(start disk.PageNum, n int) ([]byte, error) {
	if err := d.cut.pass(); err != nil {
		return nil, err
	}
	return d.Device.Read(start, n)
}

func (d *ckptDevice) WritePages(start disk.PageNum, n int, buf []byte) error {
	if err := d.cut.pass(); err != nil {
		return err
	}
	return d.Device.WritePages(start, n, buf)
}

func (d *ckptDevice) WriteRun(start disk.PageNum, pages [][]byte) error {
	if h := d.holdRun.Load(); h > 0 && d.runs.Add(1) == h {
		d.holdRun.Store(0)
		d.heldAt.Store(int64(start))
		d.entered <- struct{}{}
		<-d.release
	}
	if err := d.cut.pass(); err != nil {
		return err
	}
	return d.Device.WriteRun(start, pages)
}

func (d *ckptDevice) Force(start disk.PageNum, n int) error {
	if err := d.cut.pass(); err != nil {
		return err
	}
	return d.Device.Force(start, n)
}

func (d *ckptDevice) ForceAll() error {
	if err := d.cut.pass(); err != nil {
		return err
	}
	return d.Device.ForceAll()
}

// hold makes the n-th WriteRun from now on wait at the gate.
func (d *ckptDevice) hold(n int64) {
	d.runs.Store(0)
	d.holdRun.Store(n)
}

// awaitGate waits until a held WriteRun is at the gate.
func (d *ckptDevice) awaitGate(t *testing.T) {
	t.Helper()
	select {
	case <-d.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the checkpoint issued no held WriteRun")
	}
}

// ckptCommit commits one transaction of op, and fails the test if it does not.
func ckptCommit(t *testing.T, s *Store, op func(tx *Txn) error) {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := op(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitsRunWhileACheckpointWrites: with a checkpoint's first data
// WriteRun held at a gate, another goroutine begins a transaction, replaces
// bytes of a page the checkpoint is writing, commits, and opens and reads a
// snapshot — all to completion.  The checkpoint holds Store.mu only for its
// capture and its completion, and the counters say so.
func TestCommitsRunWhileACheckpointWrites(t *testing.T) {
	vol := newCkptDevice(t, 4096, nil)
	s, err := Format(vol, newTestDevice(t, 512, 1024), Options{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	model := pat(1, 3000)
	if err := o.AppendWithHint(model, 3000); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first, second := pat(2, 300), pat(3, 100)
	ckptCommit(t, s, func(tx *Txn) error { return tx.Replace("x", 600, first) })
	copy(model[600:], first)
	if st := s.Stats().LOB; st.ReplacedPending == 0 {
		t.Fatal("the committed replace left no page pending")
	}

	vol.hold(1)
	ckpt := make(chan error, 1)
	go func() { ckpt <- s.Checkpoint() }()
	vol.awaitGate(t)
	done := make(chan error, 1)
	go func() {
		tx, err := s.Begin()
		if err == nil {
			err = tx.Replace("x", 650, second)
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			done <- err
			return
		}
		sn, err := s.OpenSnapshot("x")
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, 3000)
		if _, err := sn.ReadAt(buf, 0); err != nil {
			done <- err
			return
		}
		if !bytes.Equal(buf[650:750], second) {
			done <- errors.New("the snapshot does not show the commit")
			return
		}
		done <- sn.Close()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(vol.release)
		t.Fatal("Begin → Replace → Commit and OpenSnapshot did not complete while the checkpoint's write was held")
	}
	close(vol.release)
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	copy(model[650:], second)
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("x after the checkpoint is not the committed bytes")
	}
	if st := s.Stats().LOB; st.ReplacedPending == 0 {
		t.Fatal("the page the held write carried no longer holds the later commit's image in the set")
	}
	b := s.Stats().Barrier
	t.Logf("checkpoints: %v in all, %v holding the store's lock; %d stalled sections (%v)", b.Time, b.Locked, b.Stalls, b.StallTime)
	if b.Locked <= 0 || b.Locked >= b.Time || b.Stalls != 0 {
		t.Fatalf("checkpoints took %v and held the store's lock %v; %d Begin or commit sections waited on one, want none", b.Time, b.Locked, b.Stalls)
	}
	if err := vol.Crash(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(vol, s.logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("x after a crash is not the committed bytes")
	}
}

// TestCommitsLeaveTheCapturedImageItsRoom: while a checkpoint writes, the
// log keeps room for the image it captured, however far the catalog shrinks
// meanwhile.  With the checkpoint's first data WriteRun held at a gate, a
// transaction destroys all but one of thirty objects, and commits then fill
// the log until it refuses one.  Released, the checkpoint must still log
// its image.
func TestCommitsLeaveTheCapturedImageItsRoom(t *testing.T) {
	vol := newCkptDevice(t, 4096, nil)
	s, err := Format(vol, newTestDevice(t, 512, 128), Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 30)
	for i := range names {
		names[i] = fmt.Sprintf("%02d-%s", i, strings.Repeat("n", 100))
		o, err := s.Create(names[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.AppendWithHint(pat(i, 600), 600); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A committed replace leaves a page pending: the checkpoint writes it
	// in the WriteRun the gate holds.
	ckptCommit(t, s, func(tx *Txn) error { return tx.Replace(names[0], 10, pat(50, 20)) })

	vol.hold(1)
	release := sync.OnceFunc(func() { close(vol.release) })
	defer release()
	ckpt := make(chan error, 1)
	go func() { ckpt <- s.Checkpoint() }()
	vol.awaitGate(t)
	ckptCommit(t, s, func(tx *Txn) error {
		for _, name := range names[1:] {
			if err := tx.Destroy(name); err != nil {
				return err
			}
		}
		return nil
	})
	refused := false
	for i := 0; i < 1000 && !refused; i++ {
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		err = tx.Replace(names[0], int64(i%500), pat(i, 100))
		if err == nil {
			err = tx.Commit()
		}
		if refused = errors.Is(err, wal.ErrLogFull); refused {
			err = tx.Abort()
		}
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if !refused {
		t.Fatal("the log took 1000 commits without filling")
	}
	release()
	if err := <-ckpt; err != nil {
		t.Fatalf("the checkpoint found no room for the image it captured: %v", err)
	}
}

// TestUnlockedCheckpointSurvivesCommitsAndCrashes pauses a checkpoint's
// unlocked write after its first run, with the second run's request held.
// Meanwhile transactions commit (a) a replace over a page of that run and
// (b) an append that fills an open tail the checkpoint captured — the tail
// stays pending, closed, its partial page with a newer image than the
// captured one —, and a replace over a page the first run wrote.  Then the store is cut off at
// each later device request in turn — and once the checkpoint has finished
// — and every recovery must show the committed bytes exactly, with no page
// leaked.  A live store must show them too once the checkpoint is done.
func TestUnlockedCheckpointSurvivesCommitsAndCrashes(t *testing.T) {
	for k := int64(0); ; k++ {
		if !unlockedCheckpointCrash(t, k) {
			t.Logf("%d crash points, and a crash behind the checkpoint", k)
			return
		}
	}
}

// unlockedCheckpointCrash runs the scenario with the k-th request after the
// pause cut off, and reports whether the cut came before the checkpoint was
// done.
func unlockedCheckpointCrash(t *testing.T, k int64) bool {
	t.Helper()
	cut := &cutter{}
	vol, logVol := newCkptDevice(t, 4096, cut), newCkptDevice(t, 1024, cut)
	s, err := Format(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	model := map[string][]byte{}
	for i, name := range []string{"a", "b", "c"} {
		o, err := s.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		model[name] = pat(10+i, 3000)
		if err := o.AppendWithHint(model[name], 3000); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	replace := func(name string, off int, data []byte) {
		t.Helper()
		ckptCommit(t, s, func(tx *Txn) error { return tx.Replace(name, int64(off), data) })
		copy(model[name][off:], data)
	}
	appendTo := func(name string, data []byte) {
		t.Helper()
		ckptCommit(t, s, func(tx *Txn) error { return tx.Append(name, data) })
		model[name] = append(model[name], data...)
	}
	replace("a", 100, pat(20, 200)) // a's first page: the first run
	replace("b", 1000, pat(21, 200))
	appendTo("c", pat(22, 700)) // an open tail of 8 pages, 2 of them pending
	segs, err := mustOpen(t, s, "b").Segments()
	if err != nil {
		t.Fatal(err)
	}

	vol.hold(2)
	ckpt := make(chan error, 1)
	go func() { ckpt <- s.Checkpoint() }()
	vol.awaitGate(t)
	if at := disk.PageNum(vol.heldAt.Load()); at < segs[0].StartPage || at >= segs[0].StartPage+disk.PageNum(segs[0].Pages) {
		close(vol.release)
		t.Fatalf("the held run starts at page %d, outside b's segment at %d", at, segs[0].StartPage)
	}
	replace("b", 1100, pat(23, 50)) // (a) over the run in flight
	appendTo("c", pat(24, 4000))    // (b) fills the captured tail, writing nothing
	replace("a", 150, pat(25, 20))  // over a page the first run wrote
	cut.left.Store(k)
	cut.armed.Store(true)
	close(vol.release)
	err = <-ckpt
	hit := cut.hit()
	cut.armed.Store(false)
	if !hit {
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		for name, want := range model {
			if !bytes.Equal(readObject(t, s, name), want) {
				t.Fatalf("%s after the checkpoint is not the committed bytes", name)
			}
		}
	} else if err == nil {
		t.Fatalf("cut at request %d: the checkpoint reports success", k)
	}
	if err := vol.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := logVol.Crash(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(vol, logVol, Options{})
	if err != nil {
		t.Fatalf("cut at request %d: open: %v", k, err)
	}
	for name, want := range model {
		if !bytes.Equal(readObject(t, s, name), want) {
			t.Fatalf("cut at request %d: %s after recovery is not the committed bytes", k, name)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatalf("cut at request %d: %v", k, err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatalf("cut at request %d: %v", k, err)
	}
	return hit
}

func mustOpen(t *testing.T, s *Store, name string) *Object {
	t.Helper()
	o, err := s.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestCheckpointKeepsShadowedIndexPages: a commit made while a checkpoint
// writes shadows the index pages of the root the checkpoint captured, and
// with no snapshot open the old pages are released at once.  Their frames
// still hold the captured tree, which the checkpoint has not flushed yet;
// a crash once it is done must recover from that tree, byte-exact and with
// no page leaked.
func TestCheckpointKeepsShadowedIndexPages(t *testing.T) {
	opts := Options{Threshold: 4, MaxRootEntries: 4}
	vol, logVol := newCkptDevice(t, 8192, nil), newTestDevice(t, 512, 2048)
	s, err := Format(vol, logVol, opts)
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	model := pat(1, 12000)
	if err := o.AppendWithHint(model, int64(len(model))); err != nil {
		t.Fatal(err)
	}
	// Each insert is a segment of its own and splits the one it lands in:
	// the root's four entries come to point at index pages.
	insert := func(i, off int) {
		t.Helper()
		d := pat(100+i, 2100)
		ckptCommit(t, s, func(tx *Txn) error { return tx.Insert("x", int64(off), d) })
		model = append(model[:off:off], append(d, model[off:]...)...)
	}
	for i := 0; i < 24; i++ {
		insert(i, 200+i*1723%(len(model)/2))
	}
	if segs, err := o.Segments(); err != nil || len(segs) <= 16 {
		t.Fatalf("x has %d segments (%v), want more than a root of 4 entries over index pages", len(segs), err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One more insert shadows the index pages into dirty frames, and a
	// replace at the end leaves a page for the checkpoint's first data write.
	insert(24, 1000)
	end := len(model) - 300
	d := pat(200, 200)
	ckptCommit(t, s, func(tx *Txn) error { return tx.Replace("x", int64(end), d) })
	copy(model[end:], d)
	if st := s.Stats().LOB; st.ReplacedPending == 0 {
		t.Fatal("the committed replace left no page pending")
	}

	vol.hold(1)
	ckpt := make(chan error, 1)
	go func() { ckpt <- s.Checkpoint() }()
	vol.awaitGate(t)
	insert(25, 1500) // shadows the captured index pages again
	close(vol.release)
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	if err := vol.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := logVol.Crash(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(vol, logVol, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("x after the crash is not the committed bytes")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWaitsForARequestedCheckpoint: an allocation the free space
// cannot serve while freed runs wait for a checkpoint requests one on a
// goroutine of its own (Store.requestBarrier).  Close must not return
// while that checkpoint is still to run: it would run on the closed store,
// or on volumes the caller is reopening.  Here Close is already waiting to
// run its own checkpoint when the request comes, so it takes the store
// first.
func TestCloseWaitsForARequestedCheckpoint(t *testing.T) {
	s, err := Format(newTestDevice(t, 512, 1024), newTestDevice(t, 512, 1024), Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.Create("big", 0)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := s.Create("gone", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := gone.Append(pat(1, 300*512)); err != nil {
		t.Fatal(err)
	}
	if err := big.Append(pat(2, (freePages(t, s)-64)*512)); err != nil {
		t.Fatal(err)
	}
	if err := s.Destroy("gone"); err != nil { // its pages wait for a checkpoint
		t.Fatal(err)
	}
	more := pat(3, (freePages(t, s)+100)*512)

	s.ckptMu.Lock() // no checkpoint runs until the request is made
	type closeResult struct {
		err          error
		requested    bool  // a requested checkpoint was still to end when Close returned
		masterWrites int64 // the master copies written by then
	}
	closed := make(chan closeResult, 1)
	go func() {
		err := s.Close()
		closed <- closeResult{err, s.barrierReq.Load(), s.Stats().Barrier.MasterWrites}
	}()
	time.Sleep(20 * time.Millisecond) // Close waits for ckptMu
	appended := make(chan error, 1)
	go func() { appended <- big.Append(more) }()
	for deadline := time.Now().Add(5 * time.Second); !s.barrierReq.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			s.ckptMu.Unlock()
			t.Fatal("the stalled append requested no checkpoint")
		}
	}
	s.ckptMu.Unlock()
	res := <-closed
	if err := <-appended; err != nil {
		t.Errorf("the stalled append: %v", err)
	}
	for s.barrierReq.Load() {
		time.Sleep(time.Millisecond)
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.requested {
		t.Fatal("Close returned while the checkpoint an allocation requested was still to end")
	}
	if got := s.Stats().Barrier.MasterWrites; got != res.masterWrites {
		t.Fatalf("%d master copies written after Close returned", got-res.masterWrites)
	}
}

// TestCheckpointsBesideALiveTransaction: a transaction that has logged and
// stays open holds the log's start, so a checkpoint behind the first one
// that reached it can truncate nothing: with nothing to release it logs no
// image, writes no master copy, and spends no log room.  Five thousand in a
// row succeed — each used to log an image until the log was full, and then
// nothing could end the transaction.  The log still admits a second
// transaction's first record, x's destroy; the next checkpoint logs an image
// to release the pages it freed, out of the room the log keeps for nobody.
// Once that room is gone, a checkpoint still succeeds but releases nothing
// (w's pages): the newest master copy still names them, and recovery would
// redo the destroy from its image.  The first transaction commits, and the
// next checkpoint truncates the log to its image.
func TestCheckpointsBesideALiveTransaction(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	for i, name := range []string{"x", "w"} {
		o, err := s.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Append(pat(3+i, 40*512)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Create("y", 0); err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("y", pat(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tail, masters := s.LogTail(), s.Stats().Barrier.MasterWrites
	for i := 0; i < 5000; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d beside the live transaction: %v", i, err)
		}
	}
	st := s.Stats()
	if s.LogTail() != tail || st.Barrier.MasterWrites != masters {
		t.Fatalf("the checkpoints moved the log tail from %d to %d and wrote %d master copies, want neither", tail, s.LogTail(), st.Barrier.MasterWrites-masters)
	}
	if st.WAL.LiveTxns != 1 || st.WAL.EndReserve == 0 || st.WAL.Pinned == 0 || st.WAL.Pinned > tail {
		t.Fatalf("the ledger %+v, want one live transaction pinning some of the %d bytes in use", st.WAL, tail)
	}
	destroy := func(name string) {
		t.Helper()
		tx2, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx2.Destroy(name); err != nil {
			t.Fatalf("a second transaction's first record: %v", err)
		}
		if err := tx2.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	destroy("x")
	free := freePages(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := freePages(t, s); got < free+40 || s.Stats().Barrier.MasterWrites != masters+1 {
		t.Fatalf("a checkpoint beside the live transaction released %d pages and wrote %d master copies, want x's and one", got-free, s.Stats().Barrier.MasterWrites-masters)
	}
	// The live transaction fills the log up to the room it keeps for ends
	// and images, with records down to the smallest, so no image fits.
	destroy("w")
	for _, n := range []int{400, 1} {
		for i := 0; ; i++ {
			if err := tx.Append("y", pat(9, n)); errors.Is(err, wal.ErrLogFull) {
				break
			} else if err != nil || i == 1<<14 {
				t.Fatalf("filling the log with %d-byte appends: %d admitted, then %v", n, i, err)
			}
		}
	}
	free, masters = freePages(t, s), s.Stats().Barrier.MasterWrites
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("a checkpoint beside the live transaction on a full log: %v", err)
	}
	if got := freePages(t, s); got != free || s.Stats().Barrier.MasterWrites != masters {
		t.Fatalf("a checkpoint that logged no image released %d pages and wrote %d master copies, want none", got-free, s.Stats().Barrier.MasterWrites-masters)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.LogTail(); got != int64(s.PageSize()) {
		t.Fatalf("%d bytes of log in use after the transactions ended and a checkpoint ran, want its image's page", got)
	}
	if names := s.List(); len(names) != 1 || names[0] != "y" {
		t.Fatalf("objects %v after the checkpoints, want y", names)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogChangesBesideALiveTransactionReachTheImage: a rename and a
// destroy log nothing, so only a checkpoint's image persists them.  A
// checkpoint that a live transaction holds at the log's start takes its
// image for either all the same, and a crash after it recovers the new name,
// or no destroyed object.  The destroyed object is empty: it frees no page
// the checkpoint could log its image to release.
func TestCatalogChangesBesideALiveTransactionReachTheImage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(s *Store) error
		want   []string
	}{
		{"rename", func(s *Store) error { return s.Rename("a", "b") }, []string{"b", "y", "z"}},
		{"destroy", func(s *Store) error { return s.Destroy("z") }, []string{"a", "y"}},
	} {
		content := func(name string) []byte {
			if name == "z" {
				return pat(3, 0)
			}
			return pat(3, 3*512)
		}
		t.Run(tc.name, func(t *testing.T) {
			s, vol, logVol := newStore(t, Options{})
			for _, name := range []string{"a", "y", "z"} {
				o, err := s.Create(name, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := o.Append(content(name)); err != nil {
					t.Fatal(err)
				}
			}
			tx, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Append("y", pat(1, 100)); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := tc.change(s); err != nil {
				t.Fatal(err)
			}
			masters := s.Stats().Barrier.MasterWrites
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().Barrier.MasterWrites; got != masters+1 {
				t.Fatalf("the checkpoint behind the %s wrote %d master copies, want 1", tc.name, got-masters)
			}
			s = crashReopen(t, vol, logVol)
			want := map[string][]byte{}
			for _, name := range tc.want {
				want[name] = content(name)
			}
			expectObjects(t, s, want)
			if err := s.CheckNoLeaks(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
