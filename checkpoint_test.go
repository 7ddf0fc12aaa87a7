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
