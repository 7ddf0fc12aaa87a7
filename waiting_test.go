package eos

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// An Object insert or delete whose new segment N cannot go right after the
// pages it read leaves N in the write-behind set, allocated at the set's
// next-fit point (lob.Object.Insert, lob.Pending).  Like every Object write
// it logs nothing: N reaches the device in an eviction, a write of the
// set's full fill memory, or the next checkpoint, and is durable with that
// checkpoint.

// editStore returns a store whose object x holds 12 000 bytes in segments
// of at most 1 500, checkpointed, and then the edits of x — Object inserts,
// deletes and a truncate — each of which leaves its N pending.  Between the
// third and the fourth a checkpoint runs when between is "checkpoint", and
// fails when it is "failed".  models[i] is x after i edits; durable is how
// many edits the last completed checkpoint holds.
func editStore(t *testing.T, between string) (s *Store, vol, logVol disk.Device, models [][]byte, durable int) {
	t.Helper()
	s, vol, logVol = newStore(t, Options{})
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	var model []byte
	for i := 0; i < 8; i++ {
		part := pat(90+i, 1500)
		if err := o.AppendWithHint(part, int64(len(part))); err != nil {
			t.Fatal(err)
		}
		model = append(model, part...)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	models = append(models, model)
	waiting := s.Stats().LOB.SegmentsWaiting
	edits := []func() ([]byte, error){
		func() ([]byte, error) { return insertModel(model, 4100, pat(70, 700)), o.Insert(4100, pat(70, 700)) },
		func() ([]byte, error) { return deleteModel(model, 1030, 900), o.Delete(1030, 900) },
		func() ([]byte, error) { return insertModel(model, 9000, pat(71, 2000)), o.Insert(9000, pat(71, 2000)) },
		func() ([]byte, error) { return insertModel(model, 4300, pat(72, 300)), o.Insert(4300, pat(72, 300)) },
		func() ([]byte, error) { return deleteModel(model, 6100, 1300), o.Delete(6100, 1300) },
		func() ([]byte, error) { return model[:len(model)-1234], o.Truncate(int64(len(model) - 1234)) },
	}
	for i, edit := range edits {
		if i == 3 && between != "" {
			if between == "failed" {
				vol.FailAfter(0, errors.New("boom"))
			}
			err := s.Checkpoint()
			if between == "failed" {
				vol.ClearFault()
				if err == nil {
					t.Fatal("the checkpoint on a failing volume succeeded")
				}
			} else if err != nil {
				t.Fatal(err)
			} else {
				durable = i
			}
		}
		next, err := edit()
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		model = next
		models = append(models, model)
	}
	if st := s.Stats().LOB; st.PendingPages == 0 || st.SegmentsWaiting-waiting < 4 {
		t.Fatalf("%d pages pending, %d new segments waited; want most of the edits' waiting", st.PendingPages, st.SegmentsWaiting-waiting)
	}
	return s, vol, logVol, models, durable
}

func insertModel(model []byte, off int, data []byte) []byte {
	return append(model[:off:off], append(append([]byte{}, data...), model[off:]...)...)
}

func deleteModel(model []byte, off, n int) []byte {
	return append(model[:off:off], model[off+n:]...)
}

// TestWaitingSegmentsAreDurableAtTheCheckpoint: a crash before the next
// checkpoint leaves x as the last checkpoint wrote it, whatever the set held,
// and leaks none of the pages the edits took or freed.  A checkpoint between
// the edits makes the ones before it durable; a failed one makes none.
func TestWaitingSegmentsAreDurableAtTheCheckpoint(t *testing.T) {
	for _, tc := range []struct{ name, between string }{
		{"crash before any checkpoint", ""},
		{"a checkpoint between them", "checkpoint"},
		{"a failed checkpoint between them", "failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, vol, logVol, models, durable := editStore(t, tc.between)
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readObject(t, s, "x"), models[len(models)-1]) {
				t.Fatal("x before the crash is not its edits")
			}
			s = crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, s, "x"), models[durable]) {
				t.Fatal("x after the crash is not what the last checkpoint wrote")
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

// TestTxnSplicesWaitingSegments: a transaction inserts into and deletes from
// bytes the Object inserts left pending, and commits.  Its first touch of x
// checkpoints (Store.checkpointUnlogged), so its records splice the root
// that checkpoint's image names.  After a crash x holds the edits and the
// transaction's; with a failed checkpoint before the transaction, too.
func TestTxnSplicesWaitingSegments(t *testing.T) {
	for _, between := range []string{"", "failed"} {
		t.Run(map[string]string{"": "edits", "failed": "edits and a failed checkpoint"}[between], func(t *testing.T) {
			s, vol, logVol, models, _ := editStore(t, between)
			want := models[len(models)-1]
			tx, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			// The third edit's 2 000 bytes lie at 8 000 by now, the first
			// edit's 700 at 3 200.
			ins := pat(81, 600)
			if err := tx.Insert("x", 8200, ins); err != nil {
				t.Fatal(err)
			}
			want = insertModel(want, 8200, ins)
			if err := tx.Delete("x", 3400, 350); err != nil {
				t.Fatal(err)
			}
			want = deleteModel(want, 3400, 350)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			s = crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, s, "x"), want) {
				t.Fatal("x after the crash is not the edits and the committed transaction")
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

// TestSnapshotReadsAFreedWaitingSegment: a snapshot opened before a delete
// that frees a pending N still reads N's bytes afterwards — the set keeps
// the freed images until the reclamation queue releases their run.  Once
// the run is released the set holds no image of it, and the pages' next
// owner, a transaction whose new segments are written through, reads its
// own bytes back.
func TestSnapshotReadsAFreedWaitingSegment(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	model := pat(1, 8000)
	if err := o.AppendWithHint(model, int64(len(model))); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before, err := o.Segments()
	if err != nil {
		t.Fatal(err)
	}
	ins := pat(2, 3000)
	if err := o.Insert(2000, ins); err != nil {
		t.Fatal(err)
	}
	model = insertModel(model, 2000, ins)
	segs, err := o.Segments()
	if err != nil {
		t.Fatal(err)
	}
	// N is the segments the insert made; the delete takes them whole.
	var n []disk.PageNum
	lo, hi := int64(-1), int64(0)
	for _, sg := range segs {
		if sg.StartPage >= before[len(before)-1].StartPage+disk.PageNum(before[len(before)-1].Pages) || sg.StartPage < before[0].StartPage {
			for p := 0; p < sg.Pages; p++ {
				n = append(n, sg.StartPage+disk.PageNum(p))
			}
			if lo < 0 {
				lo = sg.LogicalOff
			}
			hi = sg.LogicalOff + sg.Bytes
		}
	}
	if st := s.Stats().LOB; len(n) == 0 || st.PendingPages < int64(len(n)) {
		t.Fatalf("segments %+v before %+v, %d pages pending; want the insert's new segment pending", segs, before, st.PendingPages)
	}
	snap, err := s.OpenSnapshot("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(lo, hi-lo+100); err != nil {
		t.Fatal(err)
	}
	after := deleteModel(model, int(lo), int(hi-lo+100))
	got := make([]byte, len(model))
	if _, err := snap.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("the snapshot does not read the freed segment's bytes")
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	// The first checkpoint captures roots that no longer name the run; the
	// second releases it.
	for i := 0; i < 2; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats().LOB; st.PendingPages != 0 {
		t.Fatalf("%d pages still pending after the release", st.PendingPages)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
	// The lowest-address scan hands the released pages to y's segments.
	y, err := s.Create("y", 0)
	if err != nil {
		t.Fatal(err)
	}
	var ymodel []byte
	reused := false
	for i := 0; i < 8 && !reused; i++ {
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		part := pat(10+i, 1200)
		if err := tx.Insert("y", int64(len(ymodel)/2), part); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		ymodel = insertModel(ymodel, len(ymodel)/2, part)
		ysegs, err := y.Segments()
		if err != nil {
			t.Fatal(err)
		}
		for _, sg := range ysegs {
			for _, p := range n {
				reused = reused || p >= sg.StartPage && p < sg.StartPage+disk.PageNum(sg.Pages)
			}
		}
	}
	if !reused {
		t.Fatal("no segment of y took a page of the released run")
	}
	if !bytes.Equal(readObject(t, s, "y"), ymodel) {
		t.Fatal("y does not read its own bytes on the released pages")
	}
	if !bytes.Equal(readObject(t, s, "x"), after) {
		t.Fatal("x is not its edits")
	}
}

// TestCheckpointBetweenAFreeAndItsPublish: a checkpoint that captures x's
// descriptors after a delete has freed a pending N but before the delete
// publishes still names N, so it writes N's pages: the freed images die
// only when their run is retired, behind the publish.  A crash then
// recovers x as the checkpoint captured it.  The test runs the steps of
// Store.write itself, with the checkpoint between them; it is x's only
// writer, so it takes no latch, which no checkpoint may be called under.
func TestCheckpointBetweenAFreeAndItsPublish(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	model := pat(3, 8000)
	if err := o.AppendWithHint(model, int64(len(model))); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(2000, pat(4, 3000)); err != nil {
		t.Fatal(err)
	}
	model = insertModel(model, 2000, pat(4, 3000))
	if s.Stats().LOB.PendingPages == 0 {
		t.Fatal("the insert left nothing pending")
	}
	e := o.e
	d := s.scope()
	e.obj.Rebind(d.lm)
	if err := e.obj.Delete(1500, 4000); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.setStableDesc(e.obj.PublishDescriptor())
	e.obj.Rebind(s.lm)
	if err := s.endScope(d, true); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.measure(e, e.stableSize())
	s.changedLocked(e)
	s.mu.Unlock()
	if !bytes.Equal(readObject(t, s, "x"), deleteModel(model, 1500, 4000)) {
		t.Fatal("x is not its delete")
	}
	s = crashReopen(t, vol, logVol)
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("x after the crash is not what the checkpoint captured")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentInsertsShareTheNextFitPoint: Object inserts on four objects
// at once allocate their waiting segments at one next-fit point, whoever
// gets there first; each object reads its own edits, and nothing leaks.
func TestConcurrentInsertsShareTheNextFitPoint(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	const objects, inserts = 4, 40
	models := make([][]byte, objects)
	for i := range models {
		o, err := s.Create(fmt.Sprintf("o%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = pat(20+i, 6000)
		if err := o.AppendWithHint(models[i], int64(len(models[i]))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, objects)
	for i := 0; i < objects; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, err := s.Open(fmt.Sprintf("o%d", i))
			if err != nil {
				errs <- err
				return
			}
			for k := 0; k < inserts; k++ {
				off := (k*733 + i*101) % (len(models[i]) + 1)
				data := pat(100*i+k, 100+(k*37)%400)
				if err := o.Insert(int64(off), data); err != nil {
					errs <- err
					return
				}
				models[i] = insertModel(models[i], off, data)
				if k%10 == 9 {
					if err := s.Checkpoint(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range models {
		if !bytes.Equal(readObject(t, s, fmt.Sprintf("o%d", i)), models[i]) {
			t.Fatalf("o%d is not its inserts", i)
		}
	}
	if st := s.Stats().LOB; st.SegmentsNextFit == 0 || st.SegmentsWaiting < st.SegmentsNextFit {
		t.Fatalf("%d new segments waited, %d at the next-fit point", st.SegmentsWaiting, st.SegmentsNextFit)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedEvictionKeepsWaitingSegments: while every write to the data
// volume fails, Object inserts go on leaving their new segments in the
// write-behind set, and the set's write-backs — of a full fill memory, and
// over its limit — fail.  The set keeps every page it could not write, with
// its image: a fill memory whose write failed is not built in again.  So x
// reads its inserts; an insert whose new segment goes through fails and
// leaves x as it was.  Once the
// volume works again, a checkpoint writes what the set holds, and x
// survives a crash whole.
func TestFailedEvictionKeepsWaitingSegments(t *testing.T) {
	vol := &writeFailing{Device: newTestDevice(t, 512, 4096)}
	logVol := newTestDevice(t, 512, 1024)
	s, err := Format(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The set holds at most the log's capacity in data pages.
	limit := int64(logVol.NumPages())
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	model := pat(5, 200<<10)
	if err := o.AppendWithHint(model, int64(len(model))); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	vol.on.Store(true)
	evictions, failed := s.Stats().LOB.PendingEvictions, 0
	for k := 0; s.Stats().LOB.PendingPages <= limit+64; k++ {
		if k == 400 {
			t.Fatalf("%d pages pending after %d inserts; want the set over its limit of %d", s.Stats().LOB.PendingPages, k, limit)
		}
		off := (k * 7919) % (len(model) + 1)
		data := pat(200+k, 1500)
		if err := o.Insert(int64(off), data); err != nil {
			if !errors.Is(err, errWriteFailing) {
				t.Fatalf("insert %d: %v", k, err)
			}
			failed++
			continue
		}
		model = insertModel(model, off, data)
	}
	if st := s.Stats().LOB; st.PendingEvictions != evictions || failed == 0 {
		t.Fatalf("%d write-backs and %d failed inserts while every write failed; want none and some", st.PendingEvictions-evictions, failed)
	}
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("x does not read its inserts while the volume fails")
	}
	vol.on.Store(false)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().LOB; st.PendingPages > limit {
		t.Fatalf("%d pages pending after the checkpoint", st.PendingPages)
	}
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("x is not its inserts after the checkpoint")
	}
	s = crashReopen(t, vol, logVol)
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("x after the crash is not what the checkpoint wrote")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// writeFailing fails every write to its device while on; reads and forces
// go through.
type writeFailing struct {
	disk.Device
	on atomic.Bool
}

var errWriteFailing = errors.New("injected write failure")

func (d *writeFailing) WritePages(start disk.PageNum, n int, buf []byte) error {
	if d.on.Load() {
		return errWriteFailing
	}
	return d.Device.WritePages(start, n, buf)
}

func (d *writeFailing) WriteRun(start disk.PageNum, pages [][]byte) error {
	if d.on.Load() {
		return errWriteFailing
	}
	return d.Device.WriteRun(start, pages)
}
