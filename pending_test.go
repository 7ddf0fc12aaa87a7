package eos

import (
	"bytes"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

// tailsStore formats a store with three objects, checkpointed, then commits
// rounds small transactions that each append 300 bytes to every object:
// their pages stay pending, and the log alone holds the appended bytes.
func tailsStore(t *testing.T, rounds int) (s *Store, vol, logVol disk.Device, names []string, model map[string][]byte) {
	t.Helper()
	s, vol, logVol = newStore(t, Options{})
	names = []string{"a", "b", "c"}
	model = map[string][]byte{}
	for i, name := range names {
		o, err := s.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		model[name] = pat(10+i, 1000)
		if err := o.AppendWithHint(model[name], 1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w0 := vol.Stats().Writes
	for r := 0; r < rounds; r++ {
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			more := pat(20+10*r+i, 300)
			if err := tx.Append(name, more); err != nil {
				t.Fatal(err)
			}
			model[name] = append(model[name], more...)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := vol.Stats().Writes - w0; got != 0 {
		t.Fatalf("the committed appends wrote the data volume %d times, want never", got)
	}
	return s, vol, logVol, names, model
}

// expectRecovered is expectObjects, and the page accounting.
func expectRecovered(t *testing.T, s *Store, model map[string][]byte) {
	t.Helper()
	expectObjects(t, s, model)
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedAppendsLiveInTheLogAlone: a committed plain append is durable
// in the log, and its pages reach the device only when the tail closes or a
// checkpoint runs.  A power cut before that loses them, and recovery redoes
// the appends from the log — with every run unwritten, with one written and
// the others not, and after an aborted destroy, whose restored descriptor
// names the pages of the run the destroy found pending.
func TestCommittedAppendsLiveInTheLogAlone(t *testing.T) {
	t.Run("every run unwritten", func(t *testing.T) {
		s, vol, logVol, names, model := tailsStore(t, 4)
		// 1 000 bytes fill a segment of their own; the four rounds' 1 200
		// bytes are an open tail of 3 pages for each object.
		if got, want := s.Stats().LOB.PendingPages, int64(3*len(names)); got != want {
			t.Fatalf("%d pages pending, want %d", got, want)
		}
		re := crashReopen(t, vol, logVol)
		if re.Stats().Recovery.Redone < int64(4*len(names)) {
			t.Fatalf("recovery redid %d operations, want the %d appends", re.Stats().Recovery.Redone, 4*len(names))
		}
		expectRecovered(t, re, model)
	})
	t.Run("one run written, the others not", func(t *testing.T) {
		s, vol, logVol, _, model := tailsStore(t, 4)
		// An insert into a's open tail closes it: a's pending pages are
		// written before the insert moves their bytes.
		tx, _ := s.Begin()
		ins := pat(90, 100)
		if err := tx.Insert("a", 1400, ins); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		model["a"] = append(append(append([]byte{}, model["a"][:1400]...), ins...), model["a"][1400:]...)
		if got := s.Stats().LOB.PendingPages; got != 6 {
			t.Fatalf("%d pages pending, want 6: b's and c's runs", got)
		}
		expectRecovered(t, crashReopen(t, vol, logVol), model)
	})
	t.Run("aborted destroy", func(t *testing.T) {
		s, vol, logVol, _, model := tailsStore(t, 4)
		tx, _ := s.Begin()
		if err := tx.Destroy("b"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		// The restored descriptor names the bytes the run held: the destroy
		// wrote them.
		if got := readObject(t, s, "b"); !bytes.Equal(got, model["b"]) {
			t.Fatal("b's content wrong after the aborted destroy")
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		more := pat(91, 200)
		tx, _ = s.Begin()
		if err := tx.Append("b", more); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		model["b"] = append(model["b"], more...)
		expectRecovered(t, crashReopen(t, vol, logVol), model)
	})
}

// replaceStoreOf formats a store with the named objects, 3 000 bytes each,
// written and checkpointed: nothing pending.
func replaceStoreOf(t *testing.T, names ...string) (s *Store, vol, logVol disk.Device, model map[string][]byte) {
	t.Helper()
	s, vol, logVol = newStore(t, Options{})
	model = map[string][]byte{}
	for i, name := range names {
		o, err := s.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		model[name] = pat(30+i, 3000)
		if err := o.AppendWithHint(model[name], 3000); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return s, vol, logVol, model
}

// commitReplace commits one transaction that replaces data at off of name,
// and records it in model.
func commitReplace(t *testing.T, s *Store, model map[string][]byte, name string, off int64, data []byte) {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Replace(name, off, data); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	copy(model[name][off:], data)
}

// TestCommittedReplacesLiveInTheLogAlone: a committed replace is durable in
// the log, and its pages wait in the write-behind set — a later replace of a
// pending page only overwrites its image — until a checkpoint writes them.
// Until then a transaction's read and a snapshot take them from the set, and
// a power cut loses them: recovery redoes the replaces from the log.  A
// replace over a pending page that its transaction reads back is held over
// the page's image until the commit, and one the transaction aborts leaves
// the image as it was; and a checkpoint leaves nothing to redo.
func TestCommittedReplacesLiveInTheLogAlone(t *testing.T) {
	t.Run("pages pending", func(t *testing.T) {
		s, vol, logVol, model := replaceStoreOf(t, "a", "b")
		w0 := vol.Stats().Writes
		commitReplace(t, s, model, "a", 600, pat(40, 600)) // pages 1 and 2
		commitReplace(t, s, model, "b", 100, pat(41, 50))  // page 0
		commitReplace(t, s, model, "a", 800, pat(42, 100)) // page 1 again
		if got := vol.Stats().Writes - w0; got != 0 {
			t.Fatalf("the committed replaces wrote the data volume %d times, want never", got)
		}
		if st := s.Stats().LOB; st.ReplacedPending != 3 || st.ReplacedPages != 4 || st.ReplacedAbsorbed != 1 {
			t.Fatalf("%d replaced pages pending, %d in, %d absorbed; want 3, 4, 1", st.ReplacedPending, st.ReplacedPages, st.ReplacedAbsorbed)
		}
		sn, err := s.OpenSnapshot("a")
		if err != nil {
			t.Fatal(err)
		}
		defer sn.Close()
		r0 := vol.Stats().Reads
		buf := make([]byte, 600)
		if n, err := sn.ReadAt(buf, 600); err != nil || n != 600 || !bytes.Equal(buf, model["a"][600:1200]) {
			t.Fatalf("snapshot read of the replaced bytes: %d bytes, err %v, equal %v", n, err, bytes.Equal(buf, model["a"][600:1200]))
		}
		tx, _ := s.Begin()
		if got, err := tx.Read("a", 600, 600); err != nil || !bytes.Equal(got, model["a"][600:1200]) {
			t.Fatalf("transaction read of the replaced bytes: err %v, equal %v", err, bytes.Equal(got, model["a"][600:1200]))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := vol.Stats().Reads - r0; got != 0 {
			t.Fatalf("reads of pending pages issued %d device reads, want none", got)
		}
		re := crashReopen(t, vol, logVol)
		if n := re.Stats().Recovery.Redone; n < 3 {
			t.Fatalf("recovery redid %d operations, want the 3 replaces", n)
		}
		expectRecovered(t, re, model)
	})
	t.Run("settled over a pending page", func(t *testing.T) {
		s, vol, logVol, model := replaceStoreOf(t, "a")
		commitReplace(t, s, model, "a", 600, pat(40, 600))
		tx, _ := s.Begin()
		repl := pat(43, 100)
		if err := tx.Replace("a", 700, repl); err != nil {
			t.Fatal(err)
		}
		copy(model["a"][700:], repl)
		if got, err := tx.Read("a", 600, 600); err != nil || !bytes.Equal(got, model["a"][600:1200]) {
			t.Fatalf("the read back of the replace: err %v, equal %v", err, bytes.Equal(got, model["a"][600:1200]))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		expectRecovered(t, crashReopen(t, vol, logVol), model)
	})
	t.Run("aborted over a pending page", func(t *testing.T) {
		s, vol, logVol, model := replaceStoreOf(t, "a")
		commitReplace(t, s, model, "a", 600, pat(40, 600))
		tx, _ := s.Begin()
		if err := tx.Replace("a", 700, pat(44, 100)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Read("a", 0, 10); err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if got := readObject(t, s, "a"); !bytes.Equal(got, model["a"]) {
			t.Fatal("content wrong after the abort")
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		expectRecovered(t, crashReopen(t, vol, logVol), model)
	})
	t.Run("written by the checkpoint", func(t *testing.T) {
		s, vol, logVol, model := replaceStoreOf(t, "a", "b")
		commitReplace(t, s, model, "a", 600, pat(40, 600))
		commitReplace(t, s, model, "b", 2900, pat(41, 100))
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats().LOB; st.PendingPages != 0 || st.ReplacedCheckpointed != 3 {
			t.Fatalf("%d pages pending, %d replaced pages written by the checkpoint; want 0, 3", st.PendingPages, st.ReplacedCheckpointed)
		}
		re := crashReopen(t, vol, logVol)
		if n := re.Stats().Recovery.Redone; n != 0 {
			t.Fatalf("recovery redid %d operations, want none: the checkpoint's image holds the replaces", n)
		}
		expectRecovered(t, re, model)
	})
}

// TestSnapshotsReadPendingPages: every reader of an object sees the bytes of
// its pending pages — a live read, a snapshot opened after the commit — from
// memory, and a snapshot held across the checkpoint that writes them reads
// the same bytes from the device after it: an open tail's pages, and a
// committed replace's.
func TestSnapshotsReadPendingPages(t *testing.T) {
	// An open tail's pages, read by one reader at a time, so each read's
	// device requests can be counted.
	t.Run("open tail pages", func(t *testing.T) {
		s, vol, _ := newStore(t, Options{})
		o, err := s.Create("x", 0)
		if err != nil {
			t.Fatal(err)
		}
		model := pat(1, 3000)
		if err := o.AppendWithHint(model, int64(len(model))); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		tx, _ := s.Begin()
		more := pat(2, 700)
		if err := tx.Append("x", more); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		model = append(model, more...)
		if got := s.Stats().LOB.PendingPages; got != 2 {
			t.Fatalf("%d pages pending, want 2", got)
		}
		sn, err := s.OpenSnapshot("x")
		if err != nil {
			t.Fatal(err)
		}
		defer sn.Close()
		// Two segments: the first from the device in one request, the
		// pending tail from memory.
		read := func(what string, wantReads int64) {
			t.Helper()
			buf := make([]byte, len(model))
			r0 := vol.Stats().Reads
			if n, err := sn.ReadAt(buf, 0); err != nil || n != len(buf) || !bytes.Equal(buf, model) {
				t.Fatalf("%s: snapshot read %d bytes, err %v, equal %v", what, n, err, bytes.Equal(buf, model))
			}
			if got := vol.Stats().Reads - r0; got != wantReads {
				t.Fatalf("%s: snapshot read issued %d device reads, want %d", what, got, wantReads)
			}
			if got := readObject(t, s, "x"); !bytes.Equal(got, model) {
				t.Fatalf("%s: live read wrong", what)
			}
		}
		read("pending", 1)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().LOB.PendingPages; got != 0 {
			t.Fatalf("%d pages pending after the checkpoint, want 0", got)
		}
		read("written", 2)
	})
	// A committed replace's pages: a snapshot held across the commit reads
	// them from the set, then from the device once a checkpoint wrote them.
	t.Run("replaced pages", func(t *testing.T) {
		s, vol, _, model := replaceStoreOf(t, "x")
		sn, err := s.OpenSnapshot("x")
		if err != nil {
			t.Fatal(err)
		}
		defer sn.Close()
		commitReplace(t, s, model, "x", 600, pat(45, 600)) // pages 1 and 2
		read := func(what string, wantReads int64) {
			t.Helper()
			buf := make([]byte, 600)
			r0 := vol.Stats().Reads
			if n, err := sn.ReadAt(buf, 600); err != nil || n != len(buf) || !bytes.Equal(buf, model["x"][600:1200]) {
				t.Fatalf("%s: snapshot read %d bytes, err %v, equal %v", what, n, err, bytes.Equal(buf, model["x"][600:1200]))
			}
			if got := vol.Stats().Reads - r0; got != wantReads {
				t.Fatalf("%s: snapshot read issued %d device reads, want %d", what, got, wantReads)
			}
		}
		read("pending", 0)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		read("written", 1)
	})
}

// TestCheckpointWritesTailOfLatchedObject: a checkpoint writes every pending
// run, that of an object whose latch another goroutine holds too — a writer
// stalled in allocation backpressure holds its latch while it waits for a
// checkpoint.  The image the checkpoint logs names the run's bytes and the
// log is truncated behind it, so a crash right after must find them on the
// device: recovery has nothing to redo them from.
func TestCheckpointWritesTailOfLatchedObject(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	model := pat(1, 2000)
	if err := o.AppendWithHint(model, int64(len(model))); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	more := pat(2, 700)
	if err := tx.Append("x", more); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	model = append(model, more...)
	if got := s.Stats().LOB.PendingPages; got != 2 {
		t.Fatalf("%d pages pending, want 2", got)
	}
	s.mu.Lock()
	e := s.catalog["x"]
	s.mu.Unlock()
	e.latch.Lock() // the stalled writer
	done := make(chan error, 1)
	go func() { done <- s.Checkpoint() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the checkpoint waits for the object latch")
	}
	e.latch.Unlock()
	if got := s.Stats().LOB.PendingPages; got != 0 {
		t.Fatalf("%d pages pending after the checkpoint, want 0", got)
	}
	re := crashReopen(t, vol, logVol)
	if n := re.Stats().Recovery.Redone; n != 0 {
		t.Fatalf("recovery redid %d operations, want none: the checkpoint's image holds the append", n)
	}
	expectRecovered(t, re, map[string][]byte{"x": model})
}

// TestPendingLimitIsTheLogs: the write-behind set holds at most as many
// pages as the log volume holds data pages, whatever the pool's size.  Two
// commits leave 25 replaced pages each pending: beside a pool of 8 frames
// and a log of 1024 pages none is written before the checkpoint; with a log
// of 40 pages the second commit writes a run back.
func TestPendingLimitIsTheLogs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		logPages disk.PageNum
		frames   int
		evicted  bool
	}{
		{"a small pool", 1024, 8, false},
		{"a small log", 40, 256, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vol, logVol := newTestDevice(t, 512, 4096), newTestDevice(t, 512, tc.logPages)
			s, err := Format(vol, logVol, Options{PoolFrames: tc.frames})
			if err != nil {
				t.Fatal(err)
			}
			o, err := s.Create("x", 0)
			if err != nil {
				t.Fatal(err)
			}
			model := pat(1, 100*512)
			if err := o.AppendWithHint(model, int64(len(model))); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for _, first := range []int{0, 50} {
				ckptCommit(t, s, func(tx *Txn) error {
					for p := first; p < first+25; p++ {
						if err := tx.Replace("x", int64(p*512+7), []byte{byte(p)}); err != nil {
							return err
						}
					}
					return nil
				})
				for p := first; p < first+25; p++ {
					model[p*512+7] = byte(p)
				}
				if n := s.Stats().LOB.PendingPages; n > int64(tc.logPages) {
					t.Fatalf("%d pages pending after a commit, over the log's %d", n, tc.logPages)
				}
			}
			if st := s.Stats().LOB; (st.PendingEvictions > 0) != tc.evicted {
				t.Fatalf("%d runs written back, want some: %v", st.PendingEvictions, tc.evicted)
			}
			if !bytes.Equal(readObject(t, s, "x"), model) {
				t.Fatal("x is not the committed bytes")
			}
			if err := vol.Crash(); err != nil {
				t.Fatal(err)
			}
			if err := logVol.Crash(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(vol, logVol, Options{PoolFrames: tc.frames}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readObject(t, s, "x"), model) {
				t.Fatal("x after a crash is not the committed bytes")
			}
		})
	}
}
