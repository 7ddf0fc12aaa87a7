package eos

import (
	"bytes"
	"errors"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// A write that logs nothing — the Object API, Create — reaches the log's
// view of an object only through a checkpoint's image.  Recovery redoes a
// transaction's records on the root that image names, so a transaction's
// first exclusive touch of an object such a write changed since the last
// checkpoint checkpoints first (Store.checkpointUnlogged).  Most tests below
// start where replaceStore leaves x: 6 000 bytes, checkpointed.

// TestTxnAfterAnUnloggedAppend: an unlogged append grows x to 9 000 bytes,
// and a transaction then inserts at byte 8 000 — beyond what the last image
// shows — and commits.  After a crash, x must hold both.
func TestTxnAfterAnUnloggedAppend(t *testing.T) {
	s, vol, logVol, base := replaceStore(t, Options{})
	o, err := s.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	more := pat(41, 3000)
	if err := o.Append(more); err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ins := pat(42, 500)
	if err := tx.Insert("x", 8000, ins); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, base...), more...)
	want = append(want[:8000:8000], append(append([]byte{}, ins...), want[8000:]...)...)
	s = crashReopen(t, vol, logVol)
	if !bytes.Equal(readObject(t, s, "x"), want) {
		t.Fatal("x after the crash is not the committed bytes")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestTxnAfterAnUnloggedReplace: an Object Replace rewrites pages 2 to 29
// of a 40-page object, whose new images then wait in the write-behind set,
// and a transaction inserts in the middle of the replaced range and commits.
// The insert's splice keeps the pages on either side where they are — each
// side holds at least T pages — so the replaced bytes on them are still only
// in memory when its record names them.  After a crash, the object must
// hold the whole replace and the insert.  In the second case a checkpoint
// fails between the replace and the transaction: it made no image, so the
// replace still counts as one no image holds.
func TestTxnAfterAnUnloggedReplace(t *testing.T) {
	for _, failed := range []bool{false, true} {
		t.Run(map[bool]string{false: "replace", true: "replace, then a failed checkpoint"}[failed], func(t *testing.T) {
			s, vol, logVol := newStore(t, Options{})
			o, err := s.Create("x", 0)
			if err != nil {
				t.Fatal(err)
			}
			ps := s.PageSize()
			want := pat(44, 40*ps)
			if err := o.AppendWithHint(want, int64(len(want))); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			repl := pat(45, 28*ps)
			if err := o.Replace(int64(2*ps), repl); err != nil {
				t.Fatal(err)
			}
			copy(want[2*ps:], repl)
			if failed {
				vol.FailAfter(0, errors.New("boom"))
				if err := s.Checkpoint(); err == nil {
					t.Fatal("the checkpoint on a failing volume succeeded")
				}
				vol.ClearFault()
			}
			tx, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			off, ins := 16*ps+100, pat(46, 300)
			if err := tx.Insert("x", int64(off), ins); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			want = append(want[:off:off], append(append([]byte{}, ins...), want[off:]...)...)
			s = crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, s, "x"), want) {
				t.Fatal("x after the crash is not the replace and the committed insert")
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

// TestTxnOnAnUnloggedCreate: Create logs nothing, and a transaction then
// appends to the new object and commits.  After a crash the acknowledged
// commit must be there.
func TestTxnOnAnUnloggedCreate(t *testing.T) {
	s, vol, logVol, base := replaceStore(t, Options{})
	if _, err := s.Create("y", 0); err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	data := pat(43, 5000)
	if err := tx.Append("y", data); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s = crashReopen(t, vol, logVol)
	o, err := s.Open("y")
	if err != nil {
		t.Fatalf("the committed append's object is gone after the crash: %v", err)
	}
	if got, err := o.Read(0, o.Size()); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("y after the crash: %d bytes, err %v; want the 5 000 committed", len(got), err)
	}
	if !bytes.Equal(readObject(t, s, "x"), base) {
		t.Fatal("x changed")
	}
}

// TestDestroyOfAnObjectWithLoggedHistory: a transaction creates z and
// appends to it, and Store.Destroy removes it.  A transaction live since
// before keeps z's records in the log across the checkpoints that follow,
// while x grows onto free space z gave back.  After a crash, recovery must
// not create z again from its records.
func TestDestroyOfAnObjectWithLoggedHistory(t *testing.T) {
	s, vol, logVol, base := replaceStore(t, Options{})
	long, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Create("z", 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("z", pat(50, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Destroy("z"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	o, err := s.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	more := pat(51, 8000)
	if err := o.Append(more); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_ = long // live at the crash: the log keeps everything from its begin
	s = crashReopen(t, vol, logVol)
	if _, err := s.Open("z"); err == nil {
		t.Fatal("the destroyed z is back after the crash")
	}
	if !bytes.Equal(readObject(t, s, "x"), append(append([]byte{}, base...), more...)) {
		t.Fatal("x after the crash is not its checkpointed bytes")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// hintedStore returns a store whose object x holds base, checkpointed, and
// then the six appends more made by AppendWithHint, which wait in the
// write-behind set, placed right after x's last segment.  Between the third
// and the fourth a checkpoint runs when between is "checkpoint", and fails
// when it is "failed"; durable is how many of more the last checkpoint
// wrote.  It checks that pages are pending and that the appends were placed.
func hintedStore(t *testing.T, between string) (s *Store, vol, logVol disk.Device, base []byte, more [][]byte, durable int) {
	t.Helper()
	s, vol, logVol = newStore(t, Options{})
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	base = pat(60, 3000)
	if err := o.AppendWithHint(base, int64(len(base))); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	placed := s.Stats().LOB.SegmentsPlaced
	for i := 0; i < 6; i++ {
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
		data := pat(61+i, 1500+300*i)
		if err := o.AppendWithHint(data, int64(len(data))); err != nil {
			t.Fatal(err)
		}
		more = append(more, data)
	}
	st := s.Stats().LOB
	if st.PendingPages == 0 || st.SegmentsPlaced-placed < 4 {
		t.Fatalf("%d pages pending, %d of 6 appends placed; want the appends pending, most of them placed", st.PendingPages, st.SegmentsPlaced-placed)
	}
	return s, vol, logVol, base, more, durable
}

// TestHintedAppendsAreDurableAtTheCheckpoint: hinted appends log nothing,
// and their pages wait in the write-behind set, so a crash before the next
// checkpoint leaves x as the last checkpoint wrote it, whatever the set
// held, and leaks none of the pages the appends took.  A checkpoint between
// them makes the ones before it durable; a failed one makes none durable.
func TestHintedAppendsAreDurableAtTheCheckpoint(t *testing.T) {
	for _, tc := range []struct{ name, between string }{
		{"crash before any checkpoint", ""},
		{"a checkpoint between them", "checkpoint"},
		{"a failed checkpoint between them", "failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, vol, logVol, want, more, durable := hintedStore(t, tc.between)
			for _, data := range more[:durable] {
				want = append(want, data...)
			}
			s = crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, s, "x"), want) {
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

// TestTxnSplicesPendingHintedAppends: a transaction inserts into and
// deletes from bytes hinted appends left pending, and commits.  Its first
// touch of x checkpoints (Store.checkpointUnlogged), so its records splice
// the root that checkpoint's image names.  After a crash x holds the
// appends and the transaction's edits; with a failed checkpoint before the
// transaction, too.
func TestTxnSplicesPendingHintedAppends(t *testing.T) {
	for _, between := range []string{"", "failed"} {
		t.Run(map[string]string{"": "appends", "failed": "appends and a failed checkpoint"}[between], func(t *testing.T) {
			s, vol, logVol, want, more, _ := hintedStore(t, between)
			for _, data := range more {
				want = append(want, data...)
			}
			tx, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			off, ins := 5000, pat(80, 700)
			if err := tx.Insert("x", int64(off), ins); err != nil {
				t.Fatal(err)
			}
			want = append(want[:off:off], append(append([]byte{}, ins...), want[off:]...)...)
			del, n := 9000, 2500
			if err := tx.Delete("x", int64(del), int64(n)); err != nil {
				t.Fatal(err)
			}
			want = append(want[:del:del], want[del+n:]...)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			s = crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, s, "x"), want) {
				t.Fatal("x after the crash is not the appends and the committed edits")
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
