package eos

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/wal"
)

// replaceStore returns a store holding one checkpointed 6000-byte object
// "x", and that content.
func replaceStore(t *testing.T, opts Options) (*Store, disk.Device, disk.Device, []byte) {
	t.Helper()
	s, vol, logVol := newStore(t, opts)
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	base := pat(40, 6000)
	if err := o.Append(base); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return s, vol, logVol, base
}

func readObject(t *testing.T, s *Store, name string) []byte {
	t.Helper()
	o, err := s.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.Read(0, o.Size())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestDeferredReplaceReadYourOwn: a transaction reads back the bytes it
// replaced although their home write was deferred — the read settles it.
func TestDeferredReplaceReadYourOwn(t *testing.T) {
	s, _, _, base := replaceStore(t, Options{})
	tx, _ := s.Begin()
	repl := pat(41, 900)
	if err := tx.Replace("x", 700, repl); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DeferredReplaces != 1 || st.EarlyReplaceApplies != 0 {
		t.Fatalf("after Replace: %d deferred, %d early applies; want 1, 0", st.DeferredReplaces, st.EarlyReplaceApplies)
	}
	got, err := tx.Read("x", 600, 1100)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, base[600:1700]...)
	copy(want[100:], repl)
	if !bytes.Equal(got, want) {
		t.Fatal("transaction does not see its own replace")
	}
	if st := s.Stats(); st.EarlyReplaceApplies != 1 {
		t.Fatalf("the read settled %d replaces, want 1", st.EarlyReplaceApplies)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	copy(base[700:], repl)
	if !bytes.Equal(readObject(t, s, "x"), base) {
		t.Fatal("committed content wrong")
	}
}

// TestDeferredReplaceThenStructuralOp runs replace → insert / delete /
// truncate / second replace on the same object and range.  The
// structural operation moves or copies the replaced pages, so it must
// find the new bytes there; and an abort must then compensate a replace
// that did reach the device.  Each shape is committed (and checked after
// a crash) and aborted (likewise).
func TestDeferredReplaceThenStructuralOp(t *testing.T) {
	repl := pat(42, 1500)
	shapes := []struct {
		name string
		op   func(tx *Txn) error
		// model applies the operation to the content that already holds
		// the replace.
		model func(b []byte) []byte
	}{
		{"insert", func(tx *Txn) error { return tx.Insert("x", 1000, pat(43, 700)) },
			func(b []byte) []byte {
				return append(append(append([]byte{}, b[:1000]...), pat(43, 700)...), b[1000:]...)
			}},
		{"delete", func(tx *Txn) error { return tx.Delete("x", 900, 300) },
			func(b []byte) []byte { return append(append([]byte{}, b[:900]...), b[1200:]...) }},
		{"truncate", func(tx *Txn) error { return tx.Truncate("x", 1300) },
			func(b []byte) []byte { return b[:1300] }},
		{"replace", func(tx *Txn) error { return tx.Replace("x", 1100, pat(44, 800)) },
			func(b []byte) []byte {
				out := append([]byte{}, b...)
				copy(out[1100:], pat(44, 800))
				return out
			}},
	}
	for _, sh := range shapes {
		for _, commit := range []bool{true, false} {
			name := sh.name + "/abort"
			if commit {
				name = sh.name + "/commit"
			}
			t.Run(name, func(t *testing.T) {
				s, vol, logVol, base := replaceStore(t, Options{})
				tx, _ := s.Begin()
				if err := tx.Replace("x", 500, repl); err != nil {
					t.Fatal(err)
				}
				if err := sh.op(tx); err != nil {
					t.Fatal(err)
				}
				if s.Stats().EarlyReplaceApplies != 1 {
					t.Fatal("the second operation did not settle the deferred replace")
				}
				want := append([]byte{}, base...)
				copy(want[500:], repl)
				want = sh.model(want)
				got, err := tx.Read("x", 0, int64(len(want)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("in-transaction content wrong: the operation did not see the replaced bytes")
				}
				if commit {
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
					want = base
				}
				if !bytes.Equal(readObject(t, s, "x"), want) {
					t.Fatal("content wrong after the transaction ended")
				}
				s = crashReopen(t, vol, logVol)
				if !bytes.Equal(readObject(t, s, "x"), want) {
					t.Fatal("content wrong after crash and recovery")
				}
			})
		}
	}
}

// TestDeferredReplaceAbortTouchesNoDataPage: a replace nothing settled is
// simply dropped by Abort — no page of the data volume is written by the
// transaction, and the abort itself issues no data-volume request at all.
func TestDeferredReplaceAbortTouchesNoDataPage(t *testing.T) {
	s, vol, logVol, base := replaceStore(t, Options{})
	start := vol.Stats()
	tx, _ := s.Begin()
	if err := tx.Replace("x", 2000, pat(45, 1200)); err != nil {
		t.Fatal(err)
	}
	mid := vol.Stats()
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	end := vol.Stats()
	if end.Writes != start.Writes {
		t.Fatalf("replace + abort wrote the data volume %d times", end.Writes-start.Writes)
	}
	if end.Reads != mid.Reads {
		t.Fatalf("abort read the data volume %d times", end.Reads-mid.Reads)
	}
	if !bytes.Equal(readObject(t, s, "x"), base) {
		t.Fatal("aborted replace visible")
	}
	s = crashReopen(t, vol, logVol)
	if !bytes.Equal(readObject(t, s, "x"), base) {
		t.Fatal("aborted replace visible after recovery")
	}
}

// TestDeferredReplaceOneLogForce: a transaction whose replaces stay
// deferred forces the log once, at commit; one that reads its replace
// back pays the pre-image force as well.
func TestDeferredReplaceOneLogForce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ops    func(tx *Txn) error
		forces int64
	}{
		{"replace", func(tx *Txn) error { return tx.Replace("x", 100, pat(46, 2000)) }, 1},
		{"replace+append", func(tx *Txn) error {
			if err := tx.Replace("x", 100, pat(46, 2000)); err != nil {
				return err
			}
			return tx.Append("x", pat(47, 3000))
		}, 1},
		{"replace+read", func(tx *Txn) error {
			if err := tx.Replace("x", 100, pat(46, 2000)); err != nil {
				return err
			}
			_, err := tx.Read("x", 0, 10)
			return err
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, _, _ := replaceStore(t, Options{})
			before := s.Stats().WAL.LeaderForces
			tx, _ := s.Begin()
			if err := tc.ops(tx); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().WAL.LeaderForces - before; got != tc.forces {
				t.Fatalf("%d leader forces, want %d", got, tc.forces)
			}
		})
	}
}

// TestRangeLockingReplaceStaysImmediate: with byte-range locks another
// transaction may restructure the object behind the replaced range, so
// the replace forces its pre-image and writes home before it returns.
func TestRangeLockingReplaceStaysImmediate(t *testing.T) {
	s, vol, _, base := replaceStore(t, Options{RangeLocking: true})
	writes, forces := vol.Stats().Writes, s.Stats().WAL.LeaderForces
	tx, _ := s.Begin()
	repl := pat(48, 700)
	if err := tx.Replace("x", 300, repl); err != nil {
		t.Fatal(err)
	}
	if vol.Stats().Writes == writes {
		t.Fatal("replace under range locking did not write home")
	}
	if got := s.Stats().WAL.LeaderForces - forces; got != 1 {
		t.Fatalf("%d leader forces before the home write, want 1", got)
	}
	if st := s.Stats(); st.DeferredReplaces != 0 || st.EarlyReplaceApplies != 0 {
		t.Fatalf("%d deferred, %d early applies under range locking; want 0, 0", st.DeferredReplaces, st.EarlyReplaceApplies)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	copy(base[300:], repl)
	if !bytes.Equal(readObject(t, s, "x"), base) {
		t.Fatal("committed content wrong")
	}
}

// TestCommitPathCounters covers the counters that make the commit path's
// savings visible: a replace right behind a read of its bytes plans on the
// read's page images, a commit whose append dirtied a space directory
// leaves that page in the pool (the device image moves only at the next
// checkpoint), a replace that waits for the commit force counts as
// deferred, and one a later operation settles counts as an early apply
// too.
func TestCommitPathCounters(t *testing.T) {
	s, vol, _, _ := replaceStore(t, Options{})
	dirImages := func() map[disk.PageNum]string {
		out := map[disk.PageNum]string{}
		for p := range s.dirPages {
			img, err := vol.Read(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			out[p] = string(img)
		}
		return out
	}
	before := dirImages()
	tx, _ := s.Begin()
	if _, err := tx.Read("x", 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := tx.Replace("x", 0, pat(49, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("x", pat(50, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Replace("x", 50, pat(51, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DeferredReplaces != 2 || st.EarlyReplaceApplies != 1 {
		t.Fatalf("%d deferred, %d early applies; want 2, 1", st.DeferredReplaces, st.EarlyReplaceApplies)
	}
	if st.ReplaceReadsSaved != 1 {
		t.Fatalf("%d page runs taken from a kept read, want 1: the first replace follows a read of its bytes, the second an append", st.ReplaceReadsSaved)
	}
	if st.Barrier.DirPagesSkipped != 1 {
		t.Fatalf("the commit barrier skipped %d directory pages, want 1", st.Barrier.DirPagesSkipped)
	}
	if !reflect.DeepEqual(dirImages(), before) {
		t.Fatal("the commit barrier wrote the space directory")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(dirImages(), before) {
		t.Fatal("the checkpoint did not write the space directory")
	}
}

// TestBarrierInsideCommitKeepsItWhole runs another transaction's full
// Commit between the two halves of T1's commit and then cuts the power.
// T1's commit record is durable, so recovery must show all of T1 — and
// here it can only do so from the data volume: T2's barrier journaled
// T1's new root, whose LSN tells redo that T1 is already applied.  That
// barrier must therefore have forced T1's in-place pages, which it does
// only if T1 stopped counting as live in the same critical section that
// refreshed the root.
func TestBarrierInsideCommitKeepsItWhole(t *testing.T) {
	s, vol, logVol, base := replaceStore(t, Options{})
	y, err := s.Create("y", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := y.Append(pat(52, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	t1, _ := s.Begin()
	repl, tail := pat(53, 1800), pat(54, 700)
	if err := t1.Replace("x", 1000, repl); err != nil {
		t.Fatal(err)
	}
	if err := t1.Append("x", tail); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.commitLog(); err != nil {
		t.Fatal(err)
	}

	t2, _ := s.Begin()
	if err := t2.Append("y", pat(55, 300)); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	s = crashReopen(t, vol, logVol)
	want := append(append([]byte{}, base...), tail...)
	copy(want[1000:], repl)
	got := readObject(t, s, "x")
	if !bytes.Equal(got, want) {
		t.Fatalf("committed transaction recovered in part: size %d (want %d), replace present=%v",
			len(got), len(want), len(got) >= 2800 && bytes.Equal(got[1000:2800], repl))
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// handoffStore returns a store holding two checkpointed objects of three
// 5000-byte segments each, "m" and "other", and their contents.
func handoffStore(t *testing.T, opts Options) (*Store, disk.Device, disk.Device, []byte, []byte) {
	t.Helper()
	s, vol, logVol := newStore(t, opts)
	build := func(name string, seed int) []byte {
		o, err := s.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		var model []byte
		for i := 0; i < 3; i++ {
			part := pat(seed+i, 5000)
			if err := o.Append(part); err != nil {
				t.Fatal(err)
			}
			model = append(model, part...)
		}
		if u, err := o.Usage(); err != nil || u.SegmentCount != 3 {
			t.Fatalf("%q has %d segments (err %v), want 3", name, u.SegmentCount, err)
		}
		return model
	}
	m, other := build("m", 60), build("other", 80)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return s, vol, logVol, m, other
}

// replaceCost runs tx.Replace and returns the data-volume reads it issued
// and the page runs it took from the transaction's kept read.
func replaceCost(t *testing.T, s *Store, vol disk.Device, tx *Txn, name string, off int64, data []byte) (reads, saved int64) {
	t.Helper()
	r0, s0 := vol.Stats().Reads, s.Stats().ReplaceReadsSaved
	if err := tx.Replace(name, off, data); err != nil {
		t.Fatal(err)
	}
	return vol.Stats().Reads - r0, s.Stats().ReplaceReadsSaved - s0
}

// TestReadHandsPagesToReplace: a Replace right behind a Read of the same
// bytes issues no data read — it plans on the page runs the Read
// transferred — and the bytes it logs as pre-image are the device's: the
// content is right after commit, after abort, and after a crash that
// finds the transaction in flight with its write already on the device.
func TestReadHandsPagesToReplace(t *testing.T) {
	// [4600, 6400) crosses the first segment boundary: two pieces.
	const off, n = 4600, 1800
	repl := pat(90, n)
	for _, end := range []string{"commit", "abort", "crash in flight"} {
		t.Run(end, func(t *testing.T) {
			s, vol, logVol, model, _ := handoffStore(t, Options{})
			tx, _ := s.Begin()
			got, err := tx.Read("m", off, n)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, model[off:off+n]) {
				t.Fatal("read returned the wrong bytes")
			}
			if reads, saved := replaceCost(t, s, vol, tx, "m", off, repl); reads != 0 || saved != 2 {
				t.Fatalf("replace behind the read: %d data reads, %d runs taken; want 0, 2", reads, saved)
			}
			want := append([]byte{}, model...)
			copy(want[off:], repl)
			switch end {
			case "commit":
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			case "abort":
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				want = model
			case "crash in flight":
				// Reading it back forces the pre-image record and writes the
				// replace home; the soft checkpoint makes that write durable.
				// Recovery can only restore the old bytes from the record.
				if got, err := tx.Read("m", 0, int64(len(want))); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("transaction does not see its own replace (err %v)", err)
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				want = model
			}
			if end != "crash in flight" && !bytes.Equal(readObject(t, s, "m"), want) {
				t.Fatal("content wrong after the transaction ended")
			}
			s = crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, s, "m"), want) {
				t.Fatal("content wrong after crash and recovery")
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplaceReadsOnlyWhatTheReadDidNotCover: the hand-off is per segment
// piece — a piece whose page run the read transferred whole is taken, any
// other is read as before.  Segments are 5000 bytes, pages 512.
func TestReplaceReadsOnlyWhatTheReadDidNotCover(t *testing.T) {
	for _, tc := range []struct {
		name         string
		readOff, rdN int64
		off, n       int64
		reads, saved int64
	}{
		{"narrower than the read", 4000, 3000, 4600, 1800, 0, 2},
		{"same pages, fewer bytes", 5200, 600, 5300, 100, 0, 1},
		{"one page wider", 5700, 400, 5600, 1100, 1, 0},
		{"shifted: first piece covered, second not", 4000, 2000, 4600, 2000, 1, 1},
		{"shifted the other way: second piece covered", 4600, 2400, 4000, 2400, 1, 1},
		{"elsewhere in the object", 100, 500, 12000, 500, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, vol, logVol, model, _ := handoffStore(t, Options{})
			tx, _ := s.Begin()
			if _, err := tx.Read("m", tc.readOff, tc.rdN); err != nil {
				t.Fatal(err)
			}
			repl := pat(91, int(tc.n))
			if reads, saved := replaceCost(t, s, vol, tx, "m", tc.off, repl); reads != tc.reads || saved != tc.saved {
				t.Fatalf("%d data reads, %d runs taken; want %d, %d", reads, saved, tc.reads, tc.saved)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			copy(model[tc.off:], repl)
			if !bytes.Equal(readObject(t, s, "m"), model) {
				t.Fatal("committed content wrong")
			}
			s = crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, s, "m"), model) {
				t.Fatal("content wrong after crash and recovery")
			}
		})
	}
}

// TestKeptReadDoesNotOutliveTheNextOperation: only a Replace that comes
// directly behind the Read may use its pages.  Each operation in between
// here leaves the read range where it was — so a slot that survived it
// would be taken, and counted — and the content must come out right.
func TestKeptReadDoesNotOutliveTheNextOperation(t *testing.T) {
	const off, n = 4600, 1800
	repl := pat(92, n)
	for _, tc := range []struct {
		name  string
		op    func(tx *Txn) error
		model func(m []byte) []byte
	}{
		{"insert", func(tx *Txn) error { return tx.Insert("m", 9000, pat(93, 300)) },
			func(m []byte) []byte {
				return append(append(append([]byte{}, m[:9000]...), pat(93, 300)...), m[9000:]...)
			}},
		{"delete", func(tx *Txn) error { return tx.Delete("m", 9000, 300) },
			func(m []byte) []byte { return append(append([]byte{}, m[:9000]...), m[9300:]...) }},
		{"append", func(tx *Txn) error { return tx.Append("m", pat(94, 700)) },
			func(m []byte) []byte { return append(append([]byte{}, m...), pat(94, 700)...) }},
		{"truncate", func(tx *Txn) error { return tx.Truncate("m", 12000) },
			func(m []byte) []byte { return m[:12000] }},
		{"read of another object", func(tx *Txn) error { _, err := tx.Read("other", off, n); return err },
			func(m []byte) []byte { return m }},
		{"size", func(tx *Txn) error { _, err := tx.Size("m"); return err },
			func(m []byte) []byte { return m }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, vol, logVol, model, _ := handoffStore(t, Options{})
			tx, _ := s.Begin()
			if _, err := tx.Read("m", off, n); err != nil {
				t.Fatal(err)
			}
			if err := tc.op(tx); err != nil {
				t.Fatal(err)
			}
			if reads, saved := replaceCost(t, s, vol, tx, "m", off, repl); reads != 2 || saved != 0 {
				t.Fatalf("replace behind read + %s: %d data reads, %d runs taken; want 2, 0", tc.name, reads, saved)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			want := tc.model(model)
			copy(want[off:], repl)
			if !bytes.Equal(readObject(t, s, "m"), want) {
				t.Fatal("committed content wrong")
			}
			s = crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, s, "m"), want) {
				t.Fatal("content wrong after crash and recovery")
			}
		})
	}

	// A read of one object is nothing to a replace of another, although the
	// two ranges are the same numbers.
	t.Run("replace of another object", func(t *testing.T) {
		s, vol, _, model, other := handoffStore(t, Options{})
		tx, _ := s.Begin()
		if _, err := tx.Read("m", off, n); err != nil {
			t.Fatal(err)
		}
		if reads, saved := replaceCost(t, s, vol, tx, "other", off, repl); reads != 2 || saved != 0 {
			t.Fatalf("%d data reads, %d runs taken; want 2, 0", reads, saved)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		copy(other[off:], repl)
		if !bytes.Equal(readObject(t, s, "other"), other) || !bytes.Equal(readObject(t, s, "m"), model) {
			t.Fatal("committed content wrong")
		}
	})
}

// TestReplaceReadReplace: the read between two replaces of overlapping
// bytes settles the first, returns its bytes, and keeps page images that
// hold them; the second replace is planned on those.  Commit leaves both,
// abort neither, and so does a crash that finds both written home.
func TestReplaceReadReplace(t *testing.T) {
	first, second := pat(95, 1000), pat(96, 1000)
	for _, end := range []string{"commit", "abort", "crash in flight"} {
		t.Run(end, func(t *testing.T) {
			s, vol, logVol, model, _ := handoffStore(t, Options{})
			tx, _ := s.Begin()
			if err := tx.Replace("m", 1000, first); err != nil {
				t.Fatal(err)
			}
			want := append([]byte{}, model...)
			copy(want[1000:], first)
			got, err := tx.Read("m", 900, 1700)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[900:2600]) {
				t.Fatal("the read does not see the first replace")
			}
			if s.Stats().EarlyReplaceApplies != 1 {
				t.Fatal("the read did not settle the first replace")
			}
			if reads, saved := replaceCost(t, s, vol, tx, "m", 1500, second); reads != 0 || saved != 1 {
				t.Fatalf("second replace: %d data reads, %d runs taken; want 0, 1", reads, saved)
			}
			copy(want[1500:], second)
			switch end {
			case "commit":
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			case "abort":
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				want = model
			case "crash in flight":
				if got, err := tx.Read("m", 0, int64(len(want))); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("transaction does not see both replaces (err %v)", err)
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				want = model
			}
			if end != "crash in flight" && !bytes.Equal(readObject(t, s, "m"), want) {
				t.Fatal("content wrong after the transaction ended")
			}
			s = crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, s, "m"), want) {
				t.Fatal("content wrong after crash and recovery")
			}
		})
	}
}

// TestKeptReadLimits: byte-range locks cover bytes, not the pages around
// them, so under Options.RangeLocking a read keeps nothing; a read of more
// than keptReadMaxPages pages is not held on to; a read whose segment
// transfers were fanned out is kept like any other.
func TestKeptReadLimits(t *testing.T) {
	t.Run("range locking", func(t *testing.T) {
		s, vol, _, model, _ := handoffStore(t, Options{RangeLocking: true})
		tx, _ := s.Begin()
		if _, err := tx.Read("m", 4600, 1800); err != nil {
			t.Fatal(err)
		}
		repl := pat(97, 1800)
		if reads, saved := replaceCost(t, s, vol, tx, "m", 4600, repl); reads < 2 || saved != 0 {
			t.Fatalf("%d data reads, %d runs taken; want at least 2, and 0", reads, saved)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		copy(model[4600:], repl)
		if !bytes.Equal(readObject(t, s, "m"), model) {
			t.Fatal("committed content wrong")
		}
	})
	// Options.ReadConcurrency: the segments' transfers run in parallel
	// and are still kept in order.
	t.Run("fanned-out read", func(t *testing.T) {
		s, vol, _, model, _ := handoffStore(t, Options{ReadConcurrency: 4})
		tx, _ := s.Begin()
		if got, err := tx.Read("m", 4000, 7000); err != nil || !bytes.Equal(got, model[4000:11000]) {
			t.Fatalf("read across three segments wrong (err %v)", err)
		}
		repl := pat(97, 6000)
		if reads, saved := replaceCost(t, s, vol, tx, "m", 4500, repl); reads != 0 || saved != 3 {
			t.Fatalf("%d data reads, %d runs taken; want 0, 3", reads, saved)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		copy(model[4500:], repl)
		if !bytes.Equal(readObject(t, s, "m"), model) {
			t.Fatal("committed content wrong")
		}
	})
	t.Run("page cap", func(t *testing.T) {
		s, vol, _ := newStore(t, Options{})
		o, err := s.Create("big", 0)
		if err != nil {
			t.Fatal(err)
		}
		size := (keptReadMaxPages + 8) * s.PageSize()
		model := pat(98, size)
		if err := o.AppendWithHint(model, int64(size)); err != nil {
			t.Fatal(err)
		}
		tx, _ := s.Begin()
		if _, err := tx.Read("big", 0, int64(size)); err != nil {
			t.Fatal(err)
		}
		repl := pat(99, 1000)
		if reads, saved := replaceCost(t, s, vol, tx, "big", 0, repl); reads != 1 || saved != 0 {
			t.Fatalf("behind a read above the cap: %d data reads, %d runs taken; want 1, 0", reads, saved)
		}
		// At the cap it is kept.
		if _, err := tx.Read("big", 0, int64(keptReadMaxPages*s.PageSize())); err != nil {
			t.Fatal(err)
		}
		if reads, saved := replaceCost(t, s, vol, tx, "big", 2000, repl); reads != 0 || saved != 1 {
			t.Fatalf("behind a read at the cap: %d data reads, %d runs taken; want 0, 1", reads, saved)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		copy(model[0:], repl)
		copy(model[2000:], repl)
		if !bytes.Equal(readObject(t, s, "big"), model) {
			t.Fatal("committed content wrong")
		}
	})
}

// openTailStore returns replaceStore's object "x" with a committed plain
// append of 700 bytes behind it: its tail segment is open (8 pages, 188
// bytes in the second one) and remembered.
func openTailStore(t *testing.T, opts Options) (*Store, disk.Device, disk.Device, []byte) {
	t.Helper()
	s, vol, logVol, base := replaceStore(t, opts)
	tx, _ := s.Begin()
	more := pat(70, 700)
	if err := tx.Append("x", more); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s, vol, logVol, append(base, more...)
}

// TestSmallTxnContinuesTheTail is the small transaction of commit_small —
// read, replace those bytes, append — on an object whose tail the last
// append left open.  The append goes on in that tail with one write and no
// read, and it leaves the deferred replace alone: one log force, no early
// apply.  Only a replace that covers the very page the append writes again
// is settled first, and then the append reads that page back.
func TestSmallTxnContinuesTheTail(t *testing.T) {
	for _, tc := range []struct {
		name                string
		off                 int64
		early, forces, read int64
	}{
		{"replace elsewhere", 1000, 0, 1, 0},
		{"replace in the tail segment, another page", 6100, 0, 1, 0},
		{"replace covering the partial last page", 6400, 1, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, vol, logVol, model := openTailStore(t, Options{})
			x, _ := s.Open("x")
			u0, _ := x.Usage()
			st0 := s.Stats()
			tx, _ := s.Begin()
			if _, err := tx.Read("x", tc.off, 200); err != nil {
				t.Fatal(err)
			}
			repl, more := pat(71, 200), pat(72, 900)
			if err := tx.Replace("x", tc.off, repl); err != nil {
				t.Fatal(err)
			}
			d0 := vol.Stats()
			if err := tx.Append("x", more); err != nil {
				t.Fatal(err)
			}
			d1 := vol.Stats()
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			copy(model[tc.off:], repl)
			model = append(model, more...)
			st := s.Stats()
			if got := st.EarlyReplaceApplies - st0.EarlyReplaceApplies; got != tc.early {
				t.Errorf("%d early applies, want %d", got, tc.early)
			}
			if got := st.WAL.LeaderForces - st0.WAL.LeaderForces; got != tc.forces {
				t.Errorf("%d leader forces, want %d", got, tc.forces)
			}
			// The append: one write from the partial page on (188 + 900 bytes:
			// 3 pages), plus the settled replace's page when there was one.
			if reads, writes := d1.Reads-d0.Reads, d1.Writes-d0.Writes; reads != tc.read || writes != 1+tc.early {
				t.Errorf("the append issued %d reads and %d writes, want %d and %d", reads, writes, tc.read, 1+tc.early)
			}
			if u, _ := x.Usage(); u.SegmentCount != u0.SegmentCount || u.SegmentPages != u0.SegmentPages {
				t.Errorf("the append changed the layout: %d segments on %d pages, were %d on %d", u.SegmentCount, u.SegmentPages, u0.SegmentCount, u0.SegmentPages)
			}
			if !bytes.Equal(readObject(t, s, "x"), model) {
				t.Fatal("content wrong after commit")
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
			if err := s.CheckNoLeaks(); err != nil {
				t.Fatal(err)
			}
			// And from the log alone: the store is cut off before any
			// checkpoint, redo continues a tail of its own.
			re := crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, re, "x"), model) {
				t.Fatal("content wrong after crash and recovery")
			}
			if err := re.CheckNoLeaks(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAbortedFillLeavesNoTrace: a transaction continues the open tail in
// place and aborts.  The bytes it put into the slack of the partial page
// are outside every root; the pages it grew into go back to the free space;
// and the next append does not trust what is on that page any more — it
// starts a tail of its own.
func TestAbortedFillLeavesNoTrace(t *testing.T) {
	s, vol, logVol, model := openTailStore(t, Options{})
	x, _ := s.Open("x")
	tx, _ := s.Begin()
	if err := tx.Append("x", pat(73, 900)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("content wrong after abort")
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
	u0, _ := x.Usage()
	more := pat(74, 100)
	if err := x.Append(more); err != nil {
		t.Fatal(err)
	}
	model = append(model, more...)
	if u, _ := x.Usage(); u.SegmentCount != u0.SegmentCount+1 {
		t.Fatalf("the append after the abort made %d segments of %d, want a new one", u.SegmentCount, u0.SegmentCount)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re := crashReopen(t, vol, logVol)
	if !bytes.Equal(readObject(t, re, "x"), model) {
		t.Fatal("content wrong after crash and recovery")
	}
	if err := re.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointDropsTailImages: the page images open tails keep are
// bounded by the appends since the last checkpoint.  After one, every
// object's next append reads its partial page back — once — and remembers
// it again.
func TestCheckpointDropsTailImages(t *testing.T) {
	s, vol, _ := newStore(t, Options{})
	const n = 12
	objs := make([]*Object, n)
	for i := range objs {
		o, err := s.Create(fmt.Sprintf("o%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Append(pat(i, 300)); err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}
	appendAll := func() int64 {
		r0 := vol.Stats().Reads
		for i, o := range objs {
			if err := o.Append(pat(100+i, 50)); err != nil {
				t.Fatal(err)
			}
		}
		return vol.Stats().Reads - r0
	}
	if got := appendAll(); got != 0 {
		t.Fatalf("%d reads while the images are held, want 0", got)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := appendAll(); got != n {
		t.Fatalf("%d reads after the checkpoint, want %d: one partial page an object", got, n)
	}
	if got := appendAll(); got != 0 {
		t.Fatalf("%d reads on the round after, want 0", got)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeLockingKeepsNoTailImage: under byte-range locking another
// transaction may replace bytes of the tail's last page while sharing the
// latch, so the continuation reads the page it rewrites.
func TestRangeLockingKeepsNoTailImage(t *testing.T) {
	s, vol, _, model := openTailStore(t, Options{RangeLocking: true})
	other, _ := s.Begin()
	repl := pat(75, 50)
	if err := other.Replace("x", 6600, repl); err != nil { // the partial last page
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	more := pat(76, 100)
	r0 := vol.Stats().Reads
	if err := tx.Append("x", more); err != nil {
		t.Fatal(err)
	}
	if got := vol.Stats().Reads - r0; got != 1 {
		t.Fatalf("the append read %d times, want 1", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := other.Commit(); err != nil {
		t.Fatal(err)
	}
	copy(model[6600:], repl)
	if !bytes.Equal(readObject(t, s, "x"), append(model, more...)) {
		t.Fatal("content wrong")
	}
}

// TestDeleteRecordCarriesNoBytes: a delete is shadowed, not logged — redo
// deletes by offset and length and an abort re-inserts from the journal in
// memory — so its record is a header, and a crash that finds the deleter
// committed or in flight recovers either way.
func TestDeleteRecordCarriesNoBytes(t *testing.T) {
	for _, commit := range []bool{true, false} {
		t.Run(fmt.Sprintf("commit=%v", commit), func(t *testing.T) {
			s, vol, logVol, base := replaceStore(t, Options{})
			tail0 := s.LogTail()
			tx, _ := s.Begin()
			if err := tx.Delete("x", 1000, 3000); err != nil {
				t.Fatal(err)
			}
			if grew := s.LogTail() - tail0; grew >= 3000 {
				t.Fatalf("begin + delete records take %d bytes of log: the deleted bytes are in there", grew)
			}
			want := base
			if commit {
				if err := tx.CommitNoForce(); err != nil { // the data volume never hears of it
					t.Fatal(err)
				}
				want = append(append([]byte{}, base[:1000]...), base[4000:]...)
			} else {
				// In flight, but on the log device: another commit's force.
				w, _ := s.Begin()
				if err := w.Create("y", 0); err != nil {
					t.Fatal(err)
				}
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			re := crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, re, "x"), want) {
				t.Fatal("content wrong after crash and recovery")
			}
			if err := re.Check(); err != nil {
				t.Fatal(err)
			}
			if err := re.CheckNoLeaks(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLogFullBehindASealedForce: every log force ends on a page boundary,
// and room is counted from there.  A record that an unpadded log would
// still have held is refused whole — ErrLogFull, nothing of the operation
// done or logged — the store stays readable, and a quiescent checkpoint
// gives the log back.
func TestLogFullBehindASealedForce(t *testing.T) {
	vol := newTestDevice(t, 512, 4096)
	logVol := newTestDevice(t, 512, 4)
	s, err := Format(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("x", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var model []byte
	for i := 0; i < 3; i++ {
		tx, _ := s.Begin()
		more := pat(80+i, 100)
		if err := tx.Append("x", more); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		model = append(model, more...)
	}
	st := s.Stats()
	if s.LogTail() != 3*512 {
		t.Fatalf("log tail at %d after three one-page commits, want %d", s.LogTail(), 3*512)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	hdr := int(s.LogTail()) - 3*512  // a record without payload: the begin record
	room := 4*512 - int(s.LogTail()) // what is left of the last page
	big := pat(90, room-hdr+1)       // its record is one byte longer than that
	if int(st.WAL.FlushedBytes)+3*hdr+len(big) > 4*512 {
		t.Fatal("the transaction would not fit an unpadded log either; the test proves nothing")
	}
	before := s.LogTail()
	if err := tx.Append("x", big); !errors.Is(err, wal.ErrLogFull) {
		t.Fatalf("append of a record one byte longer than the last log page has room: %v, want ErrLogFull", err)
	}
	if s.LogTail() != before {
		t.Fatalf("the refused record moved the log tail from %d to %d", before, s.LogTail())
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("the refused append left a trace in the object")
	}
	if _, err := s.Begin(); !errors.Is(err, wal.ErrLogFull) {
		t.Fatalf("Begin on the full log: %v, want ErrLogFull", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.LogTail() != 0 {
		t.Fatalf("log tail at %d after a quiescent checkpoint", s.LogTail())
	}
	tx, err = s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("x", big); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readObject(t, s, "x"), append(model, big...)) {
		t.Fatal("content wrong after the log was freed")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}
