package eos

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/eosdb/eos/internal/disk"
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

// TestCommitPathCounters covers the three counters that make the commit
// path's savings visible: a commit whose append dirtied a space directory
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
