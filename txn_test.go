package eos

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/buddy"
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
// replaced although their home write was deferred — from its held pages,
// writing nothing and forcing nothing.
func TestDeferredReplaceReadYourOwn(t *testing.T) {
	s, vol, _, base := replaceStore(t, Options{})
	tx, _ := s.Begin()
	repl := pat(41, 900)
	if err := tx.Replace("x", 700, repl); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DeferredReplaces != 1 {
		t.Fatalf("after Replace: %d deferred, want 1", st.DeferredReplaces)
	}
	w0, f0 := vol.Stats().Writes, s.Stats().WAL.Forces
	got, err := tx.Read("x", 600, 1100)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, base[600:1700]...)
	copy(want[100:], repl)
	if !bytes.Equal(got, want) {
		t.Fatal("transaction does not see its own replace")
	}
	if w, f := vol.Stats().Writes-w0, s.Stats().WAL.Forces-f0; w != 0 || f != 0 {
		t.Fatalf("the read wrote the data volume %d times and forced the log %d times, want neither", w, f)
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
// find the new bytes there — in the held pages, with no log force before
// the commit's; and an abort must then put the old bytes back into the
// fresh pages that copied them.  Each shape is committed (and checked
// after a crash) and aborted (likewise).
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
				forces := s.Stats().WAL.Forces
				if err := tx.Replace("x", 500, repl); err != nil {
					t.Fatal(err)
				}
				if err := sh.op(tx); err != nil {
					t.Fatal(err)
				}
				if s.Stats().WAL.Forces != forces {
					t.Fatal("the second operation forced the log")
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

// TestReplaceReadYourWrites: a transaction's replace followed by another
// operation on the same object.  The transaction sees its own bytes; until
// the commit's force no log force is issued and the pages the committed root
// names keep their committed bytes on the data volume — a read or a second
// replace writes nothing at all —; the content is right after Commit and
// after Abort, where pages a structural operation filled with the replaced
// bytes get the old ones back; and a crash at each step recovers the
// committed state: in flight (behind a checkpoint that forces the volume),
// committed, aborted, and either end behind a checkpoint.
func TestReplaceReadYourWrites(t *testing.T) {
	tailStore := func(t *testing.T) (*Store, disk.Device, disk.Device, []byte) {
		s, vol, logVol, base := openTailStore(t, Options{})
		if err := s.Checkpoint(); err != nil { // the open tail's pages, on the device
			t.Fatal(err)
		}
		return s, vol, logVol, base
	}
	plain := func(t *testing.T) (*Store, disk.Device, disk.Device, []byte) { return replaceStore(t, Options{}) }
	splice := func(b []byte, off int, cut int, ins []byte) []byte {
		return append(append(append([]byte{}, b[:off]...), ins...), b[off+cut:]...)
	}
	rows := []struct {
		name  string
		store func(t *testing.T) (*Store, disk.Device, disk.Device, []byte)
		off   int64 // the replace's, of 600 bytes
		op    func(tx *Txn) error
		model func(b []byte) []byte // nil: the object is gone
		quiet bool                  // the operation writes nothing on the data volume
	}{
		{"read", plain, 2000, func(tx *Txn) error {
			_, err := tx.Read("x", 1900, 800)
			return err
		}, func(b []byte) []byte { return b }, true},
		{"overlapping replace", plain, 2000, func(tx *Txn) error { return tx.Replace("x", 2300, pat(81, 600)) },
			func(b []byte) []byte { return splice(b, 2300, 600, pat(81, 600)) }, true},
		{"insert", plain, 2000, func(tx *Txn) error { return tx.Insert("x", 2200, pat(82, 700)) },
			func(b []byte) []byte { return splice(b, 2200, 0, pat(82, 700)) }, false},
		{"delete", plain, 2000, func(tx *Txn) error { return tx.Delete("x", 1800, 500) },
			func(b []byte) []byte { return splice(b, 1800, 500, nil) }, false},
		{"truncate", plain, 2000, func(tx *Txn) error { return tx.Truncate("x", 2400) },
			func(b []byte) []byte { return b[:2400] }, false},
		{"destroy", plain, 2000, func(tx *Txn) error { return tx.Destroy("x") }, nil, false},
		{"append over the tail page", tailStore, 6100, func(tx *Txn) error { return tx.Append("x", pat(83, 900)) },
			func(b []byte) []byte { return append(append([]byte{}, b...), pat(83, 900)...) }, false},
	}
	for _, row := range rows {
		for _, end := range []string{"in flight after the replace", "in flight after the operation", "commit", "commit, checkpoint", "abort", "abort, checkpoint"} {
			t.Run(row.name+"/"+end, func(t *testing.T) {
				s, vol, logVol, base := row.store(t)
				s.mu.Lock()
				committed := s.catalog["x"].loadStableDesc()
				s.mu.Unlock()
				repl := pat(80, 600)
				want := splice(base, int(row.off), len(repl), repl)
				// sees checks what the transaction reads, and that nothing of
				// it reached the committed root's pages or forced the log.
				forces, writes := s.Stats().WAL.Forces, vol.Stats().Writes
				sees := func(what string, tx *Txn, want []byte) {
					t.Helper()
					if want == nil {
						if _, err := tx.Size("x"); !errors.Is(err, ErrNotFound) {
							t.Fatalf("%s: the transaction still finds the object it destroyed (err %v)", what, err)
						}
					} else if got, err := tx.Read("x", 0, int64(len(want))); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: the transaction does not see its own bytes (err %v)", what, err)
					}
					if got := s.Stats().WAL.Forces - forces; got != 0 {
						t.Fatalf("%s: %d log forces before the commit's", what, got)
					}
					if !bytes.Equal(homeBytes(t, s, committed), base) {
						t.Fatalf("%s: an uncommitted byte reached a page the committed root names", what)
					}
					if row.quiet && vol.Stats().Writes != writes {
						t.Fatalf("%s: %d data-volume writes", what, vol.Stats().Writes-writes)
					}
				}
				recovers := func(want []byte) {
					t.Helper()
					re := crashReopen(t, vol, logVol)
					if want == nil {
						if _, err := re.Open("x"); !errors.Is(err, ErrNotFound) {
							t.Fatalf("after crash and recovery the destroyed object is there (err %v)", err)
						}
					} else if !bytes.Equal(readObject(t, re, "x"), want) {
						t.Fatal("content wrong after crash and recovery")
					}
					if err := re.CheckNoLeaks(); err != nil {
						t.Fatal(err)
					}
				}
				checkpoint := func() {
					t.Helper()
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}

				tx, _ := s.Begin()
				if err := tx.Replace("x", row.off, repl); err != nil {
					t.Fatal(err)
				}
				sees("after the replace", tx, want)
				if end == "in flight after the replace" {
					checkpoint()
					recovers(base)
					return
				}
				if err := row.op(tx); err != nil {
					t.Fatal(err)
				}
				if row.model == nil {
					want = nil
				} else {
					want = row.model(want)
				}
				sees("after the operation", tx, want)
				switch end {
				case "in flight after the operation":
					checkpoint()
					recovers(base)
					return
				case "commit", "commit, checkpoint":
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				default:
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
					want = base
				}
				if want == nil {
					if _, err := s.Open("x"); !errors.Is(err, ErrNotFound) {
						t.Fatalf("the committed destroy left the object (err %v)", err)
					}
				} else if !bytes.Equal(readObject(t, s, "x"), want) {
					t.Fatal("content wrong after the transaction ended")
				}
				if strings.HasSuffix(end, "checkpoint") {
					checkpoint()
				}
				recovers(want)
			})
		}
	}
}

// TestAbortTouchesNoDataPage: whatever the transaction did — the paper's
// operations, appends inside the open tail's room and past it, creates and
// destroys — its abort asks the data volume for nothing, and leaves the
// object's layout, open tail included, its descriptor, its bytes and the
// free space as they were before Begin.  A crash after the abort recovers
// the same.
func TestAbortTouchesNoDataPage(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  func(tx *Txn) error
	}{
		{"insert", func(tx *Txn) error { return tx.Insert("x", 3000, pat(60, 2000)) }},
		{"delete", func(tx *Txn) error { return tx.Delete("x", 1000, 3000) }},
		{"truncate", func(tx *Txn) error { return tx.Truncate("x", 6500) }},
		{"replace", func(tx *Txn) error { return tx.Replace("x", 2000, pat(45, 1200)) }},
		{"append inside the open tail's room", func(tx *Txn) error { return tx.Append("x", pat(61, 100)) }},
		{"append past the open tail's room", func(tx *Txn) error { return tx.Append("x", pat(62, 5000)) }},
		{"create", func(tx *Txn) error {
			if err := tx.Create("y", 0); err != nil {
				return err
			}
			return tx.Append("y", pat(63, 3000))
		}},
		{"destroy", func(tx *Txn) error { return tx.Destroy("x") }},
		{"destroy x, create x", func(tx *Txn) error {
			if err := tx.Destroy("x"); err != nil {
				return err
			}
			if err := tx.Create("x", 0); err != nil {
				return err
			}
			return tx.Append("x", pat(64, 3000))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, vol, logVol, model := openTailStore(t, Options{})
			x, _ := s.Open("x")
			segs, _ := x.e.obj.Segments()
			desc, free := x.e.obj.EncodeDescriptor(), freePages(t, s)
			tx, _ := s.Begin()
			if err := tc.ops(tx); err != nil {
				t.Fatal(err)
			}
			d0 := vol.Stats()
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			if d := vol.Stats().Sub(d0); d.Accesses() != 0 || d.Syncs != 0 {
				t.Fatalf("the abort made %d data-volume requests and %d forces, want none", d.Accesses(), d.Syncs)
			}
			if s.List()[0] != "x" || len(s.List()) != 1 {
				t.Fatalf("objects %v after the abort, want [x]", s.List())
			}
			x, _ = s.Open("x")
			if got, _ := x.e.obj.Segments(); !slices.Equal(got, segs) {
				t.Fatalf("segments %+v after the abort, were %+v", got, segs)
			}
			if got := x.e.obj.EncodeDescriptor(); !bytes.Equal(got, desc) {
				t.Fatal("the abort left another descriptor than the one from before Begin")
			}
			if got := freePages(t, s); got != free {
				t.Fatalf("%d free pages after the abort, were %d", got, free)
			}
			if !bytes.Equal(readObject(t, s, "x"), model) {
				t.Fatal("content wrong after the abort")
			}
			if err := s.CheckNoLeaks(); err != nil {
				t.Fatal(err)
			}
			re := crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, re, "x"), model) || len(re.List()) != 1 {
				t.Fatalf("after crash and recovery: objects %v, content of x right: %v", re.List(), bytes.Equal(readObject(t, re, "x"), model))
			}
			if err := re.CheckNoLeaks(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAbortNeedsNoSpace: a transaction deletes most of an object and then
// appends until the volume is full.  Its abort allocates nothing — no bytes
// go back in, the root from before the transaction is whole — so it
// succeeds, gives every page the transaction took back to the free space,
// and releases the lock: the next transaction takes the object at once.
func TestAbortNeedsNoSpace(t *testing.T) {
	vol := newTestDevice(t, 512, 1024)
	logVol := newTestDevice(t, 512, 2048)
	s, err := Format(vol, logVol, Options{LockTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.Create("x", 0)
	committed := pat(80, 200*512)
	if err := x.AppendWithHint(committed, int64(len(committed))); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	free := freePages(t, s)
	tx, _ := s.Begin()
	if err := tx.Delete("x", 25*512, 150*512); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		err := tx.Append("x", pat(81+i, 16*512))
		if errors.Is(err, buddy.ErrNoSpace) {
			break
		}
		if err != nil || i == 1000 {
			t.Fatalf("append %d: %v, want to run out of space", i, err)
		}
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if got := x.Size(); got != int64(len(committed)) || !bytes.Equal(readObject(t, s, "x"), committed) {
		t.Fatalf("%d bytes after the abort, want the committed %d", got, len(committed))
	}
	if got := freePages(t, s); got != free {
		t.Fatalf("%d free pages after the abort, want the %d from before Begin", got, free)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
	next, _ := s.Begin()
	if _, err := next.Read("x", 0, 10); err != nil {
		t.Fatalf("the next transaction cannot take x: %v", err)
	}
	if err := next.Commit(); err != nil {
		t.Fatal(err)
	}
	re := crashReopen(t, vol, logVol)
	if !bytes.Equal(readObject(t, re, "x"), committed) {
		t.Fatal("content wrong after crash and recovery")
	}
	if err := re.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestAbortForgetsTheIndexPagesItWrote: the index pages a transaction
// shadowed into are dirty in the pool when it aborts, and go back to the
// free space.  Their frames must go with them: a later owner of the pages
// writes data there past the pool, and a flush of a stale frame would
// overwrite it.
func TestAbortForgetsTheIndexPagesItWrote(t *testing.T) {
	vol := newTestDevice(t, 512, 1024)
	logVol := newTestDevice(t, 512, 1024)
	s, err := Format(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.Create("x", 1)
	for i := 0; i < 80; i++ { // one-page segments: a root over index pages
		if err := x.AppendWithHint(pat(i, 512), 512); err != nil {
			t.Fatal(err)
		}
	}
	if u, _ := x.Usage(); u.IndexPages == 0 {
		t.Fatal("the object has no index page; the test proves nothing")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	shadowed := s.Stats().LOB.ShadowedIndexPages
	tx, _ := s.Begin()
	if err := tx.Insert("x", 20*512+100, pat(90, 300)); err != nil {
		t.Fatal(err)
	}
	if s.Stats().LOB.ShadowedIndexPages == shadowed {
		t.Fatal("the insert shadowed no index page; the test proves nothing")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// Fill the free space with data, the aborted index pages included, and
	// flush the pool over it.
	y, _ := s.Create("y", 0)
	var model []byte
	for freePages(t, s) > 16 {
		more := pat(len(model), 512)
		if err := y.AppendWithHint(more, 512); err != nil {
			t.Fatal(err)
		}
		model = append(model, more...)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readObject(t, s, "y"), model) {
		t.Fatal("a flush wrote an aborted transaction's index page over data")
	}
}

// TestDeferredReplaceOneLogForce: a transaction forces the log once, at
// commit, whatever it does after its replace: reading it back costs no
// force of its own.
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
		}, 1},
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

// TestCommitPathCounters covers the counters that make the commit path's
// savings visible: a replace right behind a read of its bytes plans on the
// read's page images, and every transactional replace waits for the commit
// force and counts as deferred.  The commit itself is no barrier: it writes no catalog page and
// leaves the space directory its append dirtied in the pool, whose device
// image moves only at the next checkpoint.
func TestCommitPathCounters(t *testing.T) {
	s, vol, _, _ := replaceStore(t, Options{})
	dirImages := func() map[disk.PageNum]string {
		out := map[disk.PageNum]string{}
		for _, sp := range s.buddy.Spaces() {
			p := sp.DirPage()
			img, err := vol.Read(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			out[p] = string(img)
		}
		return out
	}
	before := dirImages()
	st0 := s.Stats()
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
	if st.DeferredReplaces != 2 {
		t.Fatalf("%d deferred, want 2", st.DeferredReplaces)
	}
	if st.ReplaceReadsSaved != 1 {
		t.Fatalf("%d page runs taken from a kept read, want 1: the first replace follows a read of its bytes, the second an append", st.ReplaceReadsSaved)
	}
	if st.Barrier != st0.Barrier {
		t.Fatalf("the commit moved the barrier counters: %+v -> %+v", st0.Barrier, st.Barrier)
	}
	if !reflect.DeepEqual(dirImages(), before) {
		t.Fatal("the commit wrote the space directory")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(dirImages(), before) {
		t.Fatal("the checkpoint did not write the space directory")
	}
}

// TestBarrierInsideCommitKeepsItWhole runs another transaction between the
// two halves of T1's commit and then cuts the power.  T1's commit record is
// durable, so recovery must show all of T1.  Whether T2 commits or aborts,
// no barrier ran — each forces only its log record — and redo recovers T1
// from its log records, on top of whatever of T1's pages reached the disk.
func TestBarrierInsideCommitKeepsItWhole(t *testing.T) {
	for _, tc := range []struct {
		end   string
		redos int64
	}{
		{"commit", 3}, // T1's replace and append, T2's append
		{"abort", 2},  // T1's replace and append
	} {
		t.Run(tc.end, func(t *testing.T) {
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
			if err := t1.commitLog(); err != nil {
				t.Fatal(err)
			}

			t2, _ := s.Begin()
			if err := t2.Append("y", pat(55, 300)); err != nil {
				t.Fatal(err)
			}
			end := t2.Commit
			if tc.end == "abort" {
				end = t2.Abort
			}
			if err := end(); err != nil {
				t.Fatal(err)
			}

			s = crashReopen(t, vol, logVol)
			if rs := s.Stats().Recovery; rs.Redone != tc.redos {
				t.Fatalf("recovery redid %d operations, want %d", rs.Redone, tc.redos)
			}
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
		})
	}
}

// TestCheckpointInsideCommitKeepsItsRecords: a checkpoint runs between the
// two halves of a commit.  The log counts the transaction ended at its
// commit record, but the image the checkpoint captures still holds x's root
// from before it: the checkpoint keeps the log from the transaction's first
// record on (wal.Log.Oldest holds it until wal.Log.Release), and recovery
// redoes the commit.
func TestCheckpointInsideCommitKeepsItsRecords(t *testing.T) {
	s, vol, logVol, base := replaceStore(t, Options{})
	tx, _ := s.Begin()
	tail := pat(56, 700)
	if err := tx.Append("x", tail); err != nil {
		t.Fatal(err)
	}
	if err := tx.commitLog(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s = crashReopen(t, vol, logVol)
	if !bytes.Equal(readObject(t, s, "x"), append(base, tail...)) {
		t.Fatal("a checkpoint inside the commit lost it")
	}
}

// TestAbortBarrierForcesPagesALiveTxnRewrote: T1 commits a write to a page
// of x, which no commit forces; live T3 then writes that page again; T2
// aborts and the power fails.  An abort is no barrier: the catalog still
// holds x's root from before T1, so recovery undoes whatever of T3 reached
// the page and redoes T1's write, which must come back whole although a
// live transaction wrote the page last.
func TestAbortBarrierForcesPagesALiveTxnRewrote(t *testing.T) {
	for _, tc := range []struct {
		name   string
		t1, t3 func(tx *Txn) error
		change func(b []byte) []byte // T1's effect on x
	}{
		{"tail continued in place",
			func(tx *Txn) error { return tx.Append("x", pat(53, 300)) },
			func(tx *Txn) error { return tx.Append("x", pat(54, 200)) },
			func(b []byte) []byte { return append(b, pat(53, 300)...) }},
		{"replace in the same page",
			func(tx *Txn) error { return tx.Replace("x", 1000, pat(53, 100)) },
			func(tx *Txn) error {
				if err := tx.Replace("x", 1200, pat(54, 100)); err != nil {
					return err
				}
				_, err := tx.Read("x", 1200, 100) // writes it home
				return err
			},
			func(b []byte) []byte { copy(b[1000:], pat(53, 100)); return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			if err := tc.t1(t1); err != nil {
				t.Fatal(err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			t3, _ := s.Begin()
			if err := tc.t3(t3); err != nil {
				t.Fatal(err)
			}
			t2, _ := s.Begin()
			if err := t2.Append("y", pat(55, 100)); err != nil {
				t.Fatal(err)
			}
			if err := t2.Abort(); err != nil {
				t.Fatal(err)
			}
			s = crashReopen(t, vol, logVol)
			if rs := s.Stats().Recovery; rs.Redone != 1 {
				t.Fatalf("recovery redid %d operations, want 1 (T1's)", rs.Redone)
			}
			if !bytes.Equal(readObject(t, s, "x"), tc.change(append([]byte{}, base...))) {
				t.Fatal("T1's committed write lost")
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
		})
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
// transferred — and the bytes it keeps as pre-image are the device's: the
// content is right after commit, after abort, and after a crash that finds
// the transaction in flight, its replace held across a checkpoint.
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
				// Reading it back writes nothing; the soft checkpoint forces
				// the volume with the replace held, and recovery redoes
				// nothing of an uncommitted transaction.
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
// bytes returns the first one's bytes from the held pages and keeps page
// images that hold them; the second replace is planned on those.  Commit
// leaves both, abort neither, and so does a crash after a checkpoint taken
// with both held.
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

// TestKeptReadLimits: a read of more than keptReadMaxPages pages is not
// held on to; a read across three segments is kept like any other.
func TestKeptReadLimits(t *testing.T) {
	t.Run("three segments", func(t *testing.T) {
		s, vol, _, model, _ := handoffStore(t, Options{})
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
// bytes in the second one) and both its pages are pending.
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
// append left open.  The append goes on in that tail with no write and no
// read — its pages join the pending ones — and it leaves the deferred
// replace alone: one log force, and the replaced pages join the write-behind
// set at the commit.  A replace into the pending tail pages reads and writes
// nothing either: at the commit its images take their place.  So does one
// that covers the very page the append continues: the continued page stays
// held with the replace, and the replace's uncommitted bytes never reach the
// page or the set before the commit.
func TestSmallTxnContinuesTheTail(t *testing.T) {
	for _, tc := range []struct {
		name           string
		off            int64
		tail, replaced int64 // pages pending after the commit
	}{
		{"replace elsewhere", 1000, 4, 2},
		{"replace in the tail segment, another page", 6100, 4, 0},
		{"replace covering the partial last page", 6400, 4, 0},
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
			r0 := vol.Stats()
			if err := tx.Replace("x", tc.off, repl); err != nil {
				t.Fatal(err)
			}
			d0 := vol.Stats()
			if got := d0.Writes - r0.Writes; got != 0 {
				t.Errorf("the replace wrote %d times, want never", got)
			}
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
			if got := st.WAL.LeaderForces - st0.WAL.LeaderForces; got != 1 {
				t.Errorf("%d leader forces, want 1", got)
			}
			// The append reads and writes nothing.  Its 900 bytes and the 700
			// before them stay pending (4 pages).  A replace elsewhere leaves
			// its 2 pages pending; one into the tail's pages overwrites
			// theirs.
			if reads, writes := d1.Reads-d0.Reads, d1.Writes-d0.Writes; reads != 0 || writes != 0 {
				t.Errorf("the append issued %d reads and %d writes, want neither", reads, writes)
			}
			if got, replaced := st.LOB.PendingPages-st.LOB.ReplacedPending, st.LOB.ReplacedPending; got != tc.tail || replaced != tc.replaced {
				t.Errorf("%d tail pages and %d replaced pages pending after the commit, want %d and %d", got, replaced, tc.tail, tc.replaced)
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
// and the room behind it are outside every root.  The abort writes and reads
// nothing: it drops the pending images of the room's pages, keeps the
// committed ones, and reinstates the open tail, which the next append
// continues — no new segment, no request.
func TestAbortedFillLeavesNoTrace(t *testing.T) {
	s, vol, logVol, model := openTailStore(t, Options{})
	x, _ := s.Open("x")
	u0, _ := x.Usage()
	free := freePages(t, s)
	tx, _ := s.Begin()
	if err := tx.Append("x", pat(73, 900)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().LOB.PendingPages; got != 4 {
		t.Fatalf("%d pages pending, want 4: 700 committed bytes and 900 more", got)
	}
	d0 := vol.Stats()
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if d := vol.Stats().Sub(d0); d.Writes != 0 || d.Reads != 0 {
		t.Fatalf("the abort wrote %d times and read %d times, want neither", d.Writes, d.Reads)
	}
	if got := s.Stats().LOB.PendingPages; got != 2 {
		t.Fatalf("%d pages pending after the abort, want the committed 2", got)
	}
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("content wrong after abort")
	}
	if u, _ := x.Usage(); u != u0 || freePages(t, s) != free {
		t.Fatalf("the abort left %+v and %d free pages, want %+v and %d", u, freePages(t, s), u0, free)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
	more := pat(74, 100)
	d0 = vol.Stats()
	if err := x.Append(more); err != nil {
		t.Fatal(err)
	}
	model = append(model, more...)
	if d := vol.Stats().Sub(d0); d.Writes != 0 || d.Reads != 0 {
		t.Fatalf("the append after the abort wrote %d times and read %d times, want neither", d.Writes, d.Reads)
	}
	if u, _ := x.Usage(); u.SegmentCount != u0.SegmentCount || u.SegmentPages != u0.SegmentPages {
		t.Fatalf("the append after the abort made %d segments on %d pages, want the %d on %d it continues", u.SegmentCount, u.SegmentPages, u0.SegmentCount, u0.SegmentPages)
	}
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("content wrong after the append")
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

// TestCheckpointDropsTailImages: the pages open tails keep pending are
// bounded by the appends since the last checkpoint, which writes each
// object's run in one request and lets it go.  After one, every object's
// next append reads its partial page back — once — and keeps it pending
// again.
func TestCheckpointDropsTailImages(t *testing.T) {
	s, vol, _ := newStore(t, Options{})
	const n = 12
	objs := make([]*Object, n)
	for i := range objs {
		o, err := s.Create(fmt.Sprintf("o%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Append(pat(i, 700)); err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}
	appendAll := func() int64 {
		d0 := vol.Stats()
		for i, o := range objs {
			if err := o.Append(pat(100+i, 50)); err != nil {
				t.Fatal(err)
			}
		}
		d := vol.Stats().Sub(d0)
		if d.Writes != 0 {
			t.Fatalf("the appends wrote %d times, want never: their pages are pending", d.Writes)
		}
		return d.Reads
	}
	if got := appendAll(); got != 0 {
		t.Fatalf("%d reads while the runs are pending, want 0", got)
	}
	// Each run is two pages from the first of its tail segment (750 bytes);
	// the checkpoint writes each in one request of its own.
	runs := map[disk.PageNum]bool{}
	for _, o := range objs {
		segs, err := o.e.obj.Segments()
		if err != nil {
			t.Fatal(err)
		}
		runs[segs[len(segs)-1].StartPage] = true
	}
	var runWrites int
	vol.(interface{ SetTracer(func(disk.TraceEvent)) }).SetTracer(func(ev disk.TraceEvent) {
		if ev.Write && runs[ev.Start] && ev.Pages == 2 {
			runWrites++
		}
	})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	vol.(interface{ SetTracer(func(disk.TraceEvent)) }).SetTracer(nil)
	if st := s.Stats().LOB; st.PendingPages != 0 || st.PendingPagesHigh != 2*n {
		t.Fatalf("%d pages pending after the checkpoint (at most %d), want 0 (%d)", st.PendingPages, st.PendingPagesHigh, 2*n)
	}
	if runWrites != n {
		t.Fatalf("the checkpoint wrote %d of the %d pending runs as a request of their own, want all", runWrites, n)
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

// TestDeleteRecordCarriesNoBytes: a delete is shadowed, not logged — redo
// deletes by offset and length and an abort reinstates the root from before
// the transaction — so its record is a header, and a crash that finds the deleter
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
				if err := tx.Commit(); err != nil {
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

// TestReplaceRecordCarriesNoPreImage: a replace is written home only behind
// its commit record and needs no undo, so its record carries Off and Data
// and nothing more — also when its transaction reads the bytes back, or
// stays in flight across a checkpoint.  Each crash recovers what those
// records call for.
func TestReplaceRecordCarriesNoPreImage(t *testing.T) {
	repl := pat(73, 600)
	// replaces returns the replace records tx logged, every one of them
	// forced by now.
	replaces := func(t *testing.T, s *Store, tx *Txn) (out []*wal.Record) {
		t.Helper()
		err := s.log.Scan(s.last.start, func(r *wal.Record) error {
			if r.Txn == tx.id && r.Type == wal.RecReplace {
				out = append(out, r)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	bare := func(r *wal.Record) bool {
		return r.Off == 2000 && bytes.Equal(r.Data, repl) && r.N == 0
	}
	shape := func(recs []*wal.Record) (out []string) {
		for _, r := range recs {
			out = append(out, fmt.Sprintf("{Off %d, N %d, %d data bytes}", r.Off, r.N, len(r.Data)))
		}
		return out
	}

	t.Run("committed", func(t *testing.T) {
		s, vol, logVol, base := replaceStore(t, Options{})
		tx, _ := s.Begin()
		if err := tx.Replace("x", 2000, repl); err != nil {
			t.Fatal(err)
		}
		// The commit record's force succeeds; the replace's pages wait in
		// the write-behind set, so the commit asks nothing of the data volume.
		vol.FailAfter(0, errors.New("boom"))
		err := tx.Commit()
		vol.ClearFault()
		if err != nil {
			t.Fatalf("commit over a dead data volume: %v", err)
		}
		if recs := replaces(t, s, tx); len(recs) != 1 || !bare(recs[0]) {
			t.Fatalf("replace records %v, want one with Off and Data only", shape(recs))
		}
		s = crashReopen(t, vol, logVol)
		want := append([]byte{}, base...)
		copy(want[2000:], repl)
		if !bytes.Equal(readObject(t, s, "x"), want) {
			t.Fatal("the committed replace was not redone")
		}
		if s.Stats().Recovery.Redone == 0 {
			t.Fatal("recovery redid nothing")
		}
	})

	t.Run("read back", func(t *testing.T) {
		s, vol, logVol, base := replaceStore(t, Options{})
		tx, _ := s.Begin()
		if err := tx.Replace("x", 2000, repl); err != nil {
			t.Fatal(err)
		}
		if got, err := tx.Read("x", 2000, 600); err != nil || !bytes.Equal(got, repl) {
			t.Fatalf("the transaction does not read its replace back (err %v)", err)
		}
		if err := s.Checkpoint(); err != nil { // soft: tx is live, its replace held
			t.Fatal(err)
		}
		if recs := replaces(t, s, tx); len(recs) != 1 || !bare(recs[0]) {
			t.Fatalf("replace records %v, want one with Off and Data only", shape(recs))
		}
		s = crashReopen(t, vol, logVol)
		if !bytes.Equal(readObject(t, s, "x"), base) {
			t.Fatal("the in-flight replace survived the crash")
		}
	})

	t.Run("deferred", func(t *testing.T) {
		s, vol, logVol, base := replaceStore(t, Options{})
		tx, _ := s.Begin()
		if err := tx.Replace("x", 2000, repl); err != nil {
			t.Fatal(err)
		}
		// In flight, but on the log device: another commit's force.
		w, _ := s.Begin()
		if err := w.Create("y", 0); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil { // soft: tx is live
			t.Fatal(err)
		}
		if recs := replaces(t, s, tx); len(recs) != 1 || !bare(recs[0]) {
			t.Fatalf("replace records %v, want one with Off and Data only", shape(recs))
		}
		s = crashReopen(t, vol, logVol)
		if !bytes.Equal(readObject(t, s, "x"), base) {
			t.Fatal("content wrong after crash and recovery")
		}
		if err := s.CheckNoLeaks(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLogFullBehindASealedForce: every log force ends on a page boundary,
// and room is counted from there.  A record that an unpadded log would
// still have held is refused whole — ErrLogFull, nothing of the operation
// done or logged — the store stays readable, and a checkpoint gives the log
// back: the log always keeps the room for one.  Begin logs nothing, so a full
// log surfaces at a transaction's first logged operation.
func TestLogFullBehindASealedForce(t *testing.T) {
	vol := newTestDevice(t, 512, 4096)
	// Fifteen pages: the image's, four for transactions, and the ten the
	// log keeps in front of a transaction's first record — two for the end
	// record of that transaction, four for the next checkpoint's image and
	// four for a recovery's behind it (wal.Log.Reserve; each keeps room for
	// a record that lands across a page boundary, and the image's for the
	// skip record in front of the recovery's).
	logVol := newTestDevice(t, 512, 15)
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
	if s.LogTail() != 512 {
		t.Fatalf("%d bytes of log in use after the checkpoint, want its image's page", s.LogTail())
	}
	st0 := s.Stats()
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
	if s.LogTail() != 4*512 {
		t.Fatalf("%d bytes of log in use after three one-page commits, want %d", s.LogTail(), 4*512)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if s.LogTail() != 4*512 {
		t.Fatalf("Begin moved the log tail to %d: it logs nothing", s.LogTail())
	}
	hdr := 53 + extentBytes          // an append's record without its bytes: a header, and the entry of the tail it grows
	room := 5*512 - int(s.LogTail()) // what is left of the last page
	big := pat(90, room-hdr+1)       // its record is one byte longer than that
	if pad := s.Stats().WAL.PadBytes - st0.WAL.PadBytes; pad < int64(1+hdr) {
		t.Fatalf("the commits left %d bytes of padding: the transaction would not fit an unpadded log either; the test proves nothing", pad)
	}
	before := s.LogTail()
	if err := tx.Append("x", big); !errors.Is(err, wal.ErrLogFull) {
		t.Fatalf("append of a record one byte longer than the last log page has room: %v, want ErrLogFull", err)
	}
	if s.LogTail() != before {
		t.Fatalf("the refused record moved the log tail from %d to %d", before, s.LogTail())
	}
	// The transaction logged no operation: its abort has nothing to make
	// durable, forces nothing and so seals no page.
	forces := s.Stats().WAL.LeaderForces
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().WAL.LeaderForces - forces; got != 0 {
		t.Fatalf("a transaction that logged no operation forced the log %d times on abort", got)
	}
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("the refused append left a trace in the object")
	}
	// One that appends a few bytes forces its abort record, and the force
	// seals the last page: not even a record without payload fits now.
	if tx, err = s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("x", pat(91, 8)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if s.LogTail() != 5*512 {
		t.Fatalf("%d bytes of log in use after the abort's force, want %d: the last page sealed", s.LogTail(), 5*512)
	}
	// Begin logs nothing, so the full log refuses the first operation.
	if tx, err = s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("x", pat(92, 1)); !errors.Is(err, wal.ErrLogFull) {
		t.Fatalf("the first operation on the full log: %v, want ErrLogFull", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.LogTail() != 512 {
		t.Fatalf("%d bytes of log in use after a quiescent checkpoint, want its image's page", s.LogTail())
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

// TestRefusedSpliceLeavesNoTraceInACommit: a structural operation whose
// record the log refuses applies nothing, so the transaction can go on and
// commit what it did log.  The object holds exactly the logged operations,
// before a crash and after recovery, and no page the refused operation
// prepared stays allocated.  An abort would hide an operation that applied
// before it logged (the abort reinstates the roots from before the
// transaction); a commit keeps it, unlogged, in the tree.
func TestRefusedSpliceLeavesNoTraceInACommit(t *testing.T) {
	for _, op := range []string{"append", "insert"} {
		t.Run(op, func(t *testing.T) {
			vol := newTestDevice(t, 512, 4096)
			logVol := newTestDevice(t, 512, 15) // as in TestLogFullBehindASealedForce
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
			tx, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			logged := pat(93, 8)
			if err := tx.Append("x", logged); err != nil {
				t.Fatal(err)
			}
			model = append(model, logged...)
			hdr := 53 + extentBytes // an append's record without its bytes
			room := 5*512 - int(s.LogTail())
			switch op {
			case "append":
				// A record one byte longer than the last log page has room for.
				err = tx.Append("x", pat(94, room-hdr+1))
			case "insert":
				// An insert logs its segments by reference: fill the page up
				// to one byte short of an insert's record first.  The commit
				// record, a bare header, still fits.
				fill := pat(95, room-hdr-(hdr-1))
				if err := tx.Append("x", fill); err != nil {
					t.Fatal(err)
				}
				model = append(model, fill...)
				err = tx.Insert("x", 50, pat(96, 10))
			}
			if !errors.Is(err, wal.ErrLogFull) {
				t.Fatalf("%s of a record longer than the last log page has room: %v, want ErrLogFull", op, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readObject(t, s, "x"), model) {
				t.Fatalf("the refused %s left a trace in the committed object", op)
			}
			if err := s.CheckNoLeaks(); err != nil {
				t.Fatal(err)
			}
			s = crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, s, "x"), model) {
				t.Fatal("content wrong after crash and recovery")
			}
			if err := s.CheckNoLeaks(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBoundedLogUnderOverlappingTransactions: two clients whose
// transactions overlap, so that every checkpoint finds one of them live,
// write ten times the log's capacity in records.  Each checkpoint truncates
// behind the image and the live transaction's first record, so the log
// never fills, and what it keeps stays within a constant of those two: four
// times, since every force pads its last page.
func TestBoundedLogUnderOverlappingTransactions(t *testing.T) {
	vol := newTestDevice(t, 512, 4096)
	logVol := newTestDevice(t, 512, 64)
	capacity := int64(logVol.NumPages()) * int64(logVol.PageSize())
	s, err := Format(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := [2]string{"a", "b"}
	model := map[string][]byte{}
	for _, n := range names {
		o, err := s.Create(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		model[n] = pat(len(n), 2000)
		if err := o.Append(model[n]); err != nil {
			t.Fatal(err)
		}
	}
	const every = 3 // commits between checkpoints
	var live [2]*Txn
	var staged [2][]byte
	begin := func(k, i int) {
		t.Helper()
		tx, err := s.Begin()
		if err != nil {
			t.Fatalf("round %d: begin: %v", i, err)
		}
		data := pat(i, 200+i%300)
		if err := tx.Append(names[k], data); err != nil {
			t.Fatalf("round %d: append: %v", i, err)
		}
		live[k], staged[k] = tx, data
	}
	begin(0, 0)
	checkpoints := 0
	var over error // the first checkpoint that kept too much, reported once the log has gone round
	for i := 1; s.Stats().WAL.FlushedBytes < 10*capacity; i++ {
		k := i % 2
		begin(k, i) // while the other client's transaction is live
		if err := live[1-k].Commit(); err != nil {
			t.Fatalf("round %d: commit: %v", i, err)
		}
		model[names[1-k]] = append(model[names[1-k]], staged[1-k]...)
		if i%every != 0 {
			continue
		}
		image := s.Stats().Barrier.ImageBytes
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("round %d: checkpoint with transaction %d live: %v", i, live[k].ID(), err)
		}
		checkpoints++
		image = s.Stats().Barrier.ImageBytes - image + 53
		kept := int64(53 + 53 + len(staged[k])) // the live transaction's begin and append
		if used := s.LogTail(); used > 4*(image+kept) && over == nil {
			over = fmt.Errorf("round %d: %d bytes of log in use, want at most 4 × (%d bytes of image + %d of the live transaction's records)", i, used, image, kept)
		}
	}
	if over != nil {
		t.Fatal(over)
	}
	if err := live[0].Commit(); err != nil {
		t.Fatal(err)
	}
	model[names[0]] = append(model[names[0]], staged[0]...)
	if checkpoints < 20 {
		t.Fatalf("only %d checkpoints", checkpoints)
	}
	expectObjects(t, crashReopen(t, vol, logVol), model)
}

// TestTransactionsCountIntoTheStoresLOBStats: a transaction's manager counts
// into the store's large-object counters, so a committed transactional
// insert shows in Store.Stats().LOB as a non-transactional one does.
func TestTransactionsCountIntoTheStoresLOBStats(t *testing.T) {
	s, _, _ := newStore(t, Options{Threshold: 1})
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Append(pat(1, 8<<10)); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().LOB
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("x", 1000, pat(2, 700)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats().LOB
	if after.SegmentsAllocated == before.SegmentsAllocated {
		t.Errorf("a committed insert left LOB.SegmentsAllocated at %d", after.SegmentsAllocated)
	}
	if after.Inserts != before.Inserts+1 {
		t.Errorf("LOB.Inserts %d -> %d across one committed insert", before.Inserts, after.Inserts)
	}
}

// TestSetThresholdIsACommitPoint: an Object's SetThreshold is a commit
// point like its other writes, so a later transaction that aborts goes back
// to the new threshold, and a checkpoint persists it across a crash.
func TestSetThresholdIsACommitPoint(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Append(pat(1, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := o.SetThreshold(3); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	if err := tx.Append("x", pat(2, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := o.Threshold(); got != 3 {
		t.Fatalf("threshold %d after the abort, want 3", got)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re := crashReopen(t, vol, logVol)
	x, err := re.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Threshold(); got != 3 {
		t.Fatalf("threshold %d after a checkpoint and a crash, want 3", got)
	}
}

// TestTxnSizeAndTruncateBesideAnObjectWriter: a transaction reads an
// object's size under a shared lock on it and the object's latch, and its
// Truncate cuts from a size read under the exclusive lock.  A
// non-transactional writer appends to the object all the while.  Under
// -race a size read without the latch shows as a report; a Truncate that
// read the size before it held the object leaves, when an append lands in
// between, the appended bytes behind the cut.
func TestTxnSizeAndTruncateBesideAnObjectWriter(t *testing.T) {
	s, _, _ := newStore(t, Options{LockTimeout: 5 * time.Second})
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Append(pat(1, 4000)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := o.Append(pat(2, 100)); err != nil && !errors.Is(err, ErrInUse) {
				done <- err
				return
			}
		}
	}()
	for i := 0; i < 500 && !t.Failed(); i++ {
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Size("x"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Truncate("x", 1000); err != nil {
			t.Fatal(err)
		}
		if n, err := tx.Size("x"); err != nil || n != 1000 {
			t.Errorf("round %d: %d bytes (%v) after the truncate to 1000", i, n, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}
