package eos

import (
	"bytes"
	"errors"
	"testing"
)

// TestRecoverysSurviveRepeatedCrashes re-crashes the store in the middle
// of recovery itself (via fault injection) and verifies that a later
// clean recovery still reconstructs the committed state — recovery must
// be restartable from any prefix of its own writes.
func TestRecoverySurvivesRepeatedCrashes(t *testing.T) {
	vol := newTestDevice(t, 512, 8192)
	logVol := newTestDevice(t, 512, 4096)
	s, err := Format(vol, logVol, Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := s.Create("x", 0)
	base := pat(70, 20000)
	if err := o.Append(base); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	model := append([]byte{}, base...)
	// A chain of fast-committed updates that recovery must redo.
	for i := 0; i < 5; i++ {
		tx, _ := s.Begin()
		data := pat(71+i, 1200)
		off := int64(i * 2500)
		if err := tx.Insert("x", off, data); err != nil {
			t.Fatal(err)
		}
		if err := tx.CommitNoForce(); err != nil {
			t.Fatal(err)
		}
		model = append(model[:off:off], append(append([]byte{}, data...), model[off:]...)...)
	}
	// One loser in flight.
	loser, _ := s.Begin()
	if err := loser.Replace("x", 100, pat(99, 700)); err != nil {
		t.Fatal(err)
	}

	vol.Crash()
	logVol.Crash()

	boom := errors.New("mid-recovery crash")
	// Crash recovery at increasing depths; each failed attempt is
	// followed by a power failure that discards its partial writes.
	for _, after := range []int64{0, 1, 3, 7, 15, 40, 100} {
		vol.FailAfter(after, boom)
		_, err := Open(vol, logVol, Options{Threshold: 4})
		vol.ClearFault()
		if err == nil {
			// Recovery finished before the fault budget ran out —
			// verify and stop early.
			break
		}
		vol.Crash()
		logVol.Crash()
	}
	s2, err := Open(vol, logVol, Options{Threshold: 4})
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	o2, err := s2.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	got, err := o2.Read(0, o2.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Error("committed state lost across repeated mid-recovery crashes")
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s2.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCrashBetweenDataForceAndLogReset crashes a checkpoint at
// every request it issues to the data volume — in particular in the window
// between the catalog barrier and the header write that moves the LSN
// epoch base, where the durable catalog already reflects the checkpoint
// while the old log, commit records included, is still what recovery
// replays (truncating the log is not I/O and cannot fail; the header write
// that precedes it can).  Recovery then replays those commits a second
// time; the LSN each object root carries must make that replay a no-op
// rather than a double apply.
func TestCheckpointCrashBetweenDataForceAndLogReset(t *testing.T) {
	boom := errors.New("boom")
	inWindow := 0
	for n := int64(0); ; n++ {
		vol := newTestDevice(t, 512, 4096)
		logVol := newTestDevice(t, 512, 1024)
		s, err := Format(vol, logVol, Options{Threshold: 4})
		if err != nil {
			t.Fatal(err)
		}
		o, _ := s.Create("x", 0)
		base := pat(70, 5000)
		if err := o.Append(base); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// One committed (forced) append the old log still describes.
		tx, _ := s.Begin()
		extra := pat(71, 1000)
		if err := tx.Append("x", extra); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		model := append(append([]byte{}, base...), extra...)

		// Checkpoint, failing the data volume at its n-th request.
		durable := s.barrierDurable.Load()
		vol.FailAfter(n, boom)
		err = s.Checkpoint()
		vol.ClearFault()
		if err == nil {
			break // the checkpoint issues fewer than n requests: every one tried
		}
		if s.barrierDurable.Load() > durable && s.LogTail() > 0 {
			inWindow++
		}

		if err := vol.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := logVol.Crash(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(vol, logVol, Options{Threshold: 4})
		if err != nil {
			t.Fatalf("fault at request %d: recovery: %v", n, err)
		}
		o2, err := s2.Open("x")
		if err != nil {
			t.Fatal(err)
		}
		got, err := o2.Read(0, o2.Size())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("fault at request %d: recovered %d bytes, want %d (committed append redone twice?)", n, len(got), len(model))
		}
		if err := s2.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if inWindow == 0 {
		t.Fatal("no fault landed between the catalog barrier and the log truncation")
	}
}

// TestSameEpochRecordBehindTornHeadNeverSurfaces: the log is never erased,
// so a crash that tears the first page of an epoch's first flush but lets
// a later page through leaves an intact record of the CURRENT epoch past
// the recovered (empty) tail.  Here that record is a commit, and it begins
// its page: exactly where a force would.  The next incarnation numbers its
// transactions from 1 again; once its log has grown up to the leftover
// commit — one flush, whose records end on that page boundary or short of
// it, followed by padding the scan steps over — the commit must not be read
// as theirs.  It is not, because recovery always ends the epoch it scanned:
// under the new base the leftover's LSN is wrong.
func TestSameEpochRecordBehindTornHeadNeverSurfaces(t *testing.T) {
	for _, tc := range []struct {
		name  string
		short int // bytes the second incarnation's flush ends before the leftover's page
	}{
		{"the next flush fills the page in front of it", 0},
		{"the next flush ends in padding in front of it", 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vol := newTestDevice(t, 512, 4096)
			logVol := newTestDevice(t, 512, 1024)
			s, err := Format(vol, logVol, Options{})
			if err != nil {
				t.Fatal(err)
			}
			o, _ := s.Create("x", 0)
			base := pat(72, 3000)
			if err := o.Append(base); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// beginAndAppend's two records end short bytes before the end of
			// log page 0: with short = 0 the next record of the same flush —
			// the commit — starts page 1.
			beginAndAppend := func(s *Store, short int) *Txn {
				t.Helper()
				tx, err := s.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Append("x", pat(73, 512-short-int(s.LogTail())*2)); err != nil {
					t.Fatal(err)
				}
				if s.LogTail() != int64(512-short) {
					t.Fatalf("log tail at %d after begin + append, want %d", s.LogTail(), 512-short)
				}
				return tx
			}
			tx := beginAndAppend(s, 0)
			if err := tx.CommitNoForce(); err != nil {
				t.Fatal(err)
			}
			if s.LogTail() != 2*512 || s.Stats().WAL.LeaderForces != 1 {
				t.Fatalf("log tail at %d after %d forces, want one two-page flush", s.LogTail(), s.Stats().WAL.LeaderForces)
			}
			// The crash state of that commit's flush in which page 1 reached the
			// device and page 0 did not.
			if err := logVol.WritePages(0, 1, make([]byte, 512)); err != nil {
				t.Fatal(err)
			}
			if err := logVol.ForceAll(); err != nil {
				t.Fatal(err)
			}
			s = crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, s, "x"), base) {
				t.Fatal("a transaction whose log head was torn is visible")
			}

			// Same shape again, never committed; a soft checkpoint pushes its two
			// records to the device: one page, right up to the leftover commit.
			tx = beginAndAppend(s, tc.short)
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if s.LogTail() != 512 {
				t.Fatalf("log tail at %d after the soft checkpoint, want the leftover's page boundary", s.LogTail())
			}
			s = crashReopen(t, vol, logVol)
			if !bytes.Equal(readObject(t, s, "x"), base) {
				t.Fatal("an uncommitted append was redone: recovery took the previous incarnation's commit record for its own")
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
			_ = tx
		})
	}
}

// TestAbortRecordWrittenAfterCompensations pins the ordering inside
// Abort: the abort record may reach the log only AFTER the compensating
// writes are durably forced.  Recovery trusts an abort record as proof
// the rollback is fully on disk and skips the undo pass for that
// transaction — so if the record were forced first and the crash landed
// between record and compensation, the loser's in-place replace would
// leak into the recovered state (found by the crash-state sweep).
//
// The test makes the uncommitted post-image durable (modeling the drive
// draining its cache), then crashes Abort at every possible data-volume
// fault depth.  With the record-first ordering, depths that land after
// the logical undo but before the compensation force leave a durable
// abort record alongside a durable post-image — recovery then skips the
// undo pass and the aborted replace survives.
func TestAbortRecordWrittenAfterCompensations(t *testing.T) {
	for depth := int64(0); ; depth++ {
		vol := newTestDevice(t, 512, 4096)
		logVol := newTestDevice(t, 512, 1024)
		s, err := Format(vol, logVol, Options{Threshold: 4})
		if err != nil {
			t.Fatal(err)
		}
		o, _ := s.Create("x", 0)
		committed := pat(70, 5000)
		if err := o.Append(committed); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}

		// In-flight replace.  The read-back settles it: the pre-image
		// record is forced and the post-image written in place, so the
		// abort below has something on the device to compensate.
		tx, _ := s.Begin()
		if err := tx.Replace("x", 100, pat(99, 700)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Read("x", 100, 700); err != nil {
			t.Fatal(err)
		}
		// A checkpoint flushes the loser's in-place page to the device
		// without forcing it (live-transaction pages are excluded from
		// the barrier); a direct ForceAll then models the drive draining
		// its cache on its own, making the uncommitted post-image
		// durable.
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := vol.ForceAll(); err != nil {
			t.Fatal(err)
		}

		boom := errors.New("boom")
		vol.FailAfter(depth, boom)
		aerr := tx.Abort()
		vol.ClearFault()
		if aerr == nil {
			// The fault budget outlasted the whole abort; every crash
			// depth inside it has been covered.
			if depth == 0 {
				t.Fatal("abort performed no data-volume I/O; fault depths never bit")
			}
			return
		}

		if err := vol.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := logVol.Crash(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(vol, logVol, Options{Threshold: 4})
		if err != nil {
			t.Fatalf("depth %d: recovery: %v", depth, err)
		}
		o2, err := s2.Open("x")
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		got, err := o2.Read(0, o2.Size())
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if !bytes.Equal(got, committed) {
			t.Fatalf("depth %d: aborted transaction's replace leaked into the recovered state", depth)
		}
		if err := s2.Check(); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
	}
}

// TestCrashBetweenCommitForceAndHomeWriteIsRedone cuts the power after a
// commit's log force and before its deferred replace is written home: the
// commit record is durable, the data volume holds none of the new bytes,
// and redo must put them there.
func TestCrashBetweenCommitForceAndHomeWriteIsRedone(t *testing.T) {
	s, vol, logVol, base := replaceStore(t, Options{})
	tx, _ := s.Begin()
	repl, tail := pat(56, 1500), pat(57, 400)
	if err := tx.Replace("x", 2000, repl); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("x", tail); err != nil {
		t.Fatal(err)
	}
	// The log volume stays healthy, so the commit force succeeds; the
	// first data-volume request after it is the home write.
	boom := errors.New("boom")
	vol.FailAfter(0, boom)
	err := tx.Commit()
	vol.ClearFault()
	if !errors.Is(err, boom) {
		t.Fatalf("commit over a dead data volume: %v", err)
	}
	s = crashReopen(t, vol, logVol)
	want := append(append([]byte{}, base...), tail...)
	copy(want[2000:], repl)
	if !bytes.Equal(readObject(t, s, "x"), want) {
		t.Fatal("committed replace + append not redone")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestRedoOfACreateDoesNotTakeTheNameBack: a name passes from one object to
// the next — destroy and create in one transaction — twice, and only the
// second hand-over is followed by a barrier.  The durable catalog then holds
// the third object while the log still holds the second one's whole life.
// Redo must leave that life alone: re-creating the second object would take
// the name from the third, and redoing its destroy would then leave the name
// to nobody (found by the crash sweep once its workload re-created names
// often enough).
func TestRedoOfACreateDoesNotTakeTheNameBack(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Append(pat(90, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i, commit := range []func(*Txn) error{(*Txn).CommitNoForce, (*Txn).Commit} {
		tx, _ := s.Begin()
		if err := tx.Destroy("x"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Create("x", 0); err != nil {
			t.Fatal(err)
		}
		want = pat(91+i, 700+i)
		if err := tx.Append("x", want); err != nil {
			t.Fatal(err)
		}
		if err := commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	re := crashReopen(t, vol, logVol)
	if got := re.List(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("recovered objects %v, want [x]", got)
	}
	if !bytes.Equal(readObject(t, re, "x"), want) {
		t.Fatal("recovered x is not the last one created")
	}
	if err := re.Check(); err != nil {
		t.Fatal(err)
	}
	if err := re.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}
