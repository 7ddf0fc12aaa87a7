package eos

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/txn"
	"github.com/eosdb/eos/internal/wal"
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
	// A chain of committed updates that recovery must redo.
	for i := 0; i < 5; i++ {
		tx, _ := s.Begin()
		data := pat(71+i, 1200)
		off := int64(i * 2500)
		if err := tx.Insert("x", off, data); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
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
// between its data force and the truncation of the log, where the data
// volume already holds the pages the new image names while the old master
// copy, and the old log behind it, commit records included, is still what
// recovery loads (truncating the log is not I/O and cannot fail; the
// master write and its force that precede it can).  Recovery then replays
// those commits over pages that may hold their effects; the LSN each
// object root carries must make that replay a no-op rather than a double
// apply.
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
		// One committed append the old log still describes.
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
		images := s.Stats().Barrier.ImageBytes
		vol.FailAfter(n, boom)
		err = s.Checkpoint()
		vol.ClearFault()
		if err == nil {
			break // the checkpoint issues fewer than n requests: every one tried
		}
		if s.Stats().Barrier.ImageBytes > images {
			inWindow++ // the image is logged: the data force is behind it
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
		t.Fatal("no fault landed between the data force and the log truncation")
	}
}

// failingDevice fails every write and force from its n-th on while armed
// (n >= 0).  A volume's FailAfter fails reads and writes, never a force.
type failingDevice struct {
	disk.Device
	n int64
}

var errFailing = errors.New("injected write or force failure")

func (d *failingDevice) fails() bool {
	if d.n < 0 {
		return false
	}
	d.n--
	return d.n < 0
}

func (d *failingDevice) WritePages(start disk.PageNum, n int, buf []byte) error {
	if d.fails() {
		return errFailing
	}
	return d.Device.WritePages(start, n, buf)
}

func (d *failingDevice) WriteRun(start disk.PageNum, pages [][]byte) error {
	if d.fails() {
		return errFailing
	}
	return d.Device.WriteRun(start, pages)
}

func (d *failingDevice) Force(start disk.PageNum, n int) error {
	if d.fails() {
		return errFailing
	}
	return d.Device.Force(start, n)
}

func (d *failingDevice) ForceAll() error {
	if d.fails() {
		return errFailing
	}
	return d.Device.ForceAll()
}

// TestCheckpointKeepsTheLogUntilItsMasterIsDurable fails a checkpoint at
// every write and force it issues to the data volume, the master copy's
// write and its force among them, then goes on committing until the log is
// full, and crashes.  Whatever failed, the master copy recovery loads names
// an image and records the checkpoint must not have let go of: a truncation
// ahead of the master copy's force would let those commits overwrite them.
func TestCheckpointKeepsTheLogUntilItsMasterIsDurable(t *testing.T) {
	for n := int64(0); ; n++ {
		vol := &failingDevice{Device: newTestDevice(t, 512, 4096), n: -1}
		logVol := newTestDevice(t, 512, 24)
		s, err := Format(vol, logVol, Options{})
		if err != nil {
			t.Fatal(err)
		}
		o, _ := s.Create("x", 0)
		model := pat(70, 3000)
		if err := o.Append(model); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		commit := func(i int) error {
			tx, err := s.Begin()
			if err != nil {
				return err
			}
			more := pat(i, 300)
			if err := tx.Append("x", more); err != nil {
				_ = tx.Abort()
				return err
			}
			if err := tx.Commit(); err != nil {
				return err
			}
			model = append(model, more...)
			return nil
		}
		// Commits until the log is full, so that the older image lies as
		// far behind the checkpoint's as it can; and again behind the failed
		// checkpoint, so that they would reach it.
		fill := func() {
			t.Helper()
			for i := 0; ; i++ {
				if err := commit(i); errors.Is(err, wal.ErrLogFull) {
					return
				} else if err != nil {
					t.Fatalf("fault at request %d, commit %d: %v", n, i, err)
				}
				if i > 1000 {
					t.Fatalf("fault at request %d: the log never filled", n)
				}
			}
		}
		fill()
		vol.n = n
		err = s.Checkpoint()
		vol.n = -1
		if err == nil {
			if n == 0 {
				t.Fatal("the checkpoint issued no data-volume request")
			}
			return // every request of the checkpoint has failed once
		}
		fill()
		s = crashReopen(t, vol, logVol)
		if !bytes.Equal(readObject(t, s, "x"), model) {
			t.Fatalf("fault at request %d: recovered %d bytes, want the %d committed", n, len(readObject(t, s, "x")), len(model))
		}
	}
}

// TestSameEpochRecordBehindTornHeadNeverSurfaces: the log is never erased,
// so a crash that tears the first page of a force but lets its later pages
// through leaves intact records of the CURRENT lap past the recovered
// tail.  Here the last of them is a commit, and it begins its page: exactly
// where a force would.  The next incarnation numbers its transactions from
// the same id again; once its log has grown up to the leftover commit —
// one flush, whose records end on that page boundary or short of it,
// followed by padding the scan steps over — the commit must not be read as
// theirs.  It is not, because recovery moves the log onto a new lap: there
// the leftover's LSN is wrong.  The scenario runs at the start of the log
// volume, and with the torn force going round its end.
func TestSameEpochRecordBehindTornHeadNeverSurfaces(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		for _, tc := range []struct {
			name  string
			short int // bytes the second incarnation's flush ends before the leftover's page
		}{
			{"the next flush fills the page in front of it", 0},
			{"the next flush ends in padding in front of it", 100},
		} {
			name := tc.name
			if wrap {
				name = "across the wrap, " + name
			}
			t.Run(name, func(t *testing.T) {
				vol := newTestDevice(t, 512, 4096)
				logVol := newTestDevice(t, 512, 32)
				s, err := Format(vol, logVol, Options{})
				if err != nil {
					t.Fatal(err)
				}
				o, _ := s.Create("x", 16) // room for both appends in its open tail: they log their bytes
				base := pat(72, 3000)
				if err := o.Append(base); err != nil {
					t.Fatal(err)
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				size := uint64(32 * 512) // the log volume's: a lap
				// Across the wrap, the torn force begins on the volume's last
				// page: each checkpoint logs a one-page image.
				for wrap && s.log.Tail()%size != size-512 {
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				// One force of four pages: a first append fills the first, a
				// second append the next two, and the commit begins the
				// fourth.  Each append stays in the open tail, so its record is
				// a header, one extent and its bytes.  Records never straddle
				// the volume's end, and these end on page boundaries, so the
				// layout is the same across it.
				tx, _ := s.Begin()
				for _, n := range []int{512 - 53 - extentBytes, 1024 - 53 - extentBytes} {
					if err := tx.Append("x", pat(73, n)); err != nil {
						t.Fatal(err)
					}
				}
				lost, forces := s.log.Tail()-3*512, s.Stats().WAL.LeaderForces
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				leftover := lost + 3*512
				if forces = s.Stats().WAL.LeaderForces - forces; s.log.Tail() != leftover+512 || forces != 1 {
					t.Fatalf("log tail at %d after %d forces, want one four-page flush ending at %d", s.log.Tail(), forces, leftover+512)
				}
				// The crash state of that commit's flush in which its later pages
				// reached the device and its first did not.
				if err := logVol.WritePages(disk.PageNum(lost%size/512), 1, make([]byte, 512)); err != nil {
					t.Fatal(err)
				}
				if err := logVol.ForceAll(); err != nil {
					t.Fatal(err)
				}
				n := 0
				if err := wal.New(logVol, 0).Scan(leftover+1, func(r *wal.Record) error {
					if r.Type == wal.RecCommit && r.Txn == tx.ID() {
						n++
					}
					return nil
				}); err != nil || n != 1 {
					t.Fatalf("the leftover commit is not intact (%d, err %v); the test proves nothing", n, err)
				}
				s = crashReopen(t, vol, logVol)
				if !bytes.Equal(readObject(t, s, "x"), base) {
					t.Fatal("a transaction whose log head was torn is visible")
				}

				// Same shape again, never committed, numbered as the first: a
				// log force pushes its record to the device, right up to the
				// leftover commit.
				dist := int((leftover%size + size - s.log.Tail()%size) % size)
				tx, _ = s.Begin()
				if tx.ID() != 1 || dist > 1024 {
					t.Fatalf("txn %d, %d bytes to the leftover: not the shape the test needs", tx.ID(), dist)
				}
				if err := tx.Append("x", pat(74, dist-tc.short-53-extentBytes)); err != nil {
					t.Fatal(err)
				}
				if err := s.log.Force(); err != nil {
					t.Fatal(err)
				}
				if s.log.Tail()%size != leftover%size {
					t.Fatalf("log tail at offset %d after the force, want the leftover's page boundary %d", s.log.Tail()%size, leftover%size)
				}
				s = crashReopen(t, vol, logVol)
				if !bytes.Equal(readObject(t, s, "x"), base) {
					t.Fatal("an uncommitted append was redone: recovery took the previous incarnation's commit record for its own")
				}
				if err := s.Check(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestAbortRecoversTheCommittedStateAtEveryFaultDepth crashes Abort at
// every data-volume and every log-volume fault depth, and after an abort
// that succeeded.  The aborted replace is held, but an insert has copied its
// bytes into fresh pages, which a soft checkpoint has made durable first.
// An abort asks the data volume for nothing — so there the first depth
// already sees it succeed — and the log volume for its record's force.
// Whether the crash keeps the record or not, recovery must come back with
// the committed bytes: no byte of the transaction is on a page the durable
// roots name.
func TestAbortRecoversTheCommittedStateAtEveryFaultDepth(t *testing.T) {
	for _, faulty := range []string{"data", "log"} {
		t.Run(faulty, func(t *testing.T) {
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

				// In-flight replace, read back, and an insert in front of it
				// that copies its bytes into fresh pages; the soft checkpoint
				// (the transaction is live) forces them.
				tx, _ := s.Begin()
				if err := tx.Replace("x", 100, pat(99, 700)); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Read("x", 100, 700); err != nil {
					t.Fatal(err)
				}
				if err := tx.Insert("x", 50, pat(98, 300)); err != nil {
					t.Fatal(err)
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}

				dev := vol
				if faulty == "log" {
					dev = logVol
				}
				dev.FailAfter(depth, errors.New("boom"))
				aerr := tx.Abort()
				dev.ClearFault()

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
				if !bytes.Equal(readObject(t, s2, "x"), committed) {
					t.Fatalf("depth %d (abort: %v): aborted transaction's replace leaked into the recovered state", depth, aerr)
				}
				if err := s2.Check(); err != nil {
					t.Fatalf("depth %d: %v", depth, err)
				}
				if aerr == nil {
					// The fault budget outlasted the whole abort; every crash
					// depth inside it has been covered.
					if (depth == 0) != (faulty == "data") {
						t.Fatalf("abort made %d %s-volume requests, want none of the data volume and some of the log", depth, faulty)
					}
					return
				}
			}
		})
	}
}

// TestCrashBetweenCommitForceAndHomeWriteIsRedone cuts the power after a
// commit's log force and before its deferred replace is written home: the
// commit record is durable, the data volume holds none of the new bytes —
// the commit asks nothing of it, its pages wait in the write-behind set —
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
	// The log volume stays healthy, so the commit force succeeds, and the
	// commit needs nothing more.
	vol.FailAfter(0, errors.New("boom"))
	err := tx.Commit()
	vol.ClearFault()
	if err != nil {
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
// second hand-over is followed by a checkpoint, a soft one that keeps the
// log: a transaction live since before the first hand-over holds it.  The
// durable catalog then holds
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
	if _, err := s.Begin(); err != nil { // live, so the log stays
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 2; i++ {
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
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re := crashReopen(t, vol, logVol)
	if rs := re.Stats().Recovery; rs.Redone != 0 {
		t.Fatalf("recovery redid %d operations, want none: the image holds every commit", rs.Redone)
	}
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

// failedAbortStore returns a checkpointed store holding "x" (6000 bytes)
// and "y" (3000 bytes), a transaction on x — replace, append — committed
// right after it, and behind that an aborted append to y whose abort
// record's force failed.  want holds the committed contents.
func failedAbortStore(t *testing.T) (s *Store, vol, logVol disk.Device, want map[string][]byte) {
	t.Helper()
	s, vol, logVol, base := replaceStore(t, Options{})
	y, err := s.Create("y", 0)
	if err != nil {
		t.Fatal(err)
	}
	want = map[string][]byte{"x": base, "y": pat(61, 3000)}
	if err := y.Append(want["y"]); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	repl, more := pat(62, 300), pat(63, 900)
	if err := tx.Replace("x", 1000, repl); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("x", more); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want["x"] = append(append([]byte{}, base...), more...)
	copy(want["x"][1000:], repl)
	abort, _ := s.Begin()
	if err := abort.Append("y", pat(69, 500)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	logVol.FailAfter(0, boom)
	err = abort.Abort()
	logVol.ClearFault()
	if !errors.Is(err, boom) {
		t.Fatalf("abort over a failing log volume: %v", err)
	}
	return s, vol, logVol, want
}

// TestFailedAbortLeavesTheCommitBeforeItToRedo cuts the power after an
// abort whose log force failed.  The abort wrote nothing else: recovery
// loads the older roots and redoes the commit from its log records.
func TestFailedAbortLeavesTheCommitBeforeItToRedo(t *testing.T) {
	_, vol, logVol, want := failedAbortStore(t)
	s := crashReopen(t, vol, logVol)
	expectObjects(t, s, want)
	if rs := s.Stats().Recovery; rs.Redone != 2 {
		t.Fatalf("recovery redid %d operations, want 2 (the replace and the append)", rs.Redone)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitAfterAFailedAbortIsRedone: the next commit's force carries the
// failed abort's record, and no checkpoint follows: recovery redoes both
// commits — x's replace and append, y's append — and none of the abort.
func TestCommitAfterAFailedAbortIsRedone(t *testing.T) {
	s, vol, logVol, want := failedAbortStore(t)
	tx, _ := s.Begin()
	more := pat(64, 400)
	if err := tx.Append("y", more); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want["y"] = append(want["y"], more...)
	s = crashReopen(t, vol, logVol)
	expectObjects(t, s, want)
	if rs := s.Stats().Recovery; rs.Redone != 3 {
		t.Fatalf("recovery redid %d operations, want 3", rs.Redone)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestSoftCheckpointHidesOlderCommitsFromRedo: a non-transactional append
// follows a commit on the same object, and a soft checkpoint — another
// transaction has logged since before the commit, so the log keeps the
// commit's records — logs an image with the append in it.  The commit's
// records are still in the log, and its root LSN in the image must keep
// redo from replaying them over the append.
func TestSoftCheckpointHidesOlderCommitsFromRedo(t *testing.T) {
	s, vol, logVol, base := replaceStore(t, Options{})
	live, _ := s.Begin()
	if err := live.Create("y", 0); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	first := s.log.Tail() + 1 // no record of tx lies in front of it
	repl, more := pat(62, 300), pat(63, 900)
	if err := tx.Replace("x", 1000, repl); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("x", more); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, base...), more...)
	copy(want[1000:], repl)
	x, _ := s.Open("x")
	more = pat(65, 700)
	if err := x.Append(more); err != nil {
		t.Fatal(err)
	}
	want = append(want, more...)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m, err := readMaster(vol); err != nil || m.start > first {
		t.Fatalf("recovery starts at LSN %d (err %v), behind the commit's first record %d", m.start, err, first)
	}
	s = crashReopen(t, vol, logVol)
	expectObjects(t, s, map[string][]byte{"x": want})
	if rs := s.Stats().Recovery; rs.Redone != 0 {
		t.Fatalf("recovery redid %d operations older than the image", rs.Redone)
	}
}

// TestQuarantineWaitsForACheckpoint: a committed Delete frees a segment,
// and until a checkpoint's master copy naming the new root is durable the
// durable catalog still names it — so nothing may let it out of the
// reclamation queue before that.  Neither a commit nor an abort is a
// barrier; the next checkpoint releases the segment.
func TestQuarantineWaitsForACheckpoint(t *testing.T) {
	s, _, _, _, _ := handoffStore(t, Options{})
	reachable := func() map[disk.PageNum]bool {
		s.mu.Lock()
		e := s.catalog["m"]
		s.mu.Unlock()
		runs, err := e.obj.ReachablePages()
		if err != nil {
			t.Fatal(err)
		}
		out := map[disk.PageNum]bool{}
		for _, r := range runs {
			for i := 0; i < r.Pages; i++ {
				out[r.Start+disk.PageNum(i)] = true
			}
		}
		return out
	}
	// quarantined: p is in a run of the queue that no reader holds, and
	// that no checkpoint completed so far may release.
	quarantined := func(p disk.PageNum) bool {
		in := func(runs []txn.Run) bool {
			return slices.ContainsFunc(runs, func(r txn.Run) bool { return p >= r.Start && p < r.Start+disk.PageNum(r.Pages) })
		}
		if in(s.epochs.Releasable(s.barrierDurable.Load())) {
			t.Fatalf("freed page %d is releasable before a checkpoint", p)
		}
		return in(s.epochs.Releasable(math.MaxUint64))
	}
	before := reachable()
	tx, _ := s.Begin()
	if err := tx.Delete("m", 5000, 5000); err != nil { // the middle segment, whole
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := reachable()
	var freed []disk.PageNum
	for p := range before {
		if !after[p] {
			freed = append(freed, p)
		}
	}
	if len(freed) == 0 {
		t.Fatal("the delete freed no page")
	}
	check := func(when string, want bool) {
		t.Helper()
		for _, p := range freed {
			if quarantined(p) != want {
				t.Fatalf("%s: freed page %d quarantined = %v, want %v", when, p, !want, want)
			}
		}
	}
	check("after the commit", true)

	abort, _ := s.Begin()
	if err := abort.Append("other", pat(67, 600)); err != nil {
		t.Fatal(err)
	}
	if err := abort.Abort(); err != nil {
		t.Fatal(err)
	}
	check("after an abort", true)
	next, _ := s.Begin()
	if err := next.Append("other", pat(68, 200)); err != nil {
		t.Fatal(err)
	}
	if err := next.Commit(); err != nil {
		t.Fatal(err)
	}
	check("after the next commit", true)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("after a checkpoint", false)
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}
