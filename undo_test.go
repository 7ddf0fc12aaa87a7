package eos

import (
	"bytes"
	"testing"
)

// TestLoserReplaceUndoneAfterCrash exercises the steal hazard: an
// uncommitted transaction's in-place replace reaches the disk because a
// soft checkpoint (the loser is live, so the log stays) forces the whole
// volume; after a crash, recovery must physically restore the pre-image
// from the log.
func TestLoserReplaceUndoneAfterCrash(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	a, _ := s.Create("victim", 0)
	base := pat(60, 8000)
	if err := a.Append(base); err != nil {
		t.Fatal(err)
	}
	b, _ := s.Create("other", 0)
	if err := b.Append(pat(61, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Loser: replaces in place — the read-back makes it write home
	// instead of waiting for a commit — and never commits.
	loser, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := loser.Replace("victim", 3000, pat(62, 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := loser.Read("victim", 3000, 500); err != nil {
		t.Fatal(err)
	}

	// Winner: commits on another object, and a checkpoint behind it forces
	// the volume — including the loser's dirtied page.
	winner, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := winner.Append("other", pat(63, 100)); err != nil {
		t.Fatal(err)
	}
	if err := winner.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s2.Open("victim")
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.Read(0, v.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("loser replace survived the crash at byte %d", i)
			}
		}
	}
	o2, _ := s2.Open("other")
	if o2.Size() != 2100 {
		t.Errorf("winner's append lost: size = %d", o2.Size())
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s2.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestLoserReplaceAfterStructuralOpUndone covers the tricky variant: the
// loser replaced bytes whose logical offset only existed in its own
// uncommitted tree.  Physical undo restores whatever committed pages it
// dirtied; shadowed pages the committed tree never references are
// irrelevant.
func TestLoserReplaceAfterStructuralOpUndone(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	a, _ := s.Create("victim", 0)
	base := pat(64, 8000)
	if err := a.Append(base); err != nil {
		t.Fatal(err)
	}
	b, _ := s.Create("other", 0)
	if err := b.Append(pat(65, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	loser, _ := s.Begin()
	// Shift the world by an uncommitted insert, then replace: the
	// replace's logical offset (5000) addresses different committed
	// bytes, but the extents pin the physical pages.
	if err := loser.Insert("victim", 1000, pat(66, 700)); err != nil {
		t.Fatal(err)
	}
	if err := loser.Replace("victim", 5000, pat(67, 400)); err != nil {
		t.Fatal(err)
	}
	if _, err := loser.Read("victim", 5000, 400); err != nil {
		t.Fatal(err)
	}

	winner, _ := s.Begin()
	if err := winner.Append("other", pat(68, 50)); err != nil {
		t.Fatal(err)
	}
	if err := winner.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := s2.Open("victim")
	got, err := v.Read(0, v.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Error("victim not restored to committed state")
	}
	if err := s2.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedReplaceStillRedone: the undo pass must not disturb
// committed replaces.
func TestCommittedReplaceStillRedone(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	a, _ := s.Create("v", 0)
	base := pat(69, 4000)
	if err := a.Append(base); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	if err := tx.Replace("v", 100, pat(70, 300)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, base...)
	copy(want[100:], pat(70, 300))
	v, _ := s2.Open("v")
	got, _ := v.Read(0, v.Size())
	if !bytes.Equal(got, want) {
		t.Error("committed replace lost or mangled by undo pass")
	}
}

// TestAbortIsDurableAtItsLogForce: an abort forces its record and nothing
// else.  A settled replace is made durable by a soft checkpoint, the
// transaction aborts, and the crash drops the compensation the data volume
// never forced: recovery must put the committed bytes back from the
// replace record's pre-image, and say it undid the abort.
func TestAbortIsDurableAtItsLogForce(t *testing.T) {
	s, vol, logVol, base := replaceStore(t, Options{})
	tx, _ := s.Begin()
	if err := tx.Replace("x", 2000, pat(71, 600)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read("x", 2000, 600); err != nil { // settles it: written home
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // soft: tx is live
		t.Fatal(err)
	}
	syncs := vol.Stats().Syncs
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := vol.Stats().Syncs - syncs; got != 0 {
		t.Fatalf("the abort forced the data volume %d times, want none", got)
	}
	s = crashReopen(t, vol, logVol)
	if !bytes.Equal(readObject(t, s, "x"), base) {
		t.Fatal("the aborted replace survived the crash")
	}
	if rs := s.Stats().Recovery; rs.UndoneAborts != 1 {
		t.Fatalf("recovery undid %d aborts, want 1", rs.UndoneAborts)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestAbortBelowTheSlotStampIsNotUndone: A aborts a settled replace, then
// B commits the same bytes at the same offset, and a soft checkpoint
// (another transaction is live since before A, so the log keeps A's
// records) persists B's root.  A's abort record lies below the master
// record's stamp: the checkpoint forced the rollback, and undoing A's
// replace now would find its post-image — B's bytes — and put the old bytes
// back where the image's root LSN keeps redo from restoring B's.
func TestAbortBelowTheSlotStampIsNotUndone(t *testing.T) {
	s, vol, logVol, base := replaceStore(t, Options{})
	repl := pat(72, 600)
	if _, err := s.Begin(); err != nil { // live, so the log stays
		t.Fatal(err)
	}
	a, _ := s.Begin()
	if err := a.Replace("x", 2000, repl); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read("x", 2000, 600); err != nil { // settles it: written home
		t.Fatal(err)
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	b, _ := s.Begin()
	if err := b.Replace("x", 2000, repl); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s = crashReopen(t, vol, logVol)
	want := append([]byte{}, base...)
	copy(want[2000:], repl)
	if !bytes.Equal(readObject(t, s, "x"), want) {
		t.Fatal("B's committed replace was lost to the undo of A's")
	}
	if rs := s.Stats().Recovery; rs.UndoneAborts != 0 || rs.Redone != 0 {
		t.Fatalf("recovery undid %d aborts and redid %d operations, want 0 and 0", rs.UndoneAborts, rs.Redone)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}
