package eos

import (
	"bytes"
	"testing"
)

// TestLoserReplaceUndoneAfterCrash exercises the steal hazard: an
// uncommitted transaction's in-place replace reaches the disk because a
// different transaction's commit forces the whole volume; after a crash,
// recovery must physically restore the pre-image from the log.
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

	// Winner: commits on another object, forcing the volume — including
	// the loser's dirtied page.
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
	if err := tx.CommitNoForce(); err != nil {
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
