package eos

import (
	"bytes"
	"testing"
)

// TestLoserReplaceNeverReachesTheDisk exercises the steal hazard: a soft
// checkpoint (the loser is live, so the log stays) forces the whole volume
// while an uncommitted transaction has replaced bytes and read them back.
// Its replace is held in memory, not on a page, so the forced volume holds
// the committed bytes, and recovery, which only redoes, finds them.
func TestLoserReplaceNeverReachesTheDisk(t *testing.T) {
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

	// Loser: replaces, reads its bytes back, and never commits.
	loser, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := loser.Replace("victim", 3000, pat(62, 500)); err != nil {
		t.Fatal(err)
	}
	if got, err := loser.Read("victim", 3000, 500); err != nil || !bytes.Equal(got, pat(62, 500)) {
		t.Fatalf("the loser does not read its replace back (err %v)", err)
	}

	// Winner: commits on another object, and a checkpoint behind it forces
	// the volume while the loser holds its replace.
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
	expectHomeBytes(t, s, "victim", base)

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

// TestLoserReplaceAfterStructuralOpNeverReachesTheDisk covers the tricky
// variant: the loser replaced bytes whose logical offset only existed in
// its own uncommitted tree.  The replace is held like any other: the
// committed pages the checkpoint forces hold the committed bytes, and
// shadowed pages the committed tree never references are irrelevant.
func TestLoserReplaceAfterStructuralOpNeverReachesTheDisk(t *testing.T) {
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
	// bytes.
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
	expectHomeBytes(t, s, "victim", base)

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

// TestCommittedReplaceStillRedone: a committed replace whose pages never
// left the write-behind set is redone from its record.
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
		t.Error("committed replace lost or mangled by recovery")
	}
}

// TestAbortIsDurableAtItsLogForce: an abort forces its record and nothing
// else.  A replace read back is held across a soft checkpoint, the
// transaction aborts, and the crash drops whatever the data volume never
// forced: the replace never reached a page, so recovery redoes nothing and
// finds the committed bytes.
func TestAbortIsDurableAtItsLogForce(t *testing.T) {
	s, vol, logVol, base := replaceStore(t, Options{})
	tx, _ := s.Begin()
	if err := tx.Replace("x", 2000, pat(71, 600)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read("x", 2000, 600); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // soft: tx is live
		t.Fatal(err)
	}
	expectHomeBytes(t, s, "x", base)
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
	if rs := s.Stats().Recovery; rs.Redone != 0 {
		t.Fatalf("recovery redid %d operations, want none", rs.Redone)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestAbortThenCommitOfTheSameBytesSurvivesACrash: A aborts a replace it
// read back, then B commits the same bytes at the same offset, and a soft
// checkpoint (another transaction is live since before A, so the log keeps
// A's records) persists B's root.  Recovery scans A's records and must
// leave B's bytes alone: it redoes only committed transactions, and A never
// wrote a page.
func TestAbortThenCommitOfTheSameBytesSurvivesACrash(t *testing.T) {
	s, vol, logVol, base := replaceStore(t, Options{})
	repl := pat(72, 600)
	if _, err := s.Begin(); err != nil { // live, so the log stays
		t.Fatal(err)
	}
	a, _ := s.Begin()
	if err := a.Replace("x", 2000, repl); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read("x", 2000, 600); err != nil {
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
		t.Fatal("B's committed replace was lost")
	}
	if rs := s.Stats().Recovery; rs.Redone != 0 {
		t.Fatalf("recovery redid %d operations, want 0", rs.Redone)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// expectHomeBytes fails unless the data volume's pages that the named
// object's committed root names hold want, its committed content: no
// uncommitted byte was written over them, whatever is pending in memory.
func expectHomeBytes(t *testing.T, s *Store, name string, want []byte) {
	t.Helper()
	s.mu.Lock()
	desc := s.catalog[name].loadStableDesc()
	s.mu.Unlock()
	if got := homeBytes(t, s, desc); !bytes.Equal(got, want) {
		t.Fatalf("the data volume's pages of %q do not hold its committed bytes", name)
	}
}

// homeBytes returns what the data volume itself holds of the content of
// the object whose descriptor desc is, read from the pages its root names.
func homeBytes(t *testing.T, s *Store, desc []byte) []byte {
	t.Helper()
	obj, err := s.lm.OpenDescriptor(desc)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := obj.Segments()
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, sg := range segs {
		raw, err := s.vol.Read(sg.StartPage, sg.Pages)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw[:sg.Bytes]...)
	}
	return out
}
