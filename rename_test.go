package eos

import (
	"bytes"
	"errors"
	"testing"
)

func TestRename(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	o, _ := s.Create("old", 0)
	data := pat(55, 3000)
	if err := o.Append(data); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("old", "new"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("old"); !errors.Is(err, ErrNotFound) {
		t.Error("old name still resolves")
	}
	n, err := s.Open("new")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := n.Read(0, n.Size())
	if !bytes.Equal(got, data) {
		t.Error("content lost across rename")
	}
	// Error cases.
	if err := s.Rename("missing", "x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("rename missing: %v", err)
	}
	s.Create("taken", 0)
	if err := s.Rename("new", "taken"); !errors.Is(err, ErrExists) {
		t.Errorf("rename onto taken: %v", err)
	}
	// Rename of a transaction-held object is refused.
	tx, _ := s.Begin()
	if err := tx.Insert("new", 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("new", "other"); err == nil {
		t.Error("rename of txn-dirty object succeeded")
	}
	tx.Abort()

	// Persisted across checkpoint and crash.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Open("new"); err != nil {
		t.Errorf("renamed object lost after reopen: %v", err)
	}
}

func TestStoreStats(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	o, _ := s.Create("x", 0)
	if err := o.Append(pat(56, 5000)); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Read(0, 1000); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Disk.PagesWritten == 0 {
		t.Error("no disk writes counted")
	}
	if st.LOB.Appends == 0 || st.LOB.SnapshotReads == 0 { // an Object read reads the published version
		t.Errorf("lob stats empty: %+v", st.LOB)
	}
	if st.Buddy.Allocs == 0 {
		t.Error("no buddy allocations counted")
	}
}
