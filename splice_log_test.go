package eos

import (
	"bytes"
	"testing"
)

// TestTransactionLargerThanTheLog: insert and append write their bytes to
// pages the commit forces, and log only the splice they made, so one
// transaction may write many times what the log holds.  The geometry is
// CreateAt's default — 512-byte pages, a 1 024-page (512 KB) log — with a
// data volume large enough for the bytes.  One transaction appends ten
// times the log's capacity in 64 KB calls, a second inserts 1 MB in the
// middle; both commit, both survive a crash byte-exact, and the log carries
// at most one byte per hundred appended.
func TestTransactionLargerThanTheLog(t *testing.T) {
	const logPages = 1024
	vol := newTestDevice(t, 512, 16384)
	logVol := newTestDevice(t, 512, logPages)
	s, err := Format(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Create("big", 0); err != nil {
		t.Fatal(err)
	}
	logged := s.Stats().WAL.FlushedBytes
	var model []byte
	for i := 0; len(model) < 10*logPages*512; i++ {
		chunk := pat(i, 64<<10)
		if err := tx.Append("big", chunk); err != nil {
			t.Fatalf("append %d, at %d bytes: %v", i, len(model), err)
		}
		model = append(model, chunk...)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	logged = s.Stats().WAL.FlushedBytes - logged
	if per := float64(logged) / float64(len(model)); per > 0.01 {
		t.Errorf("%d log bytes for %d appended, %.4f per byte, want <= 0.01", logged, len(model), per)
	}
	t.Logf("%d bytes appended in one transaction with %d bytes of records", len(model), logged)

	ins, at := pat(99, 1<<20), len(model)/2
	if tx, err = s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("big", int64(at), ins); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	model = append(model[:at:at], append(ins, model[at:]...)...)

	s = crashReopen(t, vol, logVol)
	if !bytes.Equal(readObject(t, s, "big"), model) {
		t.Fatal("the object after the crash is not the committed bytes")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitForcesItsSegmentsBeforeItsRecord: an insert writes its new
// segment through and its record names it by reference, so the commit
// forces the data volume before its record enters the log.  A commit whose
// data force fails logs no record, and after a crash the object is as it
// was — never a redone splice over pages the device lost.
func TestCommitForcesItsSegmentsBeforeItsRecord(t *testing.T) {
	vol := &failingDevice{Device: newTestDevice(t, 512, 4096), n: -1}
	logVol := newTestDevice(t, 512, 1024)
	s, err := Format(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	base := pat(45, 6000)
	if err := o.Append(base); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("x", 3000, pat(46, 5000)); err != nil {
		t.Fatal(err)
	}
	vol.n = 0 // the commit's first data-volume request fails: its force
	err = tx.Commit()
	vol.n = -1
	if err == nil {
		t.Fatal("the commit succeeded though its data force failed")
	}
	_ = tx.Abort()
	s = crashReopen(t, vol, logVol)
	if !bytes.Equal(readObject(t, s, "x"), base) {
		t.Fatal("after the crash x is not the bytes from before the failed commit")
	}
}
