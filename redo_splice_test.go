package eos

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestRedoAllocatesNoDataPage: redo splices the segments the log names
// instead of re-executing the updates.  After committed inserts, appends
// and deletes that no checkpoint followed — some written through, some
// left in memory by value — a crash recovers every one, and recovery
// allocates no data page: only index pages of the trees it shadows.
func TestRedoAllocatesNoDataPage(t *testing.T) {
	// A root of eight entries: the trees grow index pages for redo to shadow.
	opts := Options{Threshold: 4, MaxRootEntries: 8}
	s, vol, logVol, model := replaceStore(t, opts)
	rng := rand.New(rand.NewSource(5))
	ops := 0
	for i := 0; i < 60; i++ {
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		switch k := rng.Intn(3); {
		case k == 0 || len(model) < 4000:
			d := pat(i, 100+rng.Intn(4000))
			off := rng.Intn(len(model) + 1)
			err = tx.Insert("x", int64(off), d)
			model = append(model[:off:off], append(d, model[off:]...)...)
		case k == 1:
			d := pat(i, 50+rng.Intn(3000))
			err = tx.Append("x", d)
			model = append(model, d...)
		default:
			n := 1 + rng.Intn(3000)
			off := rng.Intn(len(model) - n + 1)
			err = tx.Delete("x", int64(off), int64(n))
			model = append(model[:off:off], model[off+n:]...)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		ops++
	}
	if err := vol.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := logVol.Crash(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(vol, logVol, opts)
	if err != nil {
		t.Fatal(err)
	}
	rs := s.Stats().Recovery
	t.Logf("recovery redid %d operations and allocated %d index pages", rs.Redone, rs.IndexPages)
	if rs.Redone != int64(ops) {
		t.Errorf("recovery redid %d operations, want the %d committed", rs.Redone, ops)
	}
	if rs.DataPages != 0 || rs.IndexPages == 0 {
		t.Errorf("redo allocated %d data pages and %d index pages, want none and some", rs.DataPages, rs.IndexPages)
	}
	if !bytes.Equal(readObject(t, s, "x"), model) {
		t.Fatal("x after the crash is not the committed bytes")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
	// Redo's allocator counts whatever it hands out but a single index page
	// as data.
	ra := &redoAlloc{s: s}
	p, n, err := ra.AllocUpTo(2)
	if err != nil || s.recovered.DataPages != int64(n) || len(ra.runs) != 1 {
		t.Fatalf("AllocUpTo(2) = %d pages (%v): %d counted as data, %d runs noted", n, err, s.recovered.DataPages, len(ra.runs))
	}
	if err := s.buddy.FreeUnpublished(p, n); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyTxnLogsNothing: no record begins a transaction, and one that
// logs no operation logs no commit or abort record either.
func TestReadOnlyTxnLogsNothing(t *testing.T) {
	s, _, _, base := replaceStore(t, Options{})
	tail, forces := s.LogTail(), s.Stats().WAL.Forces
	for _, commit := range []bool{true, false} {
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		got, err := tx.Read("x", 100, 1000)
		if err != nil || !bytes.Equal(got, base[100:1100]) {
			t.Fatalf("read: %v", err)
		}
		if _, err := tx.Size("x"); err != nil {
			t.Fatal(err)
		}
		end := tx.Abort
		if commit {
			end = tx.Commit
		}
		if err := end(); err != nil {
			t.Fatal(err)
		}
	}
	if s.LogTail() != tail || s.Stats().WAL.Forces != forces {
		t.Fatalf("two read-only transactions moved the log tail from %d to %d and asked for %d forces", tail, s.LogTail(), s.Stats().WAL.Forces-forces)
	}
}
