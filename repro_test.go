package eos

import (
	"bytes"
	"testing"
)

// TestReproSoak2 distills the soak failure: a committed delete on one
// object inside a multi-object transaction, then an aborted insert, then
// a crash.
func TestReproSoak2(t *testing.T) {
	vol := newTestDevice(t, 512, 8192)
	logVol := newTestDevice(t, 512, 8192)
	s, err := Format(vol, logVol, Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Create("A", 0)
	model := pat(2, 3000)
	if err := a.Append(model); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	step := func(label string, fn func(tx *Txn) error, commit string) {
		t.Helper()
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(tx); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		switch commit {
		case "commit":
			if err := tx.Commit(); err != nil {
				t.Fatalf("%s commit: %v", label, err)
			}
		case "abort":
			if err := tx.Abort(); err != nil {
				t.Fatalf("%s abort: %v", label, err)
			}
		}
	}

	// Committed insert (like r6), then crash+recover.
	ins1 := pat(7, 568)
	step("insert1", func(tx *Txn) error { return tx.Insert("A", 928, ins1) }, "commit")
	model = append(model[:928:928], append(append([]byte{}, ins1...), model[928:]...)...)
	vol.Crash()
	logVol.Crash()
	s, err = Open(vol, logVol, Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		o, err := s.Open("A")
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.Read(0, o.Size())
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !bytes.Equal(got, model) {
			lo := -1
			for i := range model {
				if i >= len(got) || got[i] != model[i] {
					lo = i
					break
				}
			}
			t.Fatalf("%s: diverged at %d (size %d vs %d)", stage, lo, len(got), len(model))
		}
	}
	check("after first recovery")

	// Committed delete (like r8).
	step("delete", func(tx *Txn) error { return tx.Delete("A", 194, 1339) }, "commit")
	model = append(model[:194:194], model[194+1339:]...)
	check("after the delete")

	// Aborted insert (like r9).
	step("insert-abort", func(tx *Txn) error { return tx.Insert("A", 2019, pat(9, 475)) }, "abort")
	check("after abort")

	// Crash and recover: the committed delete must survive.
	vol.Crash()
	logVol.Crash()
	s, err = Open(vol, logVol, Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	check("after final recovery")
}
