package eos

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCreateAtOpenAtRoundTrip drives the file backend through its
// whole lifecycle: create a store on real page files, write objects,
// close, reopen from the directory (running recovery), and verify the
// content — then once more to prove reopen is repeatable.
func TestCreateAtOpenAtRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataPages: 2048, LogPages: 512}
	s, err := CreateAt(dir, opts)
	if err != nil {
		t.Fatalf("CreateAt: %v", err)
	}
	data := pat(3, 100000)
	o, err := s.Create("blob", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AppendWithHint(data, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, name := range []string{dataFileName, logFileName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("volume file %s missing: %v", name, err)
		}
	}
	for round := 0; round < 2; round++ {
		s, err = OpenAt(dir, opts)
		if err != nil {
			t.Fatalf("OpenAt round %d: %v", round, err)
		}
		o, err := s.Open("blob")
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.Read(0, o.Size())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("content mismatch after reopen %d", round)
		}
		if err := s.Check(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close round %d: %v", round, err)
		}
	}
}
