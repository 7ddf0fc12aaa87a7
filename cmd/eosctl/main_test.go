package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/eosdb/eos"
)

// withStdin temporarily wires os.Stdin to the given bytes.
func withStdin(t *testing.T, data []byte, fn func()) {
	t.Helper()
	tmp := filepath.Join(t.TempDir(), "stdin")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tmp)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = old }()
	fn()
}

// captureStdout collects what fn prints.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// TestCtlEndToEnd drives every subcommand against a store kept in page
// files, the one backend eosctl has.
func TestCtlEndToEnd(t *testing.T) {
	t.Run("file", testCtlEndToEnd)
}

func testCtlEndToEnd(t *testing.T) {
	dir := t.TempDir()
	must := func(cmd string, args ...string) string {
		t.Helper()
		var out string
		out = captureStdout(t, func() {
			if err := run(dir, cmd, args, 4096, 512, 8, false); err != nil {
				t.Fatalf("%s %v: %v", cmd, args, err)
			}
		})
		return out
	}

	if out := must("init"); !strings.Contains(out, "initialized") {
		t.Errorf("init output: %q", out)
	}

	payload := []byte("the quick brown fox jumps over the lazy dog")
	withStdin(t, payload, func() { must("put", "doc") })

	if out := must("get", "doc"); out != string(payload) {
		t.Errorf("get = %q", out)
	}

	withStdin(t, []byte("SLY "), func() { must("insert", "doc", "4") })
	want := "the SLY quick brown fox jumps over the lazy dog"
	if out := must("get", "doc"); out != want {
		t.Errorf("after insert: %q, want %q", out, want)
	}

	must("delete", "doc", "0", "4")
	if out := must("get", "doc"); out != want[4:] {
		t.Errorf("after delete: %q", out)
	}

	withStdin(t, []byte("!"), func() { must("append", "doc") })
	if out := must("get", "doc"); out != want[4:]+"!" {
		t.Errorf("after append: %q", out)
	}

	if out := must("ls"); !strings.Contains(out, "doc") {
		t.Errorf("ls: %q", out)
	}
	if out := must("stat", "doc"); !strings.Contains(out, "size:") || !strings.Contains(out, "index fill:    no node pages") ||
		!strings.Contains(out, "threshold T:   8 pages, adaptive; this window W 0s of reshuffle transfers, R 0s of boundary seeks\n") {
		t.Errorf("stat: %q", out)
	}
	if out := must("stat"); !strings.Contains(out, "free data pages") ||
		!strings.Contains(out, "redid 0 operations\n") || !strings.Contains(out, "deferred to their commit") ||
		!strings.Contains(out, "bridged reads:") || !strings.Contains(out, "thresholds: 0 one-page moves of adaptive objects' T\n") || !strings.Contains(out, "placement: 0 new segments") ||
		!strings.Contains(out, "in 0 inserts, deletes and appends; 0 of the others waited in the write-behind set, 0 of those at its next-fit point\n") ||
		!strings.Contains(out, "write-behind: 0 pages pending") ||
		!strings.Contains(out, "replaced pages:") || !strings.Contains(out, "checkpoint time:") {
		t.Errorf("store stat: %q", out)
	}
	if out := must("fsck"); !strings.Contains(out, "OK") {
		t.Errorf("fsck: %q", out)
	}

	must("rm", "doc")
	if out := must("ls"); strings.Contains(out, "doc") {
		t.Errorf("ls after rm: %q", out)
	}
	if out := must("fsck"); !strings.Contains(out, "OK") {
		t.Errorf("fsck after rm: %q", out)
	}
}

// TestCtlStatIndexFill pins stat's index fill: an object of 53 leaf entries
// at 512-byte pages, whose root the 51st pushed down over two node pages of
// 50 entries each.
func TestCtlStatIndexFill(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, "init", nil, 1024, 512, 1, false); err != nil {
		t.Fatal(err)
	}
	s, err := eos.OpenAt(dir, eos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Create("frag", 1)
	if err != nil {
		t.Fatal(err)
	}
	const ps = 512
	if err := o.Insert(0, make([]byte, 60*ps)); err != nil {
		t.Fatal(err)
	}
	// One page in front of every other page, right to left: each insert
	// splits a segment into three.
	for page := 56; page >= 6; page -= 2 {
		if err := o.Insert(int64(page*ps), bytes.Repeat([]byte{1}, ps)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var out string
	out = captureStdout(t, func() {
		if err := run(dir, "stat", []string{"frag"}, 0, 0, 0, false); err != nil {
			t.Fatal(err)
		}
	})
	if want := "index fill:    53 entries in 2 node pages of 50 (53.0%)"; !strings.Contains(out, want) {
		t.Errorf("stat frag: %q, want a line %q", out, want)
	}
}

func TestCtlErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, "ls", nil, 1024, 512, 8, false); err == nil {
		t.Error("ls on uninitialized store succeeded")
	}
	// A store older releases kept as volume images is named, with the way
	// to convert it.
	old := t.TempDir()
	for _, name := range []string{"data.img", "log.img"} {
		if err := os.WriteFile(filepath.Join(old, name), []byte("image"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := run(old, "ls", nil, 0, 0, 0, false); err == nil ||
		!strings.Contains(err.Error(), "data.img") || !strings.Contains(err.Error(), "migrate file") {
		t.Errorf("ls on an image store: %v, want an error naming the images and migrate file", err)
	}
	if err := run(dir, "init", nil, 4096, 512, 8, false); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, "get", []string{"missing"}, 0, 0, 0, false); err == nil {
		t.Error("get of missing object succeeded")
	}
	if err := run(dir, "bogus", nil, 0, 0, 0, false); err == nil {
		t.Error("unknown command succeeded")
	}
	if err := run(dir, "insert", []string{"x"}, 0, 0, 0, false); err == nil {
		t.Error("insert with bad arity succeeded")
	}
	if err := run(dir, "delete", []string{"x", "nan", "1"}, 0, 0, 0, false); err == nil {
		t.Error("delete with bad offset succeeded")
	}
}
