package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestCtlEndToEnd(t *testing.T) {
	for _, backend := range []string{"img", "file"} {
		t.Run(backend, func(t *testing.T) { testCtlEndToEnd(t, backend) })
	}
}

func testCtlEndToEnd(t *testing.T, backend string) {
	dir := t.TempDir()
	must := func(cmd string, args ...string) string {
		t.Helper()
		var out string
		out = captureStdout(t, func() {
			if err := run(dir, backend, cmd, args, 4096, 512, 8, false); err != nil {
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
	if out := must("stat", "doc"); !strings.Contains(out, "size:") {
		t.Errorf("stat: %q", out)
	}
	if out := must("stat"); !strings.Contains(out, "free data pages") ||
		!strings.Contains(out, "directory pages skipped") || !strings.Contains(out, "applied early") ||
		!strings.Contains(out, "bridged reads:") {
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

func TestCtlErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, "img", "ls", nil, 1024, 512, 8, false); err == nil {
		t.Error("ls on uninitialized store succeeded")
	}
	if err := run(dir, "img", "init", nil, 4096, 512, 8, false); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, "img", "get", []string{"missing"}, 0, 0, 0, false); err == nil {
		t.Error("get of missing object succeeded")
	}
	if err := run(dir, "img", "bogus", nil, 0, 0, 0, false); err == nil {
		t.Error("unknown command succeeded")
	}
	if err := run(dir, "img", "insert", []string{"x"}, 0, 0, 0, false); err == nil {
		t.Error("insert with bad arity succeeded")
	}
	if err := run(dir, "img", "delete", []string{"x", "nan", "1"}, 0, 0, 0, false); err == nil {
		t.Error("delete with bad offset succeeded")
	}
	if err := run(dir, "tape", "ls", nil, 0, 0, 0, false); err == nil {
		t.Error("unknown backend succeeded")
	}
}

// TestCtlMigrate initializes an image store, writes an object, migrates
// it to the file backend, reads it back there, then migrates back to
// images and verifies again — the full round trip of the conversion
// path.
func TestCtlMigrate(t *testing.T) {
	dir := t.TempDir()
	do := func(backend, cmd string, args ...string) string {
		t.Helper()
		var out string
		out = captureStdout(t, func() {
			if err := run(dir, backend, cmd, args, 2048, 512, 8, false); err != nil {
				t.Fatalf("[%s] %s %v: %v", backend, cmd, args, err)
			}
		})
		return out
	}
	do("img", "init")
	payload := []byte("migration payload that must survive both directions")
	withStdin(t, payload, func() { do("img", "put", "doc") })

	do("img", "migrate", "file")
	if out := do("file", "get", "doc"); out != string(payload) {
		t.Errorf("get after migrate to file = %q", out)
	}
	if out := do("file", "fsck"); !strings.Contains(out, "OK") {
		t.Errorf("fsck on migrated store: %q", out)
	}
	// Mutate on the file backend, then migrate back and verify the
	// mutation travelled.
	withStdin(t, []byte("!"), func() { do("file", "append", "doc") })
	do("file", "migrate", "img")
	if out := do("img", "get", "doc"); out != string(payload)+"!" {
		t.Errorf("get after migrate back = %q", out)
	}
}
