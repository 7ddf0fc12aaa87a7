package eos

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// testBackend reports which Device backend the suite runs on, selected
// by EOS_TEST_BACKEND: "sim" (the default) or "file".  CI runs the
// tier-1 suite once per backend, so every store/txn/recovery test
// exercises both the simulator and real temp-dir page files.
func testBackend(t testing.TB) string {
	switch b := os.Getenv("EOS_TEST_BACKEND"); b {
	case "", "sim":
		return "sim"
	case "file":
		return "file"
	default:
		t.Fatalf("unknown EOS_TEST_BACKEND %q (want sim or file)", b)
		return ""
	}
}

// newTestDevice builds one volume on the selected backend.  File
// volumes enable crash shadowing so Crash() keeps the simulator's
// "unforced writes are lost" semantics the recovery tests drive.
func newTestDevice(t testing.TB, pageSize int, pages disk.PageNum) disk.Device {
	t.Helper()
	if testBackend(t) == "sim" {
		return disk.MustNewVolume(pageSize, pages, disk.DefaultCostModel())
	}
	path := filepath.Join(t.TempDir(), "vol.eos")
	fv, err := disk.CreateFileVolume(path, pageSize, pages, disk.FileOptions{CrashShadow: true})
	if err != nil {
		t.Fatalf("CreateFileVolume: %v", err)
	}
	t.Cleanup(func() { _ = fv.Close() })
	return fv
}

// newStore creates a store on fresh volumes of the selected backend.
func newStore(t testing.TB, opts Options) (*Store, disk.Device, disk.Device) {
	t.Helper()
	vol := newTestDevice(t, 512, 4096)
	logVol := newTestDevice(t, 512, 1024)
	s, err := Format(vol, logVol, opts)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return s, vol, logVol
}

func freePages(t testing.TB, s *Store) int {
	t.Helper()
	n, err := s.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func pat(seed, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(seed*17 + i*3)
	}
	return out
}

func TestStoreBasicLifecycle(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	o, err := s.Create("movie", 0)
	if err != nil {
		t.Fatal(err)
	}
	data := pat(1, 50000)
	if err := o.AppendWithHint(data, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	got, err := o.Read(0, o.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("content mismatch")
	}
	if _, err := s.Create("movie", 0); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := s.Open("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("open missing: %v", err)
	}
	if names := s.List(); len(names) != 1 || names[0] != "movie" {
		t.Errorf("List = %v", names)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	base, _ := s.FreePages()
	if err := s.Destroy("movie"); err != nil {
		t.Fatal(err)
	}
	// Freed runs sit in the durability quarantine until a catalog
	// barrier durably stops referencing them; a quiescent checkpoint
	// drains the pipeline.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := s.FreePages()
	if after <= base {
		t.Errorf("destroy freed nothing: %d -> %d", base, after)
	}
}

func TestCheckpointAndReopen(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	data := pat(2, 30000)
	o, _ := s.Create("doc", 0)
	if err := o.Append(data); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(1000, pat(3, 500)); err != nil {
		t.Fatal(err)
	}
	model := append(append(append([]byte{}, data[:1000]...), pat(3, 500)...), data[1000:]...)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	free1, _ := s.FreePages()

	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	o2, err := s2.Open("doc")
	if err != nil {
		t.Fatal(err)
	}
	got, err := o2.Read(0, o2.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Error("content lost across checkpoint+crash")
	}
	free2, _ := s2.FreePages()
	if free2 != free1 {
		t.Errorf("free pages after reopen = %d, want %d", free2, free1)
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestUncheckpointedNonTxnChangesLost(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	o, _ := s.Create("x", 0)
	if err := o.Append(pat(4, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Non-transactional update without checkpoint: gone after a crash.
	if err := o.Append(pat(5, 1000)); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := s2.Open("x")
	if o2.Size() != 1000 {
		t.Errorf("size = %d, want 1000 (unlogged update must vanish)", o2.Size())
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnCommitDurable(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	o, _ := s.Create("acct", 0)
	if err := o.Append(pat(6, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("acct", 100, pat(7, 300)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Replace("acct", 0, []byte("HEADER")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	model := pat(6, 5000)
	model = append(model[:100:100], append(append([]byte{}, pat(7, 300)...), model[100:]...)...)
	copy(model[0:], "HEADER")

	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := s2.Open("acct")
	got, _ := o2.Read(0, o2.Size())
	if !bytes.Equal(got, model) {
		t.Error("committed transaction lost after crash")
	}
}

func TestTxnRedoFromLogOnly(t *testing.T) {
	// Crash between the log force and the data force: the commit record
	// is durable, the data pages are not.  Recovery must redo.
	s, vol, logVol := newStore(t, Options{})
	o, _ := s.Create("redo", 0)
	if err := o.Append(pat(8, 4000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("redo", 500, 1000); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("redo", pat(9, 700)); err != nil {
		t.Fatal(err)
	}
	// The commit record is forced to the log, data pages are not forced.
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	logVol.Crash()

	model := pat(8, 4000)
	model = append(model[:500:500], model[1500:]...)
	model = append(model, pat(9, 700)...)

	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatalf("Open with redo: %v", err)
	}
	o2, err := s2.Open("redo")
	if err != nil {
		t.Fatal(err)
	}
	got, err := o2.Read(0, o2.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Error("redo did not reconstruct committed state")
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnUncommittedLostAfterCrash(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	o, _ := s.Create("u", 0)
	if err := o.Append(pat(10, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	if err := tx.Insert("u", 0, pat(11, 500)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Replace("u", 1000, pat(12, 100)); err != nil {
		t.Fatal(err)
	}
	// Crash without commit.
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := s2.Open("u")
	got, _ := o2.Read(0, o2.Size())
	if !bytes.Equal(got, pat(10, 3000)) {
		t.Error("uncommitted work survived the crash")
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnAbortRestoresContent(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	base := pat(13, 8000)
	o, _ := s.Create("a", 0)
	if err := o.Append(base); err != nil {
		t.Fatal(err)
	}
	// Drain the retire -> quarantine pipeline before taking the
	// baseline, so both sides of the conservation comparison count a
	// fully settled free space.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	freeBefore, _ := s.FreePages()
	usageBefore, _ := o.Usage()

	tx, _ := s.Begin()
	if err := tx.Insert("a", 4000, pat(14, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("a", 0, 1000); err != nil {
		t.Fatal(err)
	}
	if err := tx.Replace("a", 100, pat(15, 50)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("a", pat(16, 999)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	got, err := o.Read(0, o.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Error("abort did not restore content")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	// Page conservation: free + reachable is preserved (layout may
	// differ, so compare totals).  A checkpoint first: the abort's
	// freed shadow pages ride the retire -> quarantine pipeline and
	// only rejoin the free space at the next catalog barrier.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	usageAfter, _ := o.Usage()
	freeAfter, _ := s.FreePages()
	before := freeBefore + usageBefore.SegmentPages + usageBefore.IndexPages
	after := freeAfter + usageAfter.SegmentPages + usageAfter.IndexPages
	if before != after {
		t.Errorf("page conservation broken: %d -> %d", before, after)
	}

	// The transaction is finished.
	if err := tx.Insert("a", 0, []byte{1}); !errors.Is(err, ErrTxnDone) {
		t.Errorf("reuse after abort: %v", err)
	}
}

func TestTxnAbortRestoresDestroyedObject(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	data := pat(17, 6000)
	o, _ := s.Create("phoenix", 0)
	if err := o.Append(data); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	if err := tx.Destroy("phoenix"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("phoenix"); !errors.Is(err, ErrNotFound) {
		t.Error("destroyed object still visible")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	o2, err := s.Open("phoenix")
	if err != nil {
		t.Fatalf("object not restored: %v", err)
	}
	got, _ := o2.Read(0, o2.Size())
	if !bytes.Equal(got, data) {
		t.Error("restored object has wrong content")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnCreateAbortRemovesObject(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	free, _ := s.FreePages()
	tx, _ := s.Begin()
	if err := tx.Create("temp", 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("temp", pat(18, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("temp"); !errors.Is(err, ErrNotFound) {
		t.Error("aborted create left the object")
	}
	// Drain the retire -> quarantine pipeline before comparing.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := s.FreePages()
	if after != free {
		t.Errorf("free pages = %d, want %d", after, free)
	}
}

func TestTxnCreateCommittedSurvivesCrash(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	tx, _ := s.Begin()
	if err := tx.Create("born", 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("born", pat(19, 1500)); err != nil {
		t.Fatal(err)
	}
	// Commit, then crash: recovery must redo the create and the append.
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := s2.Open("born")
	if err != nil {
		t.Fatalf("created object lost: %v", err)
	}
	got, _ := o.Read(0, o.Size())
	if !bytes.Equal(got, pat(19, 1500)) {
		t.Error("created object content wrong")
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	// Redo must be skipped for operations already durable (LSN guard).
	s, vol, logVol := newStore(t, Options{})
	o, _ := s.Create("idem", 0)
	if err := o.Append(pat(20, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Live from before the commit: a checkpoint keeps the log from its
	// first record on, the commit's records included.
	if _, err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	if err := tx.Insert("idem", 500, pat(21, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// A soft checkpoint, then a crash: recovery sees a committed txn whose
	// effects are already durable and must not double-apply.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.LogTail() == 0 {
		t.Fatal("the checkpoint truncated the log with a transaction live")
	}
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := s2.Open("idem")
	if o2.Size() != 2100 {
		t.Errorf("size = %d, want 2100 (double-applied redo?)", o2.Size())
	}
	model := pat(20, 2000)
	model = append(model[:500:500], append(append([]byte{}, pat(21, 100)...), model[500:]...)...)
	got, _ := o2.Read(0, o2.Size())
	if !bytes.Equal(got, model) {
		t.Error("content mismatch after idempotent recovery")
	}
}

func TestTxnIsolationBlocksConflicts(t *testing.T) {
	s, _, _ := newStore(t, Options{LockTimeout: 100 * 1e6}) // 100ms
	o, _ := s.Create("shared", 0)
	if err := o.Append(pat(22, 1000)); err != nil {
		t.Fatal(err)
	}
	t1, _ := s.Begin()
	if err := t1.Replace("shared", 0, []byte("one")); err != nil {
		t.Fatal(err)
	}
	t2, _ := s.Begin()
	if err := t2.Replace("shared", 10, []byte("two")); err == nil {
		t.Error("conflicting write did not block")
	}
	if _, err := t2.Read("shared", 0, 10); err == nil {
		t.Error("read of X-locked object did not block")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Read("shared", 0, 10); err != nil {
		t.Errorf("read after release: %v", err)
	}
	t2.Abort()
}

func TestTxnRandomWorkloadWithAborts(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	o, _ := s.Create("w", 0)
	model := pat(23, 10000)
	if err := o.Append(model); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 25; round++ {
		segs, _ := o.e.obj.Segments()
		desc := o.e.obj.EncodeDescriptor()
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		work := append([]byte{}, model...)
		for op := 0; op < 4; op++ {
			switch k := rng.Intn(4); {
			case k == 0 && len(work) < 40000:
				data := pat(round*10+op, 1+rng.Intn(800))
				off := int64(rng.Intn(len(work) + 1))
				if err := tx.Insert("w", off, data); err != nil {
					t.Fatal(err)
				}
				work = append(work[:off:off], append(append([]byte{}, data...), work[off:]...)...)
			case k == 1 && len(work) > 10:
				n := int64(1 + rng.Intn(len(work)/2))
				off := int64(rng.Intn(len(work) - int(n) + 1))
				if err := tx.Delete("w", off, n); err != nil {
					t.Fatal(err)
				}
				work = append(work[:off:off], work[off+n:]...)
			case k == 2 && len(work) > 10:
				n := 1 + rng.Intn(min(len(work), 500))
				off := int64(rng.Intn(len(work) - n + 1))
				data := pat(round+op, n)
				if err := tx.Replace("w", off, data); err != nil {
					t.Fatal(err)
				}
				copy(work[off:], data)
			default:
				data := pat(round-op, 1+rng.Intn(600))
				if err := tx.Append("w", data); err != nil {
					t.Fatal(err)
				}
				work = append(work, data...)
			}
		}
		if rng.Intn(2) == 0 {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			model = work
		} else {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			// The abort reinstates the root from before Begin: the same
			// layout, not merely the same bytes.
			if got, _ := o.e.obj.Segments(); !slices.Equal(got, segs) || !bytes.Equal(o.e.obj.EncodeDescriptor(), desc) {
				t.Fatalf("round %d: the abort left %d segments and another descriptor, were %d", round, len(got), len(segs))
			}
		}
		got, err := o.Read(0, o.Size())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("round %d: content mismatch after %s", round,
				map[bool]string{true: "commit", false: "abort"}[bytes.Equal(work, model)])
		}
		if err := s.Check(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestRecoveryAfterManyCommits(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	o, _ := s.Create("multi", 0)
	if err := o.Append(pat(30, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	model := pat(30, 2000)
	// Several committed txns, none of them forcing the data volume.
	for i := 0; i < 5; i++ {
		tx, _ := s.Begin()
		data := pat(31+i, 400)
		if err := tx.Append("multi", data); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		model = append(model, data...)
	}
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := s2.Open("multi")
	got, _ := o2.Read(0, o2.Size())
	if !bytes.Equal(got, model) {
		t.Errorf("recovered %d bytes, want %d; content match=%v", o2.Size(), len(model), bytes.Equal(got, model))
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}
