package eos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

func snapStore(t *testing.T, opts Options) *Store {
	t.Helper()
	vol := disk.MustNewVolume(2048, 24576, disk.CostModel{})
	logVol := disk.MustNewVolume(2048, 1024, disk.CostModel{})
	s, err := Format(vol, logVol, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSnapshotIsolation checks the core snapshot contract: a snapshot
// sees exactly the committed state at open, unmoved by later appends,
// inserts, deletes, truncates, compactions, and checkpoints.
func TestSnapshotIsolation(t *testing.T) {
	s := snapStore(t, Options{Threshold: 4})
	o, err := s.Create("iso", 0)
	if err != nil {
		t.Fatal(err)
	}
	v1 := pat(1, 40000)
	if err := o.Append(v1); err != nil {
		t.Fatal(err)
	}

	sn, err := s.OpenSnapshot("iso")
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if sn.Size() != int64(len(v1)) {
		t.Fatalf("snapshot size %d, want %d", sn.Size(), len(v1))
	}

	// Structural churn after the capture.
	if err := o.Insert(100, pat(2, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(0, 20000); err != nil {
		t.Fatal(err)
	}
	if err := o.Append(pat(3, 30000)); err != nil {
		t.Fatal(err)
	}
	if err := o.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := o.Truncate(123); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, len(v1))
	if _, err := sn.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Fatal("snapshot content diverged from captured version")
	}
	if s.Stats().Snap.SnapshotReads == 0 {
		t.Fatal("snapshot reads not counted")
	}

	// Refresh moves the view forward to the current committed state.
	if err := sn.Refresh(); err != nil {
		t.Fatal(err)
	}
	if sn.Size() != 123 {
		t.Fatalf("refreshed size %d, want 123", sn.Size())
	}
}

// TestSnapshotIgnoresUncommitted checks that a snapshot never sees
// in-flight transactional state: the published root moves only at
// commit, and an abort restores the pre-transaction version.
func TestSnapshotIgnoresUncommitted(t *testing.T) {
	s := snapStore(t, Options{Threshold: 4})
	o, err := s.Create("mvcc", 0)
	if err != nil {
		t.Fatal(err)
	}
	v1 := pat(1, 10000)
	if err := o.Append(v1); err != nil {
		t.Fatal(err)
	}

	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("mvcc", pat(2, 8000)); err != nil {
		t.Fatal(err)
	}
	sn, err := s.OpenSnapshot("mvcc")
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if sn.Size() != int64(len(v1)) {
		t.Fatalf("snapshot sees uncommitted append: size %d, want %d", sn.Size(), len(v1))
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := sn.Refresh(); err != nil {
		t.Fatal(err)
	}
	if sn.Size() != int64(len(v1)) {
		t.Fatalf("abort leaked into published root: size %d, want %d", sn.Size(), len(v1))
	}

	tx, err = s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("mvcc", pat(3, 6000)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sn.Refresh(); err != nil {
		t.Fatal(err)
	}
	if sn.Size() != int64(len(v1)+6000) {
		t.Fatalf("refresh after commit: size %d, want %d", sn.Size(), len(v1)+6000)
	}
}

// TestSnapshotNeverSeesAnUncommittedReplace: a snapshot opened before a
// transaction that replaces bytes and reads them back reads the committed
// bytes, and the data volume's pages hold them, until the transaction
// commits — and after it aborts.  Once committed, the replace is what the
// snapshot reads.
func TestSnapshotNeverSeesAnUncommittedReplace(t *testing.T) {
	for _, commit := range []bool{true, false} {
		t.Run(map[bool]string{true: "commit", false: "abort"}[commit], func(t *testing.T) {
			s, _, _, base := replaceStore(t, Options{})
			sn, err := s.OpenSnapshot("x")
			if err != nil {
				t.Fatal(err)
			}
			defer sn.Close()
			// committedBytes checks what the snapshot reads.
			committedBytes := func(what string, want []byte) {
				t.Helper()
				buf := make([]byte, len(want))
				if n, err := sn.ReadAt(buf, 0); err != nil || n != len(buf) || !bytes.Equal(buf, want) {
					t.Fatalf("%s: the snapshot read %d bytes (err %v), not the committed ones", what, n, err)
				}
			}
			repl := pat(74, 600)
			tx, _ := s.Begin()
			if err := tx.Replace("x", 2000, repl); err != nil {
				t.Fatal(err)
			}
			if got, err := tx.Read("x", 2000, 600); err != nil || !bytes.Equal(got, repl) {
				t.Fatalf("the transaction does not read its replace back (err %v)", err)
			}
			committedBytes("after the read back", base)
			expectHomeBytes(t, s, "x", base)
			want := base
			if commit {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				want = append([]byte{}, base...)
				copy(want[2000:], repl)
			} else if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			committedBytes("after the transaction ended", want)
			if !commit {
				expectHomeBytes(t, s, "x", base)
			}
		})
	}
}

// TestDestroyUnderSnapshot is the regression test for the
// destroy-vs-snapshot race: destroying an object while a snapshot of it
// is open must fence the page frees behind the snapshot's epoch pin,
// not free pinned extents.  The snapshot keeps reading its captured
// tree; the pages return to the free space only after Close.
func TestDestroyUnderSnapshot(t *testing.T) {
	s := snapStore(t, Options{Threshold: 4})
	o, err := s.Create("doomed", 0)
	if err != nil {
		t.Fatal(err)
	}
	content := pat(7, 120000)
	if err := o.Append(content); err != nil {
		t.Fatal(err)
	}

	baseline, err := s.buddy.FreePages()
	if err != nil {
		t.Fatal(err)
	}

	sn, err := s.OpenSnapshot("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Destroy("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("doomed"); err == nil {
		t.Fatal("destroyed object still in catalog")
	}

	// The full content must remain readable through the open snapshot.
	got := make([]byte, len(content))
	if _, err := sn.ReadAt(got, 0); err != nil {
		t.Fatalf("read after destroy: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("snapshot content corrupted by destroy")
	}
	if st := s.Stats().Snap; st.PendingPages == 0 {
		t.Fatal("destroy under snapshot retired no pages")
	}

	if err := sn.Close(); err != nil {
		t.Fatal(err)
	}
	// A checkpoint drains the epoch manager completely.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	free, err := s.buddy.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	// Everything the object held is free again (baseline was measured
	// with the object alive, so free space must now exceed it).
	if free <= baseline {
		t.Fatalf("pages not reclaimed: %d free, baseline %d", free, baseline)
	}
	if st := s.Stats().Snap; st.PendingPages != 0 {
		t.Fatalf("%d pages still pending after drain", st.PendingPages)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochReclamationFrees proves the reclamation loop actually frees:
// buddy utilization returns to its pre-churn baseline once snapshots
// close, and stays depressed while one is pinned.
func TestEpochReclamationFrees(t *testing.T) {
	s := snapStore(t, Options{Threshold: 4})
	o, err := s.Create("churn", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Append(pat(0, 60000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	baseline, err := s.buddy.FreePages()
	if err != nil {
		t.Fatal(err)
	}

	sn, err := s.OpenSnapshot("churn")
	if err != nil {
		t.Fatal(err)
	}
	// Size-preserving churn: every delete+insert pair shadows pages the
	// snapshot still references, so they retire rather than free.
	for i := 0; i < 20; i++ {
		if err := o.Delete(1000, 3000); err != nil {
			t.Fatal(err)
		}
		if err := o.Insert(1000, pat(i+1, 3000)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats().Snap
	if st.RetiredPages == 0 {
		t.Fatal("churn retired no pages")
	}
	if st.PendingPages == 0 {
		t.Fatal("open snapshot held back no pages")
	}
	if st.OldestEpochAge <= 0 {
		t.Fatal("oldest epoch age not tracked")
	}

	if err := sn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	free, err := s.buddy.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	if free < baseline {
		t.Fatalf("utilization did not return to baseline: %d free, want >= %d", free, baseline)
	}
	if st := s.Stats().Snap; st.EpochAdvances == 0 {
		t.Fatal("epoch never advanced")
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotScanStress is the 8-reader/8-writer torture test for the
// lock-free read path, run under -race in CI: writers churn a set of
// objects with pattern-preserving mutations while snapshot readers
// continuously open, scan, refresh, and close snapshots, and a
// checkpointer drains epochs throughout.  Every byte any snapshot
// observes must validate against the position-only pattern.
func TestSnapshotScanStress(t *testing.T) {
	const (
		numObjects = 8 // one writer per object: Size-then-mutate is not atomic
		numWriters = 8
		numReaders = 8
		iterations = 150
	)
	// Generous volume: compaction shadows a whole object into fresh
	// segments while the superseded pages sit retired behind snapshot
	// pins, so peak footprint far exceeds the live data.
	vol := disk.MustNewVolume(2048, 49152, disk.CostModel{})
	logVol := disk.MustNewVolume(2048, 1024, disk.CostModel{})
	s, err := Format(vol, logVol, Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}

	objs := make([]*Object, numObjects)
	for i := range objs {
		o, err := s.Create(fmt.Sprintf("snap-%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 48<<10)
		for j := range data {
			data[j] = pattern(i, int64(j))
		}
		if err := o.Append(data); err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}

	var (
		writers sync.WaitGroup
		readers sync.WaitGroup
		stop    atomic.Bool
		fail    atomic.Value
	)
	report := func(format string, args ...any) {
		fail.CompareAndSwap(nil, fmt.Sprintf(format, args...))
		stop.Store(true)
	}

	// Writers: pattern-preserving appends, replaces, deletes+reinserts,
	// truncates.  Deleting a suffix and appending it back keeps byte =
	// pattern(obj, offset) invariant for every committed version.
	for w := 0; w < numWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			i := w % numObjects
			o := objs[i]
			for it := 0; it < iterations && !stop.Load(); it++ {
				size := o.Size()
				switch op := rng.Intn(10); {
				case op < 4 && size < 64<<10: // append
					n := 1 + rng.Intn(8<<10)
					data := make([]byte, n)
					for j := range data {
						data[j] = pattern(i, size+int64(j))
					}
					if err := o.Append(data); err != nil {
						report("writer %d append: %v", w, err)
						return
					}
				case op < 7 && size > 0: // replace in place
					off := int64(rng.Intn(int(size)))
					n := int64(1 + rng.Intn(4<<10))
					if off+n > size {
						n = size - off
					}
					data := make([]byte, n)
					for j := range data {
						data[j] = pattern(i, off+int64(j))
					}
					if err := o.Replace(off, data); err != nil {
						report("writer %d replace: %v", w, err)
						return
					}
				case op < 9 && size > 16<<10: // truncate
					if err := o.Truncate(size - int64(rng.Intn(8<<10))); err != nil {
						report("writer %d truncate: %v", w, err)
						return
					}
				default:
					if err := o.Compact(); err != nil {
						report("writer %d compact: %v", w, err)
						return
					}
				}
			}
		}(w)
	}

	// Snapshot readers: full scans through captured roots, validated
	// byte-by-byte, with refreshes and reopen cycles.
	for r := 0; r < numReaders; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			i := r % numObjects
			for !stop.Load() {
				sn, err := s.OpenSnapshot(fmt.Sprintf("snap-%d", i))
				if err != nil {
					report("reader %d open: %v", r, err)
					return
				}
				for scan := 0; scan < 2 && !stop.Load(); scan++ {
					size := sn.Size()
					buf := make([]byte, 16<<10)
					for pos := int64(0); pos < size; {
						n, err := sn.ReadAt(buf, pos)
						if err != nil && err != io.EOF {
							report("reader %d read at %d: %v", r, pos, err)
							sn.Close()
							return
						}
						for j := 0; j < n; j++ {
							if buf[j] != pattern(i, pos+int64(j)) {
								report("reader %d: obj %d byte %d = %d, want %d",
									r, i, pos+int64(j), buf[j], pattern(i, pos+int64(j)))
								sn.Close()
								return
							}
						}
						pos += int64(n)
					}
					if rng.Intn(2) == 0 {
						if err := sn.Refresh(); err != nil {
							report("reader %d refresh: %v", r, err)
							sn.Close()
							return
						}
					}
				}
				if err := sn.Close(); err != nil {
					report("reader %d close: %v", r, err)
					return
				}
			}
		}(r)
	}

	// Checkpointer: drains epochs and validates stats under load.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			if err := s.Checkpoint(); err != nil {
				report("checkpoint: %v", err)
				return
			}
			st := s.Stats().Snap
			if st.PendingPages < 0 {
				report("negative pending pages %d", st.PendingPages)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	// All snapshots are closed: a final checkpoint must reclaim every
	// retired page and leave the accounting exact.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().Snap; st.PendingPages != 0 {
		t.Fatalf("%d pages still pending at quiescence", st.PendingPages)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRecoveryPublishes checks that crash recovery republishes
// every object's root, so snapshots open cleanly on a recovered store.
func TestSnapshotRecoveryPublishes(t *testing.T) {
	vol := disk.MustNewVolume(512, 8192, disk.DefaultCostModel())
	logVol := disk.MustNewVolume(512, 8192, disk.DefaultCostModel())
	s, err := Format(vol, logVol, Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Create("rec", 0)
	if err != nil {
		t.Fatal(err)
	}
	content := pat(9, 30000)
	if err := o.Append(content); err != nil {
		t.Fatal(err)
	}
	// The non-transactional seed becomes durable at a checkpoint; the
	// transactional tail below rides on the log alone.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("rec", pat(10, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	vol.Crash()
	logVol.Crash()
	s, err = Open(vol, logVol, Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := s.OpenSnapshot("rec")
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if sn.Size() != int64(len(content)+5000) {
		t.Fatalf("recovered snapshot size %d, want %d", sn.Size(), len(content)+5000)
	}
	got := make([]byte, len(content))
	if _, err := sn.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("recovered snapshot content diverged")
	}
}

// TestSnapshotHeldAcrossFileCrashRecover is the regression test for
// descriptor republish on recovery meeting epoch pins: a snapshot
// opened on a file-backed store keeps reading its captured root even
// after the volumes crash and a second Store recovers from them.  The
// recovered store republishes every descriptor at the newest committed
// version (here: one forced transactional append past the capture);
// the old snapshot's pin is per-instance state and must keep serving
// the capture, not the republished root.  Deterministic because the
// captured root was live at the last checkpoint, so recovery's redo
// allocations can never land on its pages.
func TestSnapshotHeldAcrossFileCrashRecover(t *testing.T) {
	dir := t.TempDir()
	mkVol := func(name string, pages disk.PageNum) *disk.FileVolume {
		fv, err := disk.CreateFileVolume(filepath.Join(dir, name), 512, pages,
			disk.FileOptions{CrashShadow: true})
		if err != nil {
			t.Fatalf("CreateFileVolume: %v", err)
		}
		t.Cleanup(func() { _ = fv.Close() })
		return fv
	}
	vol, logVol := mkVol("data.eos", 4096), mkVol("log.eos", 1024)
	opts := Options{Threshold: 4}
	s1, err := Format(vol, logVol, opts)
	if err != nil {
		t.Fatal(err)
	}
	o, err := s1.Create("pinned", 0)
	if err != nil {
		t.Fatal(err)
	}
	v1 := pat(4, 30000)
	if err := o.Append(v1); err != nil {
		t.Fatal(err)
	}
	// Make the capture durable, then capture it.
	if err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sn, err := s1.OpenSnapshot("pinned")
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	// A forced transactional tail moves the committed (and durable)
	// state past the capture: recovery will republish v1+tail.
	tail := pat(5, 7000)
	tx, err := s1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("pinned", tail); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := vol.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := logVol.Crash(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(vol, logVol, opts)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}

	// The held snapshot still reads exactly its captured root.
	if sn.Size() != int64(len(v1)) {
		t.Fatalf("snapshot size %d after recovery, want %d", sn.Size(), len(v1))
	}
	got := make([]byte, len(v1))
	if _, err := sn.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("snapshot read after recovery: %v", err)
	}
	if !bytes.Equal(got, v1) {
		t.Fatal("snapshot content diverged across crash/recover")
	}

	// The recovered store republished the newest committed version.
	ro, err := s2.Open("pinned")
	if err != nil {
		t.Fatal(err)
	}
	if ro.Size() != int64(len(v1)+len(tail)) {
		t.Fatalf("recovered size %d, want %d", ro.Size(), len(v1)+len(tail))
	}
	rgot, err := ro.Read(0, ro.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rgot[:len(v1)], v1) || !bytes.Equal(rgot[len(v1):], tail) {
		t.Fatal("recovered content diverged")
	}
	if err := sn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotClosedStoreRejected checks Close refuses to tear the
// store down under an open snapshot (whose pin fences reclamation).
func TestSnapshotOpenBlocksClose(t *testing.T) {
	s := snapStore(t, Options{Threshold: 4})
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Append(pat(1, 100)); err != nil {
		t.Fatal(err)
	}
	sn, err := s.OpenSnapshot("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close succeeded with an open snapshot")
	}
	if err := sn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sn.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRefresh checks the re-capture contract: a Refresh swaps
// the view to the newest committed version without a window in which
// neither epoch pin protects the pages, clamps the cursor to the new
// size, and leaves the old view intact when the object has vanished.
func TestSnapshotRefresh(t *testing.T) {
	s := snapStore(t, Options{Threshold: 4})
	o, err := s.Create("refresh", 0)
	if err != nil {
		t.Fatal(err)
	}
	v1 := pat(1, 30000)
	if err := o.Append(v1); err != nil {
		t.Fatal(err)
	}

	sn, err := s.OpenSnapshot("refresh")
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	seq1 := sn.Seq()

	// Structural churn: the snapshot must not move until Refresh.
	v2 := append(append([]byte{}, v1...), pat(2, 20000)...)
	if err := o.Append(v2[len(v1):]); err != nil {
		t.Fatal(err)
	}
	if sn.Size() != int64(len(v1)) {
		t.Fatalf("size moved to %d before Refresh", sn.Size())
	}
	if err := sn.Refresh(); err != nil {
		t.Fatal(err)
	}
	if sn.Seq() == seq1 {
		t.Fatal("Refresh did not advance the captured version")
	}
	if sn.Size() != int64(len(v2)) {
		t.Fatalf("refreshed size %d, want %d", sn.Size(), len(v2))
	}
	got := make([]byte, len(v2))
	if _, err := sn.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("refreshed content diverged from committed state")
	}

	// Cursor clamping: park the cursor at the old end, shrink the
	// object, Refresh — the next Read must see EOF at the new size,
	// not an out-of-bounds position.
	if _, err := sn.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	const shrunk = 1000
	if err := o.Truncate(shrunk); err != nil {
		t.Fatal(err)
	}
	if err := sn.Refresh(); err != nil {
		t.Fatal(err)
	}
	if pos, err := sn.Seek(0, io.SeekCurrent); err != nil || pos != shrunk {
		t.Fatalf("cursor = %d, %v; want clamped to %d", pos, err, shrunk)
	}
	if n, err := sn.Read(make([]byte, 10)); n != 0 || err != io.EOF {
		t.Fatalf("Read at clamped end = %d, %v; want 0, EOF", n, err)
	}

	// Refresh after Destroy fails with ErrNotFound and must keep the
	// old pin: the pre-destroy view stays readable.
	if err := s.Destroy("refresh"); err != nil {
		t.Fatal(err)
	}
	if err := sn.Refresh(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Refresh after Destroy = %v, want ErrNotFound", err)
	}
	got = make([]byte, shrunk)
	if _, err := sn.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("old view unreadable after failed Refresh: %v", err)
	}
	if !bytes.Equal(got, v2[:shrunk]) {
		t.Fatal("old view content diverged after failed Refresh")
	}

	if err := sn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sn.Refresh(); err == nil {
		t.Fatal("Refresh succeeded on a closed snapshot")
	}
}

// TestSnapshotUseAfterStoreClose pins down the snapshot lifecycle
// around Store.Close: an open snapshot blocks Close, a closed
// snapshot's accessors all fail cleanly (no panic, no stale reads)
// once the store has shut down, and because Close is a
// checkpoint-and-quiesce rather than a teardown, a snapshot opened
// after it still serves the committed state.
func TestSnapshotUseAfterStoreClose(t *testing.T) {
	s := snapStore(t, Options{Threshold: 4})
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	data := pat(7, 5000)
	if err := o.Append(data); err != nil {
		t.Fatal(err)
	}
	sn, err := s.OpenSnapshot("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Store.Close succeeded with an open snapshot")
	}
	if err := sn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Every accessor of the closed snapshot fails without touching the
	// (now quiesced) store.
	if _, err := sn.ReadAt(make([]byte, 8), 0); err == nil {
		t.Fatal("ReadAt succeeded on a closed snapshot")
	}
	if _, err := sn.Read(make([]byte, 8)); err == nil {
		t.Fatal("Read succeeded on a closed snapshot")
	}
	if _, err := sn.WriteTo(io.Discard); err == nil {
		t.Fatal("WriteTo succeeded on a closed snapshot")
	}
	if err := sn.Refresh(); err == nil {
		t.Fatal("Refresh succeeded on a closed snapshot")
	}

	// Close checkpoints and quiesces but does not tear down the
	// in-memory store: read-only snapshot access remains valid.
	sn2, err := s.OpenSnapshot("x")
	if err != nil {
		t.Fatalf("OpenSnapshot after Store.Close: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := sn2.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-Close snapshot content diverged")
	}
	if err := sn2.Close(); err != nil {
		t.Fatal(err)
	}
}
