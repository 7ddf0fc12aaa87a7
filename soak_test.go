package eos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
)

// TestSoakCrashRecovery is the end-to-end torture test: random
// transactions over several objects, randomly committed (durably or
// log-force-only), aborted, interleaved with checkpoints and full
// crash-recovery cycles, verified against an in-memory model after
// every round.
func TestSoakCrashRecovery(t *testing.T) {
	seeds := []int64{2026, 7, 424242}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			soakRun(t, seed, Options{Threshold: 4})
		})
	}
}

func soakRun(t *testing.T, seed int64, opts Options) {
	vol := disk.MustNewVolume(512, 8192, disk.DefaultCostModel())
	logVol := disk.MustNewVolume(512, 8192, disk.DefaultCostModel())
	s, err := Format(vol, logVol, opts)
	if err != nil {
		t.Fatal(err)
	}

	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(seed))

	// Seed a few objects.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("soak-%d", i)
		o, err := s.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		data := pat(i, 2000+i*500)
		if err := o.Append(data); err != nil {
			t.Fatal(err)
		}
		model[name] = data
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	verify := func(round int) {
		t.Helper()
		names := s.List()
		if len(names) != len(model) {
			t.Fatalf("round %d: %d objects, model has %d", round, len(names), len(model))
		}
		for name, want := range model {
			o, err := s.Open(name)
			if err != nil {
				t.Fatalf("round %d: open %q: %v", round, name, err)
			}
			if o.Size() != int64(len(want)) {
				t.Fatalf("round %d: %q size %d, want %d", round, name, o.Size(), len(want))
			}
			if len(want) == 0 {
				continue
			}
			got, err := o.Read(0, o.Size())
			if err != nil {
				t.Fatalf("round %d: read %q: %v", round, name, err)
			}
			if !bytes.Equal(got, want) {
				lo, hi := -1, -1
				for i := range want {
					if got[i] != want[i] {
						if lo == -1 {
							lo = i
						}
						hi = i
					}
				}
				t.Fatalf("round %d: %q content diverged in [%d,%d] of %d", round, name, lo, hi, len(want))
			}
		}
		if err := s.Check(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	names := func() []string {
		out := make([]string, 0, len(model))
		for n := range model {
			out = append(out, n)
		}
		// Deterministic order for the seeded RNG.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}

	for round := 0; round < 60; round++ {
		ns := names()
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		// Work on a private copy of the model; promote on commit.
		work := map[string][]byte{}
		for k, v := range model {
			work[k] = append([]byte{}, v...)
		}
		ops := 1 + rng.Intn(4)
		failed := false
		for op := 0; op < ops && !failed; op++ {
			name := ns[rng.Intn(len(ns))]
			cur := work[name]
			switch k := rng.Intn(10); {
			case k < 2: // append
				data := pat(round*100+op, 1+rng.Intn(1500))
				if testing.Verbose() {
					t.Logf("  r%d op%d append %s n=%d", round, op, name, len(data))
				}
				if err := tx.Append(name, data); err != nil {
					t.Fatalf("round %d append: %v", round, err)
				}
				work[name] = append(cur, data...)
			case k < 5 && len(cur) > 0: // insert
				data := pat(round*100+op, 1+rng.Intn(800))
				off := int64(rng.Intn(len(cur) + 1))
				if testing.Verbose() {
					t.Logf("  r%d op%d insert %s off=%d n=%d", round, op, name, off, len(data))
				}
				if err := tx.Insert(name, off, data); err != nil {
					t.Fatalf("round %d insert: %v", round, err)
				}
				work[name] = append(cur[:off:off], append(append([]byte{}, data...), cur[off:]...)...)
			case k < 7 && len(cur) > 1: // delete
				n := int64(1 + rng.Intn(len(cur)/2))
				off := int64(rng.Intn(len(cur) - int(n) + 1))
				if testing.Verbose() {
					t.Logf("  r%d op%d delete %s off=%d n=%d", round, op, name, off, n)
				}
				if err := tx.Delete(name, off, n); err != nil {
					t.Fatalf("round %d delete: %v", round, err)
				}
				work[name] = append(cur[:off:off], cur[off+n:]...)
			case k < 9 && len(cur) > 0: // replace
				n := 1 + rng.Intn(minInt(len(cur), 600))
				off := int64(rng.Intn(len(cur) - n + 1))
				data := pat(round*100+op, n)
				if testing.Verbose() {
					t.Logf("  r%d op%d replace %s off=%d n=%d", round, op, name, off, n)
				}
				if err := tx.Replace(name, off, data); err != nil {
					t.Fatalf("round %d replace: %v", round, err)
				}
				copy(work[name][off:], data)
			default: // create a new object inside the txn
				nn := fmt.Sprintf("soak-r%d-%d", round, op)
				if err := tx.Create(nn, 0); err != nil {
					t.Fatalf("round %d create: %v", round, err)
				}
				data := pat(round, 1+rng.Intn(900))
				if err := tx.Append(nn, data); err != nil {
					t.Fatalf("round %d append-new: %v", round, err)
				}
				work[nn] = data
			}
		}

		outcome := rng.Intn(5)
		if testing.Verbose() {
			t.Logf("round %d: ops=%d outcome=%d", round, ops, outcome)
		}
		switch outcome {
		case 0, 1, 2:
			if err := tx.Commit(); err != nil {
				t.Fatalf("round %d commit: %v", round, err)
			}
			model = work
		case 3: // abort
			if err := tx.Abort(); err != nil {
				t.Fatalf("round %d abort: %v", round, err)
			}
		case 4: // crash with the txn in flight
			vol.Crash()
			logVol.Crash()
			s, err = Open(vol, logVol, opts)
			if err != nil {
				t.Fatalf("round %d recovery: %v", round, err)
			}
		}

		// Occasionally checkpoint or crash between transactions.
		post := rng.Intn(8)
		if testing.Verbose() {
			t.Logf("round %d: post=%d", round, post)
		}
		switch post {
		case 0:
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("round %d checkpoint: %v", round, err)
			}
		case 1:
			vol.Crash()
			logVol.Crash()
			s, err = Open(vol, logVol, opts)
			if err != nil {
				t.Fatalf("round %d recovery: %v", round, err)
			}
		}

		verify(round)
	}

	// Final deep validation.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// pattern computes the self-validating byte stored at offset off of
// stress object i: readers can check any byte against only (i, off),
// without synchronizing with the writers.
func pattern(i int, off int64) byte { return byte(int64(i)*31 + off) }

// TestConcurrentReadersOneWriterPerObject exercises the parallel read
// path end to end under the race detector: per object, one writer
// mutates (pattern-preserving appends, replaces, truncates, compacts)
// while several readers — random ReadAt callers and a sequential
// scanner — continuously validate content, and a background
// goroutine takes checkpoints and stats snapshots.  Every mutation
// preserves the byte = pattern(obj, offset) invariant, so any bytes a
// reader observes must validate regardless of interleaving.
func TestConcurrentReadersOneWriterPerObject(t *testing.T) {
	const (
		numObjects = 6
		readersPer = 2
		maxSize    = 96 << 10
		duration   = 300 // writer iterations per object
	)
	vol := disk.MustNewVolume(2048, 24576, disk.CostModel{})
	logVol := disk.MustNewVolume(2048, 1024, disk.CostModel{})
	s, err := Format(vol, logVol, Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}

	objs := make([]*Object, numObjects)
	for i := range objs {
		o, err := s.Create(fmt.Sprintf("stress-%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 32<<10)
		for j := range data {
			data[j] = pattern(i, int64(j))
		}
		if err := o.Append(data); err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}

	var (
		writers  sync.WaitGroup
		readers  sync.WaitGroup
		stop     atomic.Bool
		fail     atomic.Value  // first error string
		progress atomic.Uint64 // writer/checkpointer heartbeat
	)
	report := func(format string, args ...any) {
		fail.CompareAndSwap(nil, fmt.Sprintf(format, args...))
		stop.Store(true)
	}

	// Deadlock watchdog: every writer iteration and checkpoint bumps
	// the heartbeat; once writers are done the counter goes quiet, so
	// a wedged reader during drain also trips it.  A flat heartbeat
	// for 30s means the run is deadlocked — the failure mode the
	// lockorder/deadlock analyzers exist to prevent — so fail fast
	// with a full goroutine dump instead of hanging until the go test
	// timeout obscures who holds what.
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		var last uint64
		stale := 0
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-watchdogDone:
				return
			case <-ticker.C:
			}
			if cur := progress.Load(); cur != last {
				last, stale = cur, 0
				continue
			}
			if stale++; stale >= 30 {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				panic(fmt.Sprintf("soak watchdog: no worker progress for %ds, likely deadlock; goroutine dump:\n\n%s", stale, buf[:n]))
			}
		}
	}()

	// One writer per object.
	for i, o := range objs {
		writers.Add(1)
		go func(i int, o *Object) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			for it := 0; it < duration && !stop.Load(); it++ {
				progress.Add(1)
				size := o.Size()
				switch op := rng.Intn(10); {
				case op < 4 && size < maxSize: // append
					n := 1 + rng.Intn(8<<10)
					data := make([]byte, n)
					for j := range data {
						data[j] = pattern(i, size+int64(j))
					}
					if err := o.Append(data); err != nil {
						report("obj %d append: %v", i, err)
						return
					}
				case op < 7 && size > 0: // pattern-preserving replace
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
						report("obj %d replace: %v", i, err)
						return
					}
				case op < 9 && size > 8<<10: // truncate
					if err := o.Truncate(size - int64(rng.Intn(4<<10))); err != nil {
						report("obj %d truncate: %v", i, err)
						return
					}
				default:
					if err := o.Compact(); err != nil {
						report("obj %d compact: %v", i, err)
						return
					}
				}
			}
		}(i, o)
	}

	// Random-access readers.
	for i, o := range objs {
		for r := 0; r < readersPer; r++ {
			readers.Add(1)
			go func(i, r int, o *Object) {
				defer readers.Done()
				rng := rand.New(rand.NewSource(int64(2000 + i*10 + r)))
				buf := make([]byte, 16<<10)
				for !stop.Load() {
					size := o.Size()
					if size == 0 {
						continue
					}
					off := int64(rng.Intn(int(size)))
					n := int64(1 + rng.Intn(len(buf)))
					if off+n > size {
						n = size - off
					}
					if err := o.ReadAt(buf[:n], off); err != nil {
						// The object may have shrunk between Size and
						// ReadAt; anything else is a real failure.
						if errors.Is(err, lob.ErrOutOfBounds) {
							continue
						}
						report("obj %d read: %v", i, err)
						return
					}
					for j := int64(0); j < n; j++ {
						if buf[j] != pattern(i, off+j) {
							report("obj %d: byte %d = %d, want %d", i, off+j, buf[j], pattern(i, off+j))
							return
						}
					}
				}
			}(i, r, o)
		}
	}

	// Sequential scanners.
	for i, o := range objs {
		readers.Add(1)
		go func(i int, o *Object) {
			defer readers.Done()
			r := o.NewReader()
			buf := make([]byte, 8<<10)
			var pos int64
			for !stop.Load() {
				n, err := r.Read(buf)
				if err != nil {
					// EOF restarts the scan, also when a concurrent
					// truncate cut the object short of the position.
					if err == io.EOF {
						if _, err := r.Seek(0, io.SeekStart); err != nil {
							report("obj %d seek: %v", i, err)
							return
						}
						pos = 0
						continue
					}
					report("obj %d scan: %v", i, err)
					return
				}
				for j := 0; j < n; j++ {
					if buf[j] != pattern(i, pos+int64(j)) {
						report("obj %d scan: byte %d = %d, want %d", i, pos+int64(j), buf[j], pattern(i, pos+int64(j)))
						return
					}
				}
				pos += int64(n)
			}
		}(i, o)
	}

	// Lock-free snapshot scanners: capture a committed root, scan it
	// fully, and validate every byte — all mutations preserve byte =
	// pattern(obj, offset), so the frozen view must validate too.
	for i := range objs {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			name := fmt.Sprintf("stress-%d", i)
			for !stop.Load() {
				sn, err := s.OpenSnapshot(name)
				if err != nil {
					report("obj %d snapshot: %v", i, err)
					return
				}
				buf := make([]byte, 16<<10)
				size := sn.Size()
				for pos := int64(0); pos < size && !stop.Load(); {
					n, err := sn.ReadAt(buf, pos)
					if err != nil && err != io.EOF {
						report("obj %d snapshot read: %v", i, err)
						sn.Close()
						return
					}
					for j := 0; j < n; j++ {
						if buf[j] != pattern(i, pos+int64(j)) {
							report("obj %d snapshot: byte %d = %d, want %d", i, pos+int64(j), buf[j], pattern(i, pos+int64(j)))
							sn.Close()
							return
						}
					}
					pos += int64(n)
				}
				if err := sn.Close(); err != nil {
					report("obj %d snapshot close: %v", i, err)
					return
				}
			}
		}(i)
	}

	// Checkpoints and stats snapshots while everything runs.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			progress.Add(1)
			if err := s.Checkpoint(); err != nil {
				report("checkpoint: %v", err)
				return
			}
			st := s.Stats()
			if st.PoolHitRate < 0 || st.PoolHitRate > 1 {
				report("hit rate %v out of range", st.PoolHitRate)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Writers finishing ends the run: flag the readers down, drain
	// everyone, then verify structural integrity at quiescence.
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}
