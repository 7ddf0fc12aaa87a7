package eos

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// TestConcurrentCommittersAndCheckpointerStress drives N committers on
// distinct objects while a checkpointer repeatedly flushes and forces
// the store.  It is the write-path counterpart of the read-path stress
// test: correctness is asserted on final content, and the -race CI job
// runs it to prove the group-commit and checkpoint-flush paths are clean.
func TestConcurrentCommittersAndCheckpointerStress(t *testing.T) {
	s, _, _ := newStore(t, Options{Threshold: 4, PoolFrames: 256})
	const committers = 8
	const rounds = 12
	const blockLen = 96

	for w := 0; w < committers; w++ {
		if _, err := s.Create(objName(w), 0); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, committers)
	stop := make(chan struct{})
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx, err := s.Begin()
				if err != nil {
					errCh <- err
					return
				}
				// A failed operation still fails the test.  The abort first
				// ends its transaction, which would otherwise stay live and
				// hold the log's start against the checkpointer.
				if err := tx.Append(objName(w), pat(w*100+i, blockLen)); err != nil {
					errCh <- errors.Join(err, tx.Abort())
					return
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	// Checkpointer: soft checkpoints while transactions are in flight.
	ckDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				ckDone <- nil
				return
			default:
				if err := s.Checkpoint(); err != nil {
					ckDone <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-ckDone; err != nil {
		t.Fatalf("checkpointer: %v", err)
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	for w := 0; w < committers; w++ {
		o, err := s.Open(objName(w))
		if err != nil {
			t.Fatal(err)
		}
		if o.Size() != rounds*blockLen {
			t.Fatalf("object %d: size %d, want %d", w, o.Size(), rounds*blockLen)
		}
		for i := 0; i < rounds; i++ {
			got, err := o.Read(int64(i*blockLen), blockLen)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, pat(w*100+i, blockLen)) {
				t.Fatalf("object %d block %d corrupted", w, i)
			}
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WAL.LeaderForces == 0 || st.WAL.Appends == 0 {
		t.Fatalf("group-commit stats never moved: %+v", st.WAL)
	}
}

func objName(w int) string {
	return string(rune('a'+w)) + "-obj"
}

// TestGroupCommitCrashDurability is the §4.5 durability proof at the
// store level: a Commit acknowledgement means the commit record
// was covered by a successful leader force, so after a crash recovery
// replays AT LEAST every acknowledged transaction — and what it replays
// is a contiguous per-object prefix (no torn or reordered commits).
// The log device is armed to fail mid-run, so late committers see
// errors; those must never be REQUIRED to survive, but every
// acknowledged one must.
func TestGroupCommitCrashDurability(t *testing.T) {
	s, vol, logVol := newStore(t, Options{Threshold: 4})
	const committers = 4
	const rounds = 30
	const blockLen = 64

	for w := 0; w < committers; w++ {
		if _, err := s.Create(objName(w), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected log device failure")
	logVol.FailAfter(10, boom)

	acked := make([]int, committers) // blocks acknowledged per object
	var wg sync.WaitGroup
	var fatal error
	var mu sync.Mutex
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx, err := s.Begin()
				if err != nil {
					return // log full or failed: stop committing
				}
				if err := tx.Append(objName(w), pat(w*1000+i, blockLen)); err != nil {
					if !errors.Is(err, boom) {
						mu.Lock()
						fatal = err
						mu.Unlock()
					}
					return
				}
				if err := tx.Commit(); err != nil {
					if !errors.Is(err, boom) {
						mu.Lock()
						fatal = err
						mu.Unlock()
					}
					return // not acknowledged; may or may not survive
				}
				acked[w] = i + 1
			}
		}(w)
	}
	wg.Wait()
	if fatal != nil {
		t.Fatalf("unexpected commit failure: %v", fatal)
	}
	totalAcked := 0
	for _, a := range acked {
		totalAcked += a
	}
	if totalAcked == 0 {
		t.Fatal("fault armed too early: nothing was ever acknowledged")
	}

	logVol.ClearFault()
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{Threshold: 4})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	for w := 0; w < committers; w++ {
		o, err := s2.Open(objName(w))
		if err != nil {
			t.Fatal(err)
		}
		size := o.Size()
		if size%blockLen != 0 {
			t.Fatalf("object %d: size %d is not a whole number of committed blocks", w, size)
		}
		n := int(size) / blockLen
		if n < acked[w] {
			t.Fatalf("object %d: %d blocks recovered, but %d were acknowledged", w, n, acked[w])
		}
		// The recovered blocks must be the contiguous prefix 0..n-1 —
		// recovery replays exactly the forced prefix, in order.
		for i := 0; i < n; i++ {
			got, err := o.Read(int64(i*blockLen), blockLen)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, pat(w*1000+i, blockLen)) {
				t.Fatalf("object %d block %d: recovered content is not the committed prefix", w, i)
			}
		}
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitPiggyback exercises the Commit contract: the commit record
// enters the group-commit buffer and is made durable by a leader force
// that usually belongs to another committer.  With the log device
// serialized to one outstanding request, concurrent committers must
// batch: the number of physical leader forces stays well below the number
// of force requests.
func TestCommitPiggyback(t *testing.T) {
	s, _, logVol := newStore(t, Options{Threshold: 4})
	const committers = 8
	const rounds = 6

	for w := 0; w < committers; w++ {
		o, err := s.Create(objName(w), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Append(pat(w, 32)); err != nil {
			t.Fatal(err)
		}
	}
	// Latency simulation is simulator-only: it is what makes the
	// followers pile up behind the leader's force.  On the file backend
	// real fdatasync latency provides some batching but not reliably
	// enough to assert on, so the piggyback ratio check needs the sim.
	sv, ok := logVol.(*disk.Volume)
	if !ok {
		t.Skip("piggyback ratio assertion needs the simulator's latency model")
	}
	sv.SetLatency(true, 1) // one outstanding request, like a single spindle
	defer sv.SetLatency(false, 0)

	before := s.Stats().WAL
	var wg sync.WaitGroup
	errCh := make(chan error, committers)
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx, err := s.Begin()
				if err != nil {
					errCh <- err
					return
				}
				if err := tx.Replace(objName(w), 0, pat(w+i, 32)); err != nil {
					errCh <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := s.Stats().WAL
	forces := st.Forces - before.Forces
	leads := st.LeaderForces - before.LeaderForces
	saved := (st.Piggybacks - before.Piggybacks) + (st.ForceNoops - before.ForceNoops)
	if forces < committers*rounds {
		t.Fatalf("forces = %d, want at least %d", forces, committers*rounds)
	}
	if leads >= forces {
		t.Fatalf("no batching: %d leader forces for %d force requests", leads, forces)
	}
	if saved == 0 {
		t.Fatalf("no piggybacked or no-op forces at %d committers: %+v", committers, st)
	}
}
