package eos

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

func rangeStore(t *testing.T) *Store {
	t.Helper()
	s, _, _ := newStore(t, Options{RangeLocking: true, LockTimeout: 150 * time.Millisecond})
	return s
}

func TestRangeLockDisjointReplacesConcurrent(t *testing.T) {
	s := rangeStore(t)
	o, _ := s.Create("doc", 0)
	base := pat(80, 10000)
	if err := o.Append(base); err != nil {
		t.Fatal(err)
	}
	t1, _ := s.Begin()
	t2, _ := s.Begin()
	if err := t1.Replace("doc", 0, pat(81, 100)); err != nil {
		t.Fatal(err)
	}
	// Disjoint range: must not block.
	if err := t2.Replace("doc", 5000, pat(82, 100)); err != nil {
		t.Fatalf("disjoint replace blocked: %v", err)
	}
	// Overlapping range: must block (timeout).
	if err := t2.Replace("doc", 50, pat(83, 10)); err == nil {
		t.Fatal("overlapping replace did not block")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, base...)
	copy(want[0:], pat(81, 100))
	copy(want[5000:], pat(82, 100))
	got, _ := o.Read(0, o.Size())
	if !bytes.Equal(got, want) {
		t.Error("content mismatch after concurrent replaces")
	}
}

func TestRangeLockReadersShareWithPrefixReads(t *testing.T) {
	s := rangeStore(t)
	o, _ := s.Create("doc", 0)
	if err := o.Append(pat(84, 10000)); err != nil {
		t.Fatal(err)
	}
	t1, _ := s.Begin()
	t2, _ := s.Begin()
	if _, err := t1.Read("doc", 0, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Read("doc", 500, 1000); err != nil {
		t.Fatalf("overlapping shared reads blocked: %v", err)
	}
	// A replace overlapping a read range blocks.
	t3, _ := s.Begin()
	if err := t3.Replace("doc", 800, pat(85, 10)); err == nil {
		t.Error("replace over read-locked range did not block")
	}
	t1.Abort()
	t2.Abort()
	t3.Abort()
}

func TestRangeLockStructuralLocksSuffix(t *testing.T) {
	s := rangeStore(t)
	o, _ := s.Create("doc", 0)
	if err := o.Append(pat(86, 10000)); err != nil {
		t.Fatal(err)
	}
	t1, _ := s.Begin()
	if err := t1.Insert("doc", 6000, pat(87, 100)); err != nil {
		t.Fatal(err)
	}
	t2, _ := s.Begin()
	// Below the insertion point: unaffected by the shift, allowed.
	if err := t2.Replace("doc", 1000, pat(88, 50)); err != nil {
		t.Fatalf("replace below structural offset blocked: %v", err)
	}
	if _, err := t2.Read("doc", 0, 500); err != nil {
		t.Fatalf("read below structural offset blocked: %v", err)
	}
	// At/after the insertion point: blocked.
	if _, err := t2.Read("doc", 6500, 10); err == nil {
		t.Error("read past structural offset did not block")
	}
	if err := t2.Insert("doc", 9000, pat(89, 10)); err == nil {
		t.Error("second structural op did not block")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeLockConcurrentThroughput(t *testing.T) {
	// Many goroutines replacing disjoint stripes of one object commit
	// concurrently and correctly.
	s, _, _ := newStore(t, Options{RangeLocking: true, LockTimeout: 5 * time.Second})
	o, _ := s.Create("stripes", 0)
	const stripes = 8
	const stripeLen = 1000
	if err := o.Append(make([]byte, stripes*stripeLen)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < stripes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				tx, err := s.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Replace("stripes", int64(i*stripeLen), pat(i*10+round, stripeLen)); err != nil {
					t.Error(err)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < stripes; i++ {
		got, err := o.Read(int64(i*stripeLen), stripeLen)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pat(i*10+4, stripeLen)) {
			t.Errorf("stripe %d holds wrong final round", i)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeLockWritersLatchTheTree ends structural operations beside a
// reader of a disjoint range, by abort and by commit.  The reader holds the
// object's shared latch only, so the abort's compensations and every
// rebind of the tree's allocator must take the write latch; under -race a
// missing latch shows as a report.
func TestRangeLockWritersLatchTheTree(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(tx *Txn) error
	}{
		{"abort", func(tx *Txn) error { return tx.Abort() }},
		{"commit", func(tx *Txn) error {
			if err := tx.Delete("doc", 100000, 3000); err != nil {
				return err
			}
			return tx.Commit()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, _ := newStore(t, Options{RangeLocking: true, LockTimeout: 5 * time.Second})
			o, _ := s.Create("doc", 0)
			base := pat(94, 110000)
			if err := o.Append(base); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			readErr := make(chan error, 1)
			go func() {
				defer close(readErr)
				for i := 1; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					// The log keeps every transaction's records until a
					// checkpoint, the reader's too.
					if i%100 == 0 {
						if err := s.Checkpoint(); err != nil {
							readErr <- err
							return
						}
					}
					tx, err := s.Begin()
					if err != nil {
						readErr <- err
						return
					}
					got, err := tx.Read("doc", 0, 4096)
					if err == nil && !bytes.Equal(got, base[:4096]) {
						err = errors.New("reader saw a changed prefix")
					}
					if aerr := tx.Abort(); err == nil {
						err = aerr
					}
					if err != nil {
						readErr <- err
						return
					}
				}
			}()
			var werr error
			for i := 0; i < 30 && werr == nil; i++ {
				var tx *Txn
				if tx, werr = s.Begin(); werr != nil {
					break
				}
				if werr = tx.Insert("doc", 100000, pat(95+i, 3000)); werr != nil {
					break
				}
				werr = tc.end(tx)
			}
			close(done)
			if err := <-readErr; err != nil {
				t.Fatal(err)
			}
			if werr != nil {
				t.Fatal(werr)
			}
			got, err := o.Read(0, o.Size())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, base) {
				t.Error("the writer's transactions left the object changed")
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRangeLockLoserReplaceStillUndone(t *testing.T) {
	// The physical-undo path works under range locking too.
	vol := disk.MustNewVolume(512, 4096, disk.DefaultCostModel())
	logVol := disk.MustNewVolume(512, 1024, disk.DefaultCostModel())
	s, err := Format(vol, logVol, Options{RangeLocking: true})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := s.Create("v", 0)
	base := pat(90, 6000)
	if err := o.Append(base); err != nil {
		t.Fatal(err)
	}
	ob, _ := s.Create("w", 0)
	if err := ob.Append(pat(91, 500)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	loser, _ := s.Begin()
	if err := loser.Replace("v", 2000, pat(92, 300)); err != nil {
		t.Fatal(err)
	}
	winner, _ := s.Begin()
	if err := winner.Replace("w", 0, pat(93, 100)); err != nil {
		t.Fatal(err)
	}
	if err := winner.Commit(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{RangeLocking: true})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := s2.Open("v")
	got, _ := v.Read(0, v.Size())
	if !bytes.Equal(got, base) {
		t.Error("loser replace survived under range locking")
	}
}
