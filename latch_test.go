package eos

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

// TestStripeCommitsShareBoundaryPages runs eight clients that each commit
// replaces of their own 1 000-byte stripe of one object.  The stripes share
// 512-byte pages, so a commit hands the write-behind set pages that also
// hold a neighbour's committed bytes, over the images an earlier commit
// left there: each replace must plan on the newest image of its boundary
// pages, and the set must keep the last one.
func TestStripeCommitsShareBoundaryPages(t *testing.T) {
	s, vol, logVol := newStore(t, Options{LockTimeout: 5 * time.Second})
	o, _ := s.Create("stripes", 0)
	const stripes = 8
	const stripeLen = 1000
	const rounds = 5
	if err := o.Append(make([]byte, stripes*stripeLen)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // the object outlives a crash
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < stripes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
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
	var want []byte
	for i := 0; i < stripes; i++ {
		want = append(want, pat(i*10+rounds-1, stripeLen)...)
	}
	if got := readObject(t, s, "stripes"); !bytes.Equal(got, want) {
		t.Fatal("a stripe holds the wrong round")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
	// The pages still pending live in the log alone: recovery redoes them.
	if got := readObject(t, crashReopen(t, vol, logVol), "stripes"); !bytes.Equal(got, want) {
		t.Fatal("a stripe holds the wrong round after crash and recovery")
	}
}

// TestWritersLatchTheTree ends structural transactions beside a
// non-transactional reader of the object's prefix, by abort and by commit.
// The prefix read takes no latch: it reads the last committed version, which
// no transaction changes before it commits.  Beside it the reader lists the
// segments, a diagnostic that walks the live tree under the shared latch, so
// the abort's reinstatement of the root and every rebind of the tree's
// allocator must take the write latch; under -race a missing latch shows as
// a report.  Each transaction also replaces inserted bytes and reads them
// back.
func TestWritersLatchTheTree(t *testing.T) {
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
			s, _, _ := newStore(t, Options{LockTimeout: 5 * time.Second})
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
					// Checkpoints beside the latch holders keep the log short.
					if i%100 == 0 {
						if err := s.Checkpoint(); err != nil {
							readErr <- err
							return
						}
					}
					got, err := o.Read(0, 4096)
					if err == nil && !bytes.Equal(got, base[:4096]) {
						err = errors.New("reader saw a changed prefix")
					}
					if err == nil {
						_, err = o.Segments()
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
				if werr = tx.Replace("doc", 100500, pat(96+i, 1000)); werr != nil {
					break
				}
				if _, werr = tx.Read("doc", 100000, 3000); werr != nil {
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
			if got := readObject(t, s, "doc"); !bytes.Equal(got, base) {
				t.Error("the writer's transactions left the object changed")
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplacesOfSharedPagesTakeTheWriteLatch runs non-transactional
// Replaces of adjacent byte ranges of one object, each writer owning one
// stripe, beside two readers: a transaction's, which reads the live tree
// under the shared latch, and an Object read, which takes no latch and reads
// the last committed version.  The stripes are not page-aligned, so
// neighbours share boundary pages, and a Replace rewrites its boundary pages
// whole: two writers in one page at once would each write back the other's
// old bytes.  The write latch keeps them apart and keeps the transaction's
// reader out while a Replace runs; a Replace's pages reach the write-behind
// set at its commit point, all at once, so neither reader may ever see a
// stripe half-written.  Every round all writers replace at once, and then
// the object must hold what each wrote.
func TestReplacesOfSharedPagesTakeTheWriteLatch(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	o, _ := s.Create("shared", 0)
	const stripes = 8
	const stripeLen = 700 // not a multiple of the 512-byte page
	const rounds = 100
	// In round r stripe i is the byte fill(i, r) throughout; round -1 is
	// the object as appended.
	fill := func(i, r int) []byte { return bytes.Repeat([]byte{byte(i*rounds + r + 1)}, stripeLen) }
	model := make([]byte, stripes*stripeLen)
	for i := 0; i < stripes; i++ {
		copy(model[i*stripeLen:], fill(i, -1))
	}
	if err := o.Append(model); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	readErr := make(chan error, 2)
	reader := func(read func() ([]byte, error)) {
		for {
			select {
			case <-done:
				readErr <- nil
				return
			default:
			}
			got, err := read()
			for i := 0; err == nil && i < stripes; i++ {
				stripe := got[i*stripeLen : (i+1)*stripeLen]
				if !bytes.Equal(stripe, bytes.Repeat(stripe[:1], stripeLen)) {
					err = fmt.Errorf("the reader saw stripe %d half-written", i)
				}
			}
			if err != nil {
				readErr <- err
				return
			}
		}
	}
	go reader(func() ([]byte, error) {
		tx, err := s.Begin()
		if err != nil {
			return nil, err
		}
		got, err := tx.Read("shared", 0, int64(len(model)))
		if aerr := tx.Abort(); err == nil {
			err = aerr
		}
		return got, err
	})
	go reader(func() ([]byte, error) { return o.Read(0, int64(len(model))) })
	for r := 0; r < rounds && !t.Failed(); r++ {
		var wg sync.WaitGroup
		for i := 0; i < stripes; i++ {
			copy(model[i*stripeLen:], fill(i, r))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := o.Replace(int64(i*stripeLen), fill(i, r)); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		got, err := o.Read(0, o.Size())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < stripes; i++ {
			if lo, hi := i*stripeLen, (i+1)*stripeLen; !bytes.Equal(got[lo:hi], model[lo:hi]) {
				t.Errorf("round %d: stripe %d lost its replace", r, i)
			}
		}
	}
	close(done)
	for range 2 {
		if err := <-readErr; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// readingVolume is a data volume that runs onWrite, while it is set, before
// each write.
type readingVolume struct {
	disk.Device
	onWrite func()
}

func (v *readingVolume) WritePages(start disk.PageNum, n int, buf []byte) error {
	if v.onWrite != nil {
		v.onWrite()
	}
	return v.Device.WritePages(start, n, buf)
}

func (v *readingVolume) WriteRun(start disk.PageNum, pages [][]byte) error {
	if v.onWrite != nil {
		v.onWrite()
	}
	return v.Device.WriteRun(start, pages)
}

// TestObjectReadSeesAReplaceWhole replaces a range of x that spans two
// segments, and reads that range with Object.Read whenever the data volume
// is about to write — during the Replace, and during the checkpoint behind
// it.  A Replace is a commit point like every Object
// write: the read must return all the old bytes or all the new ones, never
// one segment's new bytes beside the other's old ones.
func TestObjectReadSeesAReplaceWhole(t *testing.T) {
	vol := &readingVolume{Device: newTestDevice(t, 512, 4096)}
	s, err := Format(vol, newTestDevice(t, 512, 1024), Options{})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := s.Create("x", 0)
	old := append(pat(1, 3000), pat(2, 3000)...)
	for _, part := range [][]byte{old[:3000], old[3000:]} {
		if err := o.AppendWithHint(part, 3000); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := s.catalog["x"].obj.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("x has %d segments, want 2", len(segs))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	const off, n = 2500, 1000
	repl := pat(3, n)
	reads := 0
	vol.onWrite = func() {
		reads++
		got, err := o.Read(off, n)
		if err != nil {
			t.Error(err)
		} else if !bytes.Equal(got, old[off:off+n]) && !bytes.Equal(got, repl) {
			t.Errorf("read %d, beside a write, saw the replace in part", reads)
		}
	}
	if err := o.Replace(off, repl); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	vol.onWrite = nil
	if reads == 0 {
		t.Fatal("nothing wrote to the data volume")
	}
	want := append([]byte{}, old...)
	copy(want[off:], repl)
	if !bytes.Equal(readObject(t, s, "x"), want) {
		t.Fatal("x does not hold the replace")
	}
}

// TestCheckBesideAnInsertingTransaction runs Store.Check in a loop beside a
// transaction that inserts into the object it walks.  Check collects the
// catalog under the store's lock and walks each tree under its object's
// shared latch, once that lock is released: the transaction's splice, which
// holds the write latch, never changes a tree under the walk.
func TestCheckBesideAnInsertingTransaction(t *testing.T) {
	s, _, _, base := replaceStore(t, Options{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Check(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	want := base
	for i := 0; i < 40; i++ {
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		off, ins := (i*731)%len(want), pat(90+i, 300)
		if err := tx.Insert("x", int64(off), ins); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want = append(append(append([]byte{}, want[:off]...), ins...), want[off:]...)
	}
	close(done)
	wg.Wait()
	if !bytes.Equal(readObject(t, s, "x"), want) {
		t.Fatal("x is not its committed inserts")
	}
}
