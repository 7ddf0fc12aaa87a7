package eos

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// The data path reads whole pages straight into the caller's buffer and
// writes an append's whole pages straight from the caller's slice.  What
// the engine keeps after a call returns — a pending run, a read's kept page
// images, a replace plan — must be memory of its own.

// TestAppendsDoNotRetainTheCallersSlice appends through every append call
// from one reused slice of whole pages, overwriting it after each call, and
// reads every object back live, through snapshots, after a checkpoint and
// after a crash and recovery.  A snapshot reader and a checkpointer run
// beside the appends: a pending run that aliased the caller's slice would
// be read by the one and written by the other while the caller overwrites
// it.
func TestAppendsDoNotRetainTheCallersSlice(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	ps := vol.PageSize()
	names := []string{"plain", "appender", "hinted", "txn"}
	const roundsA, roundsB = 5, 2
	// Appends only: every read of an object, at any moment, is a prefix of
	// what it ends with.
	chunk := func(obj, round int) []byte { return pat(10*round+obj+1, 2*ps) }
	final := map[string][]byte{}
	for i, name := range names {
		if _, err := s.Create(name, 0); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < roundsA+roundsB; r++ {
			final[name] = append(final[name], chunk(i, r)...)
		}
	}
	model := map[string][]byte{}
	buf := make([]byte, 2*ps) // the caller's slice
	appended := func(name string, i, r int) {
		model[name] = append(model[name], chunk(i, r)...)
		for k := range buf {
			buf[k] = 0xEE
		}
	}
	txnAppend := func(name string) error {
		tx, err := s.Begin()
		if err != nil {
			return err
		}
		if err := tx.Append(name, buf); err != nil {
			_ = tx.Abort()
			return err
		}
		return tx.Commit()
	}
	expectPrefixes := func(what string) {
		t.Helper()
		for _, name := range names {
			if got := readObject(t, s, name); !bytes.Equal(got, model[name]) {
				t.Fatalf("%s: live read of %s differs from what was appended", what, name)
			}
			sn, err := s.OpenSnapshot(name)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, sn.Size())
			_, err = sn.ReadAt(got, 0)
			_ = sn.Close()
			if err != nil || !bytes.Equal(got, model[name]) {
				t.Fatalf("%s: snapshot read of %s differs from what was appended (err %v)", what, name, err)
			}
		}
	}

	ao, err := s.Open("appender")
	if err != nil {
		t.Fatal(err)
	}
	app := ao.OpenAppender(0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	wg.Add(2)
	go func() { // snapshot reader
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, name := range names {
				sn, err := s.OpenSnapshot(name)
				if errors.Is(err, ErrNotFound) {
					continue // nothing published yet
				}
				if err != nil {
					t.Error(err)
					return
				}
				if sn.Size() == 0 {
					_ = sn.Close()
					continue
				}
				got := make([]byte, sn.Size())
				_, err = sn.ReadAt(got, 0)
				_ = sn.Close()
				if err != nil || !bytes.Equal(got, final[name][:len(got)]) {
					t.Errorf("snapshot of %s: %d bytes, err %v, not a prefix of the appends", name, len(got), err)
					return
				}
			}
		}
	}()
	go func() { // checkpointer: writes the pending runs
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < roundsA; r++ {
		for i, name := range names {
			copy(buf, chunk(i, r))
			o, err := s.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			switch name {
			case "plain":
				err = o.Append(buf)
			case "appender":
				_, err = app.Write(buf)
			case "hinted":
				err = o.AppendWithHint(buf, int64(len(buf)))
			case "txn":
				err = txnAppend(name)
			}
			if err != nil {
				t.Fatalf("%s append: %v", name, err)
			}
			appended(name, i, r)
		}
	}
	stop()
	if t.Failed() {
		return
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	expectPrefixes("after the appends")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	expectPrefixes("after a checkpoint")

	// Committed appends left pending, then a power cut: recovery redoes
	// them from the log on top of what the checkpoint wrote.
	for r := roundsA; r < roundsA+roundsB; r++ {
		for i, name := range names {
			copy(buf, chunk(i, r))
			if err := txnAppend(name); err != nil {
				t.Fatal(err)
			}
			appended(name, i, r)
		}
	}
	if s.Stats().LOB.PendingPages == 0 {
		t.Fatal("no committed append left its pages pending")
	}
	expectPrefixes("after the committed appends")
	expectRecovered(t, crashReopen(t, vol, logVol), model)
}

// TestReadsLandInTheCallersBuffer: a page-aligned read of whole pages over a
// multi-segment object transfers each segment piece into the caller's
// buffer and allocates less than a page; every other read — unaligned, ending
// in a pending run, or keeping its page images for a replace — returns the
// object's bytes, and a replace that takes a read's images leaves the bytes
// that read returned alone.  With readers=n, n goroutines read live and n
// through a snapshot at once, each into its own buffer.
func TestReadsLandInTheCallersBuffer(t *testing.T) {
	for _, readers := range []int{1, 5} {
		t.Run(fmt.Sprintf("readers=%d", readers), func(t *testing.T) {
			s, vol, _ := newStore(t, Options{})
			ps := vol.PageSize()
			o, err := s.Create("x", 0)
			if err != nil {
				t.Fatal(err)
			}
			var model []byte
			for i, kb := range []int{48, 80, 64, 96, 64, 48, 112} {
				seg := pat(i+1, kb<<10)
				if err := o.AppendWithHint(seg, int64(len(seg))); err != nil {
					t.Fatal(err)
				}
				model = append(model, seg...)
			}
			// The hinted appends' pages wait for a checkpoint; write them.
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// A plain append leaves a segment of two pages pending.
			more := pat(9, 2*ps)
			if err := o.Append(more); err != nil {
				t.Fatal(err)
			}
			model = append(model, more...)
			if got := s.Stats().LOB.PendingPages; got != 2 {
				t.Fatalf("%d pages pending, want 2", got)
			}
			size := int64(len(model))
			rows := []struct {
				name   string
				off, n int64
			}{
				{"page-aligned", 64 << 10, 256 << 10},
				{"unaligned", 1000, 200_000},
				{"ends in the pending run", size - 6*int64(ps), 6 * int64(ps)},
				{"ends in the pending run, unaligned", size - 5000, 4321},
			}
			check := func(t *testing.T, read func(buf []byte, off int64) error) {
				for _, row := range rows {
					buf := make([]byte, row.n)
					if err := read(buf, row.off); err != nil {
						t.Errorf("%s: %v", row.name, err)
						return
					}
					if !bytes.Equal(buf, model[row.off:row.off+row.n]) {
						t.Errorf("%s: read differs from the object", row.name)
						return
					}
				}
			}
			sn, err := s.OpenSnapshot("x")
			if err != nil {
				t.Fatal(err)
			}
			defer sn.Close()
			var wg sync.WaitGroup
			wg.Add(2 * readers)
			for i := 0; i < readers; i++ {
				go func() {
					defer wg.Done()
					check(t, o.ReadAt)
				}()
				go func() {
					defer wg.Done()
					check(t, func(buf []byte, off int64) error { _, err := sn.ReadAt(buf, off); return err })
				}()
			}
			wg.Wait()

			buf := make([]byte, 256<<10)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(20, func() {
				if err := o.ReadAt(buf, 64<<10); err != nil {
					t.Fatal(err)
				}
			})
			runtime.ReadMemStats(&after)
			perRead := (after.TotalAlloc - before.TotalAlloc) / 21 // AllocsPerRun runs once more to warm up
			if perRead >= uint64(ps) {
				t.Errorf("a page-aligned 256 KB read allocated %d bytes in %.0f allocations, want under one page (%d bytes)", perRead, allocs, ps)
			}

			// A transaction reads whole pages of one segment and replaces
			// them: the replace writes into the read's page images, which
			// must not be the bytes the read returned.
			tx, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			off, n := int64(128<<10), int64(8*ps)
			got, err := tx.Read("x", off, n)
			if err != nil {
				t.Fatal(err)
			}
			saved := s.Stats().ReplaceReadsSaved
			repl := pat(77, int(n))
			if err := tx.Replace("x", off, repl); err != nil {
				t.Fatal(err)
			}
			if d := s.Stats().ReplaceReadsSaved - saved; d != 1 {
				t.Fatalf("the replace took %d page runs from the read, want 1", d)
			}
			if !bytes.Equal(got, model[off:off+n]) {
				t.Fatal("the replace changed the bytes the read before it returned")
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			copy(model[off:], repl)
			if got := readObject(t, s, "x"); !bytes.Equal(got, model) {
				t.Fatal("object differs after the replace")
			}
		})
	}
}
