package eos

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

// The commit path's request floor, executable, in the manner of
// internal/lob/floor_test.go: the small transaction of commit_small — read,
// replace those bytes, append, commit — on a warmed object must issue
// exactly the device requests recovery can use.  Data volume: the read, the
// append's one write into the open tail, the replace's in-place write, the
// catalog delta.  Log volume: ONE write, of ceil(record bytes / page) pages,
// that continues where the previous commit's force ended — no reposition,
// and no page an earlier force wrote.  A request more on either volume
// fails here before it reaches the benchmark.

// gatedLog is a simulated log volume whose writes can be held: while armed,
// a write announces itself on entered and waits for release.
type gatedLog struct {
	*disk.Volume
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gatedLog) WritePages(start disk.PageNum, n int, buf []byte) error {
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Volume.WritePages(start, n, buf)
}

// floorStore formats a store on traced simulated volumes, creates the named
// objects (6000 bytes each) and runs one small transaction on each, so that
// every tail is open and remembered and the log's last request is a commit's
// force.  The returned slices collect every later request.
func floorStore(t *testing.T, names ...string) (s *Store, logVol *gatedLog, data, log *[]disk.TraceEvent, model map[string][]byte) {
	t.Helper()
	vol := disk.MustNewVolume(512, 4096, disk.DefaultCostModel())
	logVol = &gatedLog{
		Volume:  disk.MustNewVolume(512, 1024, disk.DefaultCostModel()),
		entered: make(chan struct{}), release: make(chan struct{}),
	}
	s, err := Format(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	model = map[string][]byte{}
	for i, name := range names {
		o, err := s.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		model[name] = pat(40+i, 6000)
		if err := o.Append(model[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, log = new([]disk.TraceEvent), new([]disk.TraceEvent)
	logVol.SetTracer(func(ev disk.TraceEvent) { *log = append(*log, ev) })
	for i, name := range names {
		if err := smallTxn(t, s, name, model, 60+i).Commit(); err != nil {
			t.Fatal(err)
		}
	}
	vol.SetTracer(func(ev disk.TraceEvent) { *data = append(*data, ev) })
	return s, logVol, data, log, model
}

// smallTxn runs commit_small's transaction on the named object up to, not
// including, its commit: read 200 bytes of one page, replace them with
// themselves, append 700.
func smallTxn(t *testing.T, s *Store, name string, model map[string][]byte, seed int) *Txn {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx.Read(name, 1100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Replace(name, 1100, got); err != nil {
		t.Fatal(err)
	}
	more := pat(seed, 700)
	if err := tx.Append(name, more); err != nil {
		t.Fatal(err)
	}
	model[name] = append(model[name], more...)
	return tx
}

// checkLogWrites requires the traced log requests to be writes only, each
// beginning on the page behind the one before it without a reposition (the
// first continues whatever preceded the trace), and returns their sizes.
func checkLogWrites(t *testing.T, log []disk.TraceEvent) (pages []int) {
	t.Helper()
	for i, ev := range log {
		if !ev.Write {
			t.Fatalf("log request %d is a read: %+v", i, ev)
		}
		if i > 0 {
			if prev := log[i-1]; ev.Start != prev.Start+disk.PageNum(prev.Pages) || ev.Seek {
				t.Errorf("log write %d %+v does not continue write %d %+v: a log page written twice, or a reposition between two forces", i, ev, i-1, prev)
			}
		}
		pages = append(pages, ev.Pages)
	}
	return pages
}

func TestCommitFloor(t *testing.T) {
	s, _, data, log, model := floorStore(t, "x")
	ps := int64(s.PageSize())
	warm := len(*log)
	st0 := s.Stats()
	tailBytes := int64(len(model["x"])) % ps
	if err := smallTxn(t, s, "x", model, 70).Commit(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()

	// Data volume: read, append, in-place replace, catalog delta — in that
	// order, the last inside the catalog region.
	d := *data
	if len(d) != 4 || d[0].Write || !d[1].Write || !d[2].Write || !d[3].Write {
		t.Fatalf("data requests %+v, want one read and three writes", d)
	}
	if d[0].Pages != 1 || d[2].Start != d[0].Start || d[2].Pages != 1 {
		t.Errorf("read %+v and in-place write %+v, want the one page that holds bytes 1100..1299", d[0], d[2])
	}
	if want := (tailBytes + 700 + ps - 1) / ps; int64(d[1].Pages) != want {
		t.Errorf("append wrote %d pages, want %d: the open tail's partial page of %d bytes on, 700 more", d[1].Pages, want, tailBytes)
	}
	if first := disk.PageNum(1); d[3].Start < first || d[3].Start >= first+disk.PageNum(catalogRegionPages(s.opts)) || d[3].Pages != 1 {
		t.Errorf("last data write %+v, want a one-page catalog delta", d[3])
	}
	if got := st.Barrier.CatalogDeltaWrites - st0.Barrier.CatalogDeltaWrites; got != 1 {
		t.Errorf("%d catalog deltas, want 1", got)
	}

	// Log volume: one write behind the warm-up commit's, sized by the
	// records alone.
	pages := checkLogWrites(t, *log)
	if len(pages) != warm+1 {
		t.Fatalf("%d log writes for one commit, want 1: %+v", len(pages)-warm, (*log)[warm:])
	}
	recBytes := st.WAL.FlushedBytes - st0.WAL.FlushedBytes
	if want := (recBytes + ps - 1) / ps; int64(pages[warm]) != want {
		t.Errorf("the commit wrote %d log pages for %d bytes of records, want %d", pages[warm], recBytes, want)
	}
	if got := st.WAL.LeaderForces - st0.WAL.LeaderForces; got != 1 {
		t.Errorf("%d leader forces, want 1", got)
	}
	if grew, wrote := st.LogLen-st0.LogLen, recBytes+st.WAL.PadBytes-st0.WAL.PadBytes; grew != wrote || grew != int64(pages[warm])*ps {
		t.Errorf("log tail grew by %d bytes, records and padding written are %d, pages written %d", grew, wrote, pages[warm])
	}
	if !bytes.Equal(readObject(t, s, "x"), model["x"]) {
		t.Fatal("content wrong after commit")
	}
}

// TestCommitFloorGrouped: two committers queue behind a force in flight;
// one of them leads for both.  Their commit records reach the log in ONE
// write, and it begins on the page behind the force they waited for.
func TestCommitFloorGrouped(t *testing.T) {
	s, logVol, _, log, model := floorStore(t, "a", "b", "c")
	txs := []*Txn{smallTxn(t, s, "a", model, 70), smallTxn(t, s, "b", model, 71), smallTxn(t, s, "c", model, 72)}
	warm := len(*log)
	st0 := s.Stats()
	done := make(chan error, len(txs))
	logVol.armed.Store(true)
	go func() { done <- txs[0].Commit() }()
	<-logVol.entered // the first committer's force holds the log volume
	for _, tx := range txs[1:] {
		go func() { done <- tx.Commit() }()
	}
	for s.Stats().WAL.Forces-st0.WAL.Forces < int64(len(txs)) {
		time.Sleep(time.Millisecond) // until both are queued behind it, commit records appended
	}
	logVol.armed.Store(false)
	logVol.release <- struct{}{}
	for range txs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	pages := checkLogWrites(t, *log)
	if len(pages) != warm+2 {
		t.Fatalf("%d log writes for three commits, two of them grouped; want 2: %+v", len(pages)-warm, (*log)[warm:])
	}
	if pages[warm+1] != 1 {
		t.Errorf("the grouped force wrote %d pages, want 1: two commit records", pages[warm+1])
	}
	if leads, pigs := st.WAL.LeaderForces-st0.WAL.LeaderForces, st.WAL.Piggybacks-st0.WAL.Piggybacks; leads != 2 || pigs != 1 {
		t.Errorf("%d leader forces and %d piggybacks, want 2 and 1", leads, pigs)
	}
	for name, want := range model {
		if !bytes.Equal(readObject(t, s, name), want) {
			t.Fatalf("%s: content wrong after commit", name)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}
