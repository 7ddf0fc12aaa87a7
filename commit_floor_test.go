package eos

import (
	"bytes"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

// The commit path's request floor, executable, in the manner of
// internal/lob/floor_test.go: the small transaction of commit_small — read,
// replace those bytes, append, commit — on a warmed object must issue
// exactly the device requests recovery can use.  Data volume: the read, and
// nothing else — the replaced page and the append's pages wait in the
// write-behind set until a checkpoint (or the set's budget, or the tail
// filling) writes them; no index page from the pool, nothing in the catalog
// region and no force: a commit is durable at its log force, and redo
// recovers it until the next barrier.  Log volume: ONE write, of ceil(record bytes / page) pages, that
// continues where the previous commit's force ended — no reposition, and no
// page an earlier force wrote — and carries no catalog record; the records
// carry the bytes redo needs and nothing more.  A request or a logged byte
// more fails here before it reaches the benchmark.

// gatedLog is a simulated log volume whose writes can be held: while armed,
// a write announces itself on entered and waits for release.
type gatedLog struct {
	*disk.Volume
	armed            atomic.Bool
	entered, release chan struct{}
}

// extentBytes is what one leaf entry adds to a structural record: its first
// page, an open tail's pages and its bytes.
const extentBytes = 8 + 4 + 8

func (g *gatedLog) WritePages(start disk.PageNum, n int, buf []byte) error {
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Volume.WritePages(start, n, buf)
}

// floorStore formats a store on traced simulated volumes, creates the named
// objects (6000 bytes each) and runs one small transaction on each, so that
// every tail is open, its pages pending, the page holding bytes 1100..1299
// pending too, and the log's last request is a commit's force.  The returned
// slices collect every later request.
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
		if err := smallTxn(t, s, name, model, 60+i, 1100).Commit(); err != nil {
			t.Fatal(err)
		}
	}
	vol.SetTracer(func(ev disk.TraceEvent) { *data = append(*data, ev) })
	return s, logVol, data, log, model
}

// smallTxn runs commit_small's transaction on the named object up to, not
// including, its commit: read 200 bytes of one page at off, replace them
// with themselves, append 700.
func smallTxn(t *testing.T, s *Store, name string, model map[string][]byte, seed int, off int64) *Txn {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx.Read(name, off, 200)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Replace(name, off, got); err != nil {
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
	tailBytes := int64(len(model["x"])) - 6000 // the warm-up append opened a tail segment behind the first 6000 bytes
	if err := smallTxn(t, s, "x", model, 70, 3100).Commit(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()

	// Data volume: the read, not on a master copy, and nothing else.  The
	// replaced page and the append's pages wait in the write-behind set,
	// which now holds the whole open tail and the two replaced pages, the
	// warm-up's and this one.
	d := *data
	if len(d) != 1 || d[0].Write || d[0].Pages != 1 {
		t.Fatalf("data requests %+v, want one read of the page that holds bytes 3100..3299, and no write", d)
	}
	if want := (tailBytes + 700 + ps - 1) / ps; st.LOB.PendingPages-st.LOB.ReplacedPending != want || st.LOB.ReplacedPending != 2 {
		t.Errorf("%d pages pending, %d of them replaced; want %d tail pages — the open tail's %d bytes and 700 more — and 2 replaced",
			st.LOB.PendingPages, st.LOB.ReplacedPending, want, tailBytes)
	}
	for _, ev := range d {
		if ev.Start < masterPages {
			t.Errorf("data request %+v lands on a master copy", ev)
		}
	}
	if got := st.Pool.Flushes - st0.Pool.Flushes; got != 0 {
		t.Errorf("the commit wrote %d pages from the pool, want none", got)
	}
	if got := st.Disk.Syncs - st0.Disk.Syncs; got != 0 {
		t.Errorf("the commit forced the data volume %d times, want never", got)
	}
	if st.Barrier != st0.Barrier {
		t.Errorf("the commit moved the barrier counters: %+v -> %+v", st0.Barrier, st.Barrier)
	}

	// Log volume: one write behind the warm-up commit's, sized by the
	// commit's records.
	pages := checkLogWrites(t, *log)
	if len(pages) != warm+1 {
		t.Fatalf("%d log writes for one commit, want 1: %+v", len(pages)-warm, (*log)[warm:])
	}
	recBytes := st.WAL.FlushedBytes - st0.WAL.FlushedBytes
	// Replace, append, commit: three headers — no record begins a
	// transaction — and the bytes redo needs.  The replace is written home
	// behind the commit record, so its record carries no pre-image.  The
	// append stays in the open tail: its record carries its bytes and the
	// one leaf entry it grew.  A header is measured as the create record of
	// a one-byte name, in a transaction that then aborts.
	tail := s.LogTail()
	ro, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Create("h", 0); err != nil {
		t.Fatal(err)
	}
	hdr := s.LogTail() - tail - 1
	if err := ro.Abort(); err != nil {
		t.Fatal(err)
	}
	if want := 3*hdr + 200 + 700 + extentBytes; recBytes != want {
		t.Errorf("the commit logged %d bytes of records, want %d: three %d-byte headers, the replace's 200 bytes, the append's 700 and its entry's %d", recBytes, want, hdr, extentBytes)
	}
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

// TestCommitFloorCoalescesAdjacentReplaces: commits of replaces write
// nothing, and the checkpoint writes their pages in address order, one
// request per maximal run of pending pages, ahead of the pool's writes.
//   - adjacent: two commits replace adjacent pages of one object; the
//     checkpoint writes the two pages in one request.
//   - scattered: twelve commits replace pages scattered over three objects,
//     some adjacent, some far apart; the checkpoint's first requests are the
//     pending pages' maximal runs, each once, in address order.
func TestCommitFloorCoalescesAdjacentReplaces(t *testing.T) {
	t.Run("adjacent", func(t *testing.T) {
		s, _, data, _, model := floorStore(t, "x")
		for i, off := range []int64{3100, 3600} { // pages 6 and 7 of the first segment
			if err := smallTxn(t, s, "x", model, 80+i, off).Commit(); err != nil {
				t.Fatal(err)
			}
		}
		noDataWrites(t, *data)
		segs, err := s.catalog["x"].obj.Segments()
		if err != nil {
			t.Fatal(err)
		}
		six := segs[0].StartPage + 6
		pending := s.Stats().LOB.PendingPages
		*data = nil
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		var covering []disk.TraceEvent
		for _, ev := range *data {
			if ev.Write && ev.Start <= six+1 && six <= ev.Start+disk.PageNum(ev.Pages)-1 {
				covering = append(covering, ev)
			}
		}
		if len(covering) != 1 || covering[0].Start != six || covering[0].Pages != 2 {
			t.Fatalf("the checkpoint wrote pages %d and %d in %+v, want one request of both", six, six+1, covering)
		}
		pendingRuns(t, *data, pending)
		if st := s.Stats().LOB; st.PendingPages != 0 || st.ReplacedCheckpointed != 3 {
			t.Fatalf("%d pages pending and %d replaced pages written by the checkpoint, want 0 and 3", st.PendingPages, st.ReplacedCheckpointed)
		}
		if !bytes.Equal(readObject(t, s, "x"), model["x"]) {
			t.Fatal("content wrong after the checkpoint")
		}
	})
	t.Run("scattered", func(t *testing.T) {
		names := []string{"x", "y", "z"}
		s, _, data, _, model := floorStore(t, names...)
		offs := []int64{100, 5000, 2600, 3100, 600, 4100} // pages 0, 9, 5, 6, 1, 8
		replaced := map[disk.PageNum]bool{}
		for i := 0; i < 12; i++ {
			name, off := names[i%3], offs[i%len(offs)]
			d := pat(90+i, 50)
			ckptCommit(t, s, func(tx *Txn) error { return tx.Replace(name, off, d) })
			copy(model[name][off:], d)
			segs, err := s.catalog[name].obj.Segments()
			if err != nil {
				t.Fatal(err)
			}
			replaced[segs[0].StartPage+disk.PageNum(off/512)] = true
		}
		noDataWrites(t, *data)
		pending := s.Stats().LOB.PendingPages
		*data = nil
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runs := pendingRuns(t, *data, pending)
		for p := range replaced {
			if !slices.ContainsFunc(runs, func(ev disk.TraceEvent) bool { return ev.Start <= p && p < ev.Start+disk.PageNum(ev.Pages) }) {
				t.Fatalf("replaced page %d is in none of the checkpoint's runs %+v", p, runs)
			}
		}
		if st := s.Stats().LOB; st.PendingPages != 0 {
			t.Fatalf("%d pages pending after the checkpoint", st.PendingPages)
		}
		for _, name := range names {
			if !bytes.Equal(readObject(t, s, name), model[name]) {
				t.Fatalf("%s wrong after the checkpoint", name)
			}
		}
	})
}

// noDataWrites fails the test if the traced data requests hold a write.
func noDataWrites(t *testing.T, data []disk.TraceEvent) {
	t.Helper()
	for _, ev := range data {
		if ev.Write {
			t.Fatalf("data requests %+v before the checkpoint, want reads only", data)
		}
	}
}

// pendingRuns checks that a checkpoint's first data requests write the
// pending pages — pending of them — in address order, one request per
// maximal run: no request begins where the one before it ended.  It returns
// those requests.
func pendingRuns(t *testing.T, data []disk.TraceEvent, pending int64) []disk.TraceEvent {
	t.Helper()
	var written int64
	for i, ev := range data {
		if written >= pending {
			return data[:i]
		}
		if !ev.Write || (i > 0 && ev.Start <= data[i-1].Start+disk.PageNum(data[i-1].Pages)) {
			t.Fatalf("the checkpoint's first requests %+v are not the pending pages' maximal runs in address order", data[:i+1])
		}
		written += int64(ev.Pages)
	}
	if written != pending {
		t.Fatalf("the checkpoint's first writes hold %d pages, %d were pending", written, pending)
	}
	return data
}

// indexPages returns the pages of the named object's index nodes below its
// root.
func indexPages(t *testing.T, s *Store, name string) map[disk.PageNum]bool {
	t.Helper()
	s.mu.Lock()
	e := s.catalog[name]
	s.mu.Unlock()
	runs, err := e.obj.ReachablePages()
	if err != nil {
		t.Fatal(err)
	}
	segs, err := e.obj.Segments()
	if err != nil {
		t.Fatal(err)
	}
	out := map[disk.PageNum]bool{}
	for _, r := range runs {
		for i := 0; i < r.Pages; i++ {
			out[r.Start+disk.PageNum(i)] = true
		}
	}
	for _, sg := range segs {
		for i := 0; i < sg.Pages; i++ {
			delete(out, sg.StartPage+disk.PageNum(i))
		}
	}
	return out
}

// indexedStore formats a store whose object "x" has a root over index
// pages, checkpointed, and returns it with the object's content.
func indexedStore(t *testing.T, vol, logVol disk.Device) (*Store, []byte) {
	t.Helper()
	s, err := Format(vol, logVol, Options{MaxRootEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 12; i++ {
		part := pat(80+i, 600)
		if err := o.AppendWithHint(part, int64(len(part))); err != nil {
			t.Fatal(err)
		}
		want = append(want, part...)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if u, err := o.Usage(); err != nil || u.TreeHeight != 2 {
		t.Fatalf("tree height %d (err %v), want 2: a root over index pages", u.TreeHeight, err)
	}
	return s, want
}

// TestCommitFloorLeavesIndexPagesInThePool: an insert into an object whose
// tree has an index level shadows the index node above the leaf it splits.
// The commit writes none of the new index pages — they stay dirty in the
// pool — and the next checkpoint writes every one of them.
func TestCommitFloorLeavesIndexPagesInThePool(t *testing.T) {
	vol := disk.MustNewVolume(512, 4096, disk.DefaultCostModel())
	s, want := indexedStore(t, vol, disk.MustNewVolume(512, 1024, disk.DefaultCostModel()))
	before := indexPages(t, s, "x")
	var writes []disk.TraceEvent
	vol.SetTracer(func(ev disk.TraceEvent) {
		if ev.Write {
			writes = append(writes, ev)
		}
	})
	written := func(p disk.PageNum) bool {
		for _, ev := range writes {
			if p >= ev.Start && p < ev.Start+disk.PageNum(ev.Pages) {
				return true
			}
		}
		return false
	}

	tx, _ := s.Begin()
	ins := pat(99, 300)
	if err := tx.Insert("x", 3000, ins); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want = append(want[:3000:3000], append(append([]byte{}, ins...), want[3000:]...)...)
	var shadowed []disk.PageNum
	for p := range indexPages(t, s, "x") {
		if !before[p] {
			shadowed = append(shadowed, p)
		}
	}
	if len(shadowed) == 0 {
		t.Fatal("the insert shadowed no index page")
	}
	for _, p := range shadowed {
		if written(p) {
			t.Errorf("the commit wrote index page %d", p)
		}
	}
	writes = nil
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, p := range shadowed {
		if !written(p) {
			t.Errorf("the checkpoint did not write index page %d", p)
		}
	}
	if !bytes.Equal(readObject(t, s, "x"), want) {
		t.Fatal("content wrong after commit")
	}
}

// TestCheckpointWritesReaderPinnedPages: a reader — a snapshot, or another
// transaction's Read — that holds a committed transaction's new index page
// pinned while a checkpoint runs does not keep the page off the device.  The
// image the checkpoint logs names the page, and the log behind it is
// truncated, so a crash right after must find the page written.
func TestCheckpointWritesReaderPinnedPages(t *testing.T) {
	vol, logVol := newTestDevice(t, 512, 4096), newTestDevice(t, 512, 1024)
	s, want := indexedStore(t, vol, logVol)
	before := indexPages(t, s, "x")
	tx, _ := s.Begin()
	ins := pat(99, 300)
	if err := tx.Insert("x", 3000, ins); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want = append(want[:3000:3000], append(append([]byte{}, ins...), want[3000:]...)...)
	var pinned []disk.PageNum
	for p := range indexPages(t, s, "x") {
		if before[p] {
			continue
		}
		if _, err := s.pool.Fix(p); err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, p)
	}
	if len(pinned) == 0 {
		t.Fatal("the insert shadowed no index page")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pinned {
		if err := s.pool.Unpin(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := vol.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := logVol.Crash(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(vol, logVol, Options{MaxRootEntries: 4})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	if !bytes.Equal(readObject(t, s, "x"), want) {
		t.Fatal("content wrong after crash and recovery")
	}
}

// TestCommitFloorGrouped: two committers queue behind a force in flight;
// one of them leads for both.  Their commit records reach the log in ONE
// write, and it begins on the page behind the force they waited for.
func TestCommitFloorGrouped(t *testing.T) {
	s, logVol, _, log, model := floorStore(t, "a", "b", "c")
	txs := []*Txn{smallTxn(t, s, "a", model, 70, 1100), smallTxn(t, s, "b", model, 71, 1100), smallTxn(t, s, "c", model, 72, 1100)}
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
