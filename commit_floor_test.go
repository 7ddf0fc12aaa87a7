package eos

import (
	"bytes"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
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

// forcedVolume is a simulated data volume that counts its forces, which the
// simulator's Stats leave out.
type forcedVolume struct {
	*disk.Volume
	forces atomic.Int64
}

func (v *forcedVolume) ForceAll() error {
	v.forces.Add(1)
	return v.Volume.ForceAll()
}

// dataForces returns how many times s has forced its data volume, which
// floorStore made a forcedVolume.
func dataForces(s *Store) int64 { return s.vol.(*forcedVolume).forces.Load() }

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
	return floorStoreWith(t, Options{}, names...)
}

// floorStoreWith is floorStore on a store made with opts.
func floorStoreWith(t *testing.T, opts Options, names ...string) (s *Store, logVol *gatedLog, data, log *[]disk.TraceEvent, model map[string][]byte) {
	t.Helper()
	vol := &forcedVolume{Volume: disk.MustNewVolume(512, 4096, disk.DefaultCostModel())}
	logVol = &gatedLog{
		Volume:  disk.MustNewVolume(512, 1024, disk.DefaultCostModel()),
		entered: make(chan struct{}), release: make(chan struct{}),
	}
	s, err := Format(vol, logVol, opts)
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
	return appendTxn(t, s, name, model, seed, off, 700)
}

// appendTxn is smallTxn with an append of n bytes.
func appendTxn(t *testing.T, s *Store, name string, model map[string][]byte, seed int, off int64, n int) *Txn {
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
	more := pat(seed, n)
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
	st0, f0, logTail0 := s.Stats(), dataForces(s), s.LogTail()
	tailBytes := int64(len(model["x"])) - 6000 // the warm-up append opened a tail segment behind the first 6000 bytes
	if err := smallTxn(t, s, "x", model, 70, 3100).Commit(); err != nil {
		t.Fatal(err)
	}
	st, logTail := s.Stats(), s.LogTail()

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
	if got := dataForces(s) - f0; got != 0 {
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
	// one leaf entry it grew.
	hdr := recordHeader(t, s)
	if want := 3*hdr + 200 + 700 + extentBytes; recBytes != want {
		t.Errorf("the commit logged %d bytes of records, want %d: three %d-byte headers, the replace's 200 bytes, the append's 700 and its entry's %d", recBytes, want, hdr, extentBytes)
	}
	if want := (recBytes + ps - 1) / ps; int64(pages[warm]) != want {
		t.Errorf("the commit wrote %d log pages for %d bytes of records, want %d", pages[warm], recBytes, want)
	}
	if got := st.WAL.LeaderForces - st0.WAL.LeaderForces; got != 1 {
		t.Errorf("%d leader forces, want 1", got)
	}
	if grew, wrote := logTail-logTail0, recBytes+st.WAL.PadBytes-st0.WAL.PadBytes; grew != wrote || grew != int64(pages[warm])*ps {
		t.Errorf("log tail grew by %d bytes, records and padding written are %d, pages written %d", grew, wrote, pages[warm])
	}
	if !bytes.Equal(readObject(t, s, "x"), model["x"]) {
		t.Fatal("content wrong after commit")
	}
}

// TestCommitFloorAlignedReplaceReadsNothing: a transaction's replace of
// whole pages that no read before it kept keeps no byte of them, so it
// plans without reading: the commit makes no data request at all.
func TestCommitFloorAlignedReplaceReadsNothing(t *testing.T) {
	s, _, data, _, model := floorStore(t, "x")
	ps := s.PageSize()
	off, repl := int64(6*ps), pat(71, 2*ps) // pages 6 and 7 of x's first segment
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Replace("x", off, repl); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(*data) != 0 {
		t.Fatalf("data requests %+v, want none: the replace keeps no byte of its pages", *data)
	}
	copy(model["x"][off:], repl)
	if !bytes.Equal(readObject(t, s, "x"), model["x"]) {
		t.Fatal("content wrong after commit")
	}
}

// fillRoom returns the bytes of room behind x's open tail, a segment of
// T = 8 pages.
func fillRoom(t *testing.T, s *Store) int {
	t.Helper()
	segs, err := s.catalog["x"].obj.Segments()
	if err != nil {
		t.Fatal(err)
	}
	return 8*s.PageSize() - int(segs[len(segs)-1].Bytes)
}

// besideTail arranges that the allocator's next run is the 8 pages right
// behind x's open tail: it takes all the free space but those pages, and
// returns a func that gives it back.
func besideTail(t *testing.T, s *Store) func() {
	t.Helper()
	segs, err := s.catalog["x"].obj.Segments()
	if err != nil {
		t.Fatal(err)
	}
	behind := segs[len(segs)-1].StartPage + 8
	var taken []lob.PageRun
	for {
		p, n, err := s.buddy.AllocUpTo(s.buddy.MaxSegmentPages())
		if err != nil {
			break
		}
		if p <= behind && behind+8 <= p+disk.PageNum(n) {
			taken = append(taken, lob.PageRun{Start: p, Pages: int(behind - p)}, lob.PageRun{Start: behind + 8, Pages: int(p + disk.PageNum(n) - behind - 8)})
			continue
		}
		taken = append(taken, lob.PageRun{Start: p, Pages: n})
	}
	if err := s.buddy.Free(behind, 8); err != nil {
		t.Fatalf("the 8 pages behind the tail at %d were not free: %v", behind-8, err)
	}
	return func() {
		for _, r := range taken {
			if r.Pages > 0 {
				if err := s.buddy.Free(r.Start, r.Pages); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// filledSegments returns x's last two segments, which must be a closed tail
// that filled its 8 pages and an open tail right behind it on the volume.
func filledSegments(t *testing.T, s *Store) (closed, open lob.SegmentInfo) {
	t.Helper()
	segs, err := s.catalog["x"].obj.Segments()
	if err != nil {
		t.Fatal(err)
	}
	closed, open = segs[len(segs)-2], segs[len(segs)-1]
	if closed.Pages != 8 || open.StartPage != closed.StartPage+8 {
		t.Fatalf("segments %+v, want a full 8-page tail and a new one right behind it", segs)
	}
	return closed, open
}

// TestCommitFloorFilledTail: commit_small's transaction whose append fills
// its tail's room and puts 700 bytes in a new tail writes nothing on the data
// volume and forces nothing there: the filled tail waits in the write-behind
// set, closed, beside the new one, and the append's record carries every
// byte it appended by value, with the two leaf entries.  The next checkpoint
// writes the two tails as one run; a crash before it recovers the bytes from
// the log alone; an abort leaves the object, its open tail and the pending
// images of its committed bytes as they were.
func TestCommitFloorFilledTail(t *testing.T) {
	// fill commits the transaction on s, made by floorStore, replacing bytes
	// at off, on a page no other replace has left pending; want is the pages
	// of tails pending behind it.
	fill := func(t *testing.T, s *Store, data *[]disk.TraceEvent, model map[string][]byte, off int64, want int64) {
		t.Helper()
		hdr := recordHeader(t, s)
		*data = nil
		st0, f0 := s.Stats(), dataForces(s)
		n := fillRoom(t, s) + 700
		if err := appendTxn(t, s, "x", model, 70, off, n).Commit(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if d := *data; len(d) != 1 || d[0].Write {
			t.Fatalf("data requests %+v, want the read alone", d)
		}
		if got := dataForces(s) - f0; got != 0 {
			t.Fatalf("the commit forced the data volume %d times, want never", got)
		}
		if want := 3*hdr + 200 + int64(n) + 2*extentBytes; st.WAL.FlushedBytes-st0.WAL.FlushedBytes != want {
			t.Fatalf("the commit logged %d bytes of records, want %d: three %d-byte headers, the replace's 200 bytes, the append's %d and its two entries'",
				st.WAL.FlushedBytes-st0.WAL.FlushedBytes, want, hdr, n)
		}
		if tails := st.LOB.PendingPages - st.LOB.ReplacedPending; tails != want {
			t.Fatalf("%d pages pending, %d of them replaced; want %d of tails", st.LOB.PendingPages, st.LOB.ReplacedPending, want)
		}
		if !bytes.Equal(readObject(t, s, "x"), model["x"]) {
			t.Fatal("content wrong after the commit")
		}
	}

	t.Run("nothing written, the bytes by value", func(t *testing.T) {
		s, _, data, _, model := floorStore(t, "x")
		fill(t, s, data, model, 3100, 8+2) // the closed tail's 8, the new one's 2
		if st := s.Stats().LOB; st.ReplacedPending != 2 {
			t.Fatalf("%d replaced pages pending, want 2", st.ReplacedPending)
		}
	})

	// The allocator put the warm-up's tail at the volume's end; the next
	// one, the first fill's, goes where the second fill's new tail can
	// follow it.
	t.Run("the checkpoint writes both tails in one run", func(t *testing.T) {
		s, _, data, _, model := floorStore(t, "x")
		fill(t, s, data, model, 3100, 8+2)
		giveBack := besideTail(t, s)
		defer giveBack()
		fill(t, s, data, model, 4100, 8+8+2)
		closed, open := filledSegments(t, s)
		pending := s.Stats().LOB.PendingPages
		*data = nil
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runs := pendingRuns(t, *data, pending)
		if !slices.ContainsFunc(runs, func(ev disk.TraceEvent) bool {
			return ev.Start <= closed.StartPage && open.StartPage+2 <= ev.Start+disk.PageNum(ev.Pages)
		}) {
			t.Fatalf("the checkpoint's runs %+v hold pages %d..%d in no one request", runs, closed.StartPage, open.StartPage+1)
		}
		if st := s.Stats().LOB; st.PendingPages != 0 {
			t.Fatalf("%d pages pending after the checkpoint", st.PendingPages)
		}
		if !bytes.Equal(readObject(t, s, "x"), model["x"]) {
			t.Fatal("content wrong after the checkpoint")
		}
	})

	t.Run("a crash before the checkpoint", func(t *testing.T) {
		s, _, data, _, model := floorStore(t, "x")
		fill(t, s, data, model, 3100, 8+2)
		s = crashReopen(t, s.vol, s.logVol)
		if got := readObject(t, s, "x"); !bytes.Equal(got, model["x"]) {
			t.Fatalf("after the crash x holds %d bytes, not the %d committed", len(got), len(model["x"]))
		}
		if err := s.Check(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("an abort", func(t *testing.T) {
		s, _, data, _, model := floorStore(t, "x")
		e := s.catalog["x"]
		want, desc := bytes.Clone(model["x"]), e.obj.EncodeDescriptor()
		st0 := s.Stats()
		free, err := s.FreePages()
		if err != nil {
			t.Fatal(err)
		}
		tx := appendTxn(t, s, "x", model, 70, 3100, fillRoom(t, s)+700)
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if d := *data; len(d) != 1 || d[0].Write {
			t.Fatalf("data requests %+v, want the read alone", d)
		}
		if !bytes.Equal(e.obj.EncodeDescriptor(), desc) {
			t.Fatal("the abort left x another descriptor than before the transaction")
		}
		if !bytes.Equal(readObject(t, s, "x"), want) {
			t.Fatal("content wrong after the abort")
		}
		if st := s.Stats().LOB; st.PendingPages != st0.LOB.PendingPages || st.ReplacedPending != st0.LOB.ReplacedPending {
			t.Fatalf("%d pages pending, %d replaced, after the abort; %d and %d before the transaction",
				st.PendingPages, st.ReplacedPending, st0.LOB.PendingPages, st0.LOB.ReplacedPending)
		}
		if got, err := s.FreePages(); err != nil || got != free {
			t.Fatalf("%d pages free after the abort, %d before (err %v)", got, free, err)
		}
		// The tail is open again, its pages pending: the next append
		// continues it without a request.
		o, err := s.Open("x")
		if err != nil {
			t.Fatal(err)
		}
		*data = nil
		more := pat(71, 100)
		if err := o.Append(more); err != nil {
			t.Fatal(err)
		}
		if len(*data) != 0 {
			t.Fatalf("the append behind the abort issued %+v, want nothing", *data)
		}
		if !bytes.Equal(readObject(t, s, "x"), append(want, more...)) {
			t.Fatal("content wrong after the append")
		}
	})
}

// TestCommitFloorFilledTailPastTheLogShare: with the log busy, half its
// capacity in use (wal.Log.Busy), the same transaction writes the filled tail through — the
// pending pages before the room with it, one request — forces the data volume
// before its commit record, and logs by value only the 700 bytes the new tail
// keeps.
func TestCommitFloorFilledTailPastTheLogShare(t *testing.T) {
	s, _, data, _, model := floorStore(t, "x")
	hdr := recordHeader(t, s)
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for !s.log.Busy() {
		if err := tx.Replace("x", 0, model["x"][:6000]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	segs, err := s.catalog["x"].obj.Segments()
	if err != nil {
		t.Fatal(err)
	}
	tail := segs[1].StartPage
	*data = nil
	st0, f0 := s.Stats(), dataForces(s)
	n := fillRoom(t, s) + 700
	if err := appendTxn(t, s, "x", model, 70, 3100, n).Commit(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	var writes []disk.TraceEvent
	for _, ev := range *data {
		if ev.Write {
			writes = append(writes, ev)
		}
	}
	if len(writes) != 1 || writes[0].Start != tail || writes[0].Pages != 8 {
		t.Fatalf("data writes %+v, want one of the tail's 8 pages from %d", writes, tail)
	}
	if got := dataForces(s) - f0; got != 1 {
		t.Fatalf("the commit forced the data volume %d times, want once", got)
	}
	if want := 3*hdr + 200 + 700 + 2*extentBytes; st.WAL.FlushedBytes-st0.WAL.FlushedBytes != want {
		t.Fatalf("the commit logged %d bytes of records, want %d: three %d-byte headers, the replace's 200 bytes, the new tail's 700 and two entries",
			st.WAL.FlushedBytes-st0.WAL.FlushedBytes, want, hdr)
	}
	if !bytes.Equal(readObject(t, s, "x"), model["x"]) {
		t.Fatal("content wrong after the commit")
	}
	s = crashReopen(t, s.vol, s.logVol)
	if !bytes.Equal(readObject(t, s, "x"), model["x"]) {
		t.Fatal("content wrong after a crash")
	}
}

// recordHeader returns the bytes a log record takes beyond its payload,
// measured as the create record of a one-byte name, in a transaction that
// then aborts.
func recordHeader(t *testing.T, s *Store) int64 {
	t.Helper()
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
	return hdr
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
