package eos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/wal"
)

// Tests of the catalog's durable form (catalog.go): the image each
// checkpoint logs, the two master copies naming it, torn images and torn
// master copies, a log that goes round over earlier images, and an image
// the log cannot hold.  They run on both backends through newTestDevice
// (EOS_TEST_BACKEND).

var errTorn = errors.New("injected torn write")

// tearDevice wraps a volume.  It reports every write to onWrite, and can
// tear the next write that touches pages [lo, hi): of a multi-page write
// only the first page reaches the device, of a one-page write only its
// first 40 bytes, over the old ones — durably, so the tear survives Crash —
// and the call fails.
type tearDevice struct {
	disk.Device
	onWrite func(start disk.PageNum, n int)
	armed   bool
	lo, hi  disk.PageNum
}

func (d *tearDevice) WritePages(start disk.PageNum, n int, buf []byte) error {
	if d.onWrite != nil {
		d.onWrite(start, n)
	}
	if !d.armed || start >= d.hi || start+disk.PageNum(n) <= d.lo {
		return d.Device.WritePages(start, n, buf)
	}
	d.armed = false
	ps := d.PageSize()
	page := buf[:ps]
	if n == 1 {
		old, err := d.Read(start, 1)
		if err != nil {
			return err
		}
		page = append(buf[:40:40], old[40:]...)
	}
	if err := d.Device.WritePages(start, 1, page); err != nil {
		return err
	}
	if err := d.Force(start, 1); err != nil {
		return err
	}
	return errTorn
}

// tearNext arms the tear for the next write touching pages [lo, hi).
func (d *tearDevice) tearNext(lo, hi disk.PageNum) { d.armed, d.lo, d.hi = true, lo, hi }

// newJournalStore formats a store over torn-able data and log volumes of
// 4096 and logPages pages.
func newJournalStore(t *testing.T, logPages disk.PageNum, opts Options) (*Store, *tearDevice, *tearDevice) {
	t.Helper()
	vol := &tearDevice{Device: newTestDevice(t, 512, 4096)}
	logVol := &tearDevice{Device: newTestDevice(t, 512, logPages)}
	s, err := Format(vol, logVol, opts)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return s, vol, logVol
}

// crashReopen cuts the power on both volumes and recovers.
func crashReopen(t *testing.T, vol, logVol disk.Device) *Store {
	t.Helper()
	if err := vol.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := logVol.Crash(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	return s
}

// expectObjects checks that s holds exactly the named objects with the
// given contents, and that its structures are sound.
func expectObjects(t *testing.T, s *Store, want map[string][]byte) {
	t.Helper()
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	if got := s.List(); fmt.Sprint(got) != fmt.Sprint(names) {
		t.Fatalf("objects = %v, want %v", got, names)
	}
	for n, data := range want {
		o, err := s.Open(n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.Read(0, o.Size())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("object %q: %d bytes, want %d (or content differs)", n, len(got), len(data))
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// durableNames reads the master copy recovery would load and returns the
// names in the image it names.
func durableNames(t *testing.T, s *Store) []string {
	t.Helper()
	var names []string
	for _, r := range durableImage(t, s) {
		names = append(names, r.name)
	}
	sort.Strings(names)
	return names
}

// durableImage reads the master copy recovery would load and returns the
// records of the image it names, in id order.
func durableImage(t *testing.T, s *Store) []catRec {
	t.Helper()
	m, err := readMaster(s.vol)
	if err != nil {
		t.Fatal(err)
	}
	var recs []catRec
	found := false
	if err := s.log.Scan(m.image, func(r *wal.Record) error {
		if r.LSN != m.image {
			return nil
		}
		found = true
		img := r.Data
		off := catCount
		for i := binary.BigEndian.Uint32(img); i > 0; i-- {
			id := binary.BigEndian.Uint64(img[off:])
			nameLen := int(binary.BigEndian.Uint16(img[off+8:]))
			descLen := int(binary.BigEndian.Uint32(img[off+10:]))
			off += catEntHdr
			recs = append(recs, catRec{id: id, name: string(img[off : off+nameLen]), desc: img[off+nameLen : off+nameLen+descLen]})
			off += nameLen + descLen
		}
		return nil
	}); err != nil || !found {
		t.Fatalf("the master's image at LSN %d is not in the log (err %v)", m.image, err)
	}
	return recs
}

// appendAll adds one segment to every object: the append is hinted, so it
// neither leaves the tail open nor continues one (a plain Append would grow
// the last entry in place and the descriptors would stay one entry long).
func appendAll(t *testing.T, s *Store, want map[string][]byte, seed int) {
	t.Helper()
	for n := range want {
		o, err := s.Open(n)
		if err != nil {
			t.Fatal(err)
		}
		extra := pat(seed+len(n), 40)
		if err := o.AppendWithHint(extra, int64(len(extra))); err != nil {
			t.Fatal(err)
		}
		want[n] = append(want[n], extra...)
	}
}

func createObjects(t *testing.T, s *Store, n int) map[string][]byte {
	t.Helper()
	want := make(map[string][]byte)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("obj-%02d", i)
		o, err := s.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = pat(i, 700+i)
		if err := o.Append(want[name]); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func clone(m map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(m))
	for k, v := range m {
		out[k] = append([]byte{}, v...)
	}
	return out
}

// TestCatalogImageReplaysAcrossReopen drives checkpoints that each change
// one descriptor: each logs one image — one log write, one log force — and
// writes one master copy, after which the log holds nothing but that image;
// and a crash must recover the final state from the image alone.
func TestCatalogImageReplaysAcrossReopen(t *testing.T) {
	s, vol, logVol := newJournalStore(t, 1024, Options{})
	want := createObjects(t, s, 4)
	// One logged update, so the checkpoint has a log to truncate.
	tx, _ := s.Begin()
	if err := tx.Append("obj-00", pat(9, 50)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want["obj-00"] = append(want["obj-00"], pat(9, 50)...)
	const rounds = 8
	for i := 0; i < rounds; i++ {
		name := fmt.Sprintf("obj-%02d", i%4)
		o, _ := s.Open(name)
		extra := pat(100+i, 300)
		if err := o.Append(extra); err != nil {
			t.Fatal(err)
		}
		want[name] = append(want[name], extra...)
		before, logBefore := s.Stats(), logVol.Stats()
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		after, logAfter := s.Stats(), logVol.Stats()
		if got := after.Barrier.MasterWrites - before.Barrier.MasterWrites; got != 1 {
			t.Errorf("round %d: %d master writes, want 1", i, got)
		}
		image := after.Barrier.ImageBytes - before.Barrier.ImageBytes
		pages := (image + 511 + 53) / 512 // the record's header, then padding to the page
		writes, forces := logAfter.Writes-logBefore.Writes, after.WAL.LeaderForces-before.WAL.LeaderForces
		if writes != 1 || forces != 1 || logAfter.PagesWritten-logBefore.PagesWritten != pages {
			t.Errorf("round %d: the checkpoint wrote %d pages in %d log writes and %d forces, want the %d-byte image's %d pages in one of each",
				i, logAfter.PagesWritten-logBefore.PagesWritten, writes, forces, image, pages)
		}
		if s.LogTail() != pages*512 {
			t.Fatalf("round %d: %d bytes of log in use after a quiescent checkpoint, want the image's %d pages", i, s.LogTail(), pages)
		}
	}
	if got := durableNames(t, s); len(got) != 4 {
		t.Fatalf("the durable image holds %v", got)
	}
	re := crashReopen(t, vol, logVol)
	if rs := re.Stats().Recovery; rs.Redone != 0 {
		t.Errorf("recovery redid %d operations, want none: the image holds every one", rs.Redone)
	}
	expectObjects(t, re, want)
}

// TestCatalogOperationsPersistThroughJournal takes every operation that
// moves a catalog entry — transactional create, plain create, Rename, a
// transactional destroy caught in flight by a checkpoint (the entry must
// stay: the image keeps an object until its destroy commits), the same
// aborted, a committed destroy — through a crash after each.  A commit
// logs no image at all: after a committed step recovery redoes the
// transaction from the log.
func TestCatalogOperationsPersistThroughJournal(t *testing.T) {
	s, vol, logVol := newJournalStore(t, 1024, Options{})
	want := map[string][]byte{}
	// step runs one mutation, checks how many master copies its
	// checkpoints wrote, and crashes.  Recovery must have redone
	// wantRedone operations: those of a commit no checkpoint followed.
	step := func(what string, wantMasters, wantRedone int64, mutate func()) {
		t.Helper()
		before := s.Stats().Barrier
		mutate()
		if got := s.Stats().Barrier.MasterWrites - before.MasterWrites; got != wantMasters {
			t.Fatalf("%s: %d master writes, want %d", what, got, wantMasters)
		}
		s = crashReopen(t, vol, logVol)
		if got := s.Stats().Recovery.Redone; got != wantRedone {
			t.Fatalf("%s: recovery redid %d operations, want %d", what, got, wantRedone)
		}
		expectObjects(t, s, want)
	}
	step("txn create", 0, 2, func() {
		tx, _ := s.Begin()
		if err := tx.Create("a", 0); err != nil {
			t.Fatal(err)
		}
		want["a"] = pat(1, 900)
		if err := tx.Append("a", want["a"]); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	step("create", 1, 0, func() {
		o, err := s.Create("b", 0)
		if err != nil {
			t.Fatal(err)
		}
		want["b"] = pat(2, 1200)
		if err := o.Append(want["b"]); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	step("rename", 1, 0, func() {
		if err := s.Rename("b", "c"); err != nil {
			t.Fatal(err)
		}
		want["c"] = want["b"]
		delete(want, "b")
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	// The crash that ends this step finds the destroy still in flight: a
	// must come back.
	step("txn destroy, checkpoint", 1, 0, func() {
		tx, _ := s.Begin()
		if err := tx.Destroy("a"); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := durableNames(t, s); fmt.Sprint(got) != "[a c]" {
			t.Fatalf("the image holds %v while the destroy is in flight, want [a c]", got)
		}
	})
	// The abort restores a's descriptor byte for byte.
	step("txn destroy, checkpoint, abort", 1, 0, func() {
		tx, _ := s.Begin()
		if err := tx.Destroy("a"); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if got := durableNames(t, s); fmt.Sprint(got) != "[a c]" {
			t.Fatalf("the image holds %v after the abort, want [a c]", got)
		}
	})
	step("txn destroy", 0, 1, func() {
		tx, _ := s.Begin()
		if err := tx.Destroy("c"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		delete(want, "c")
	})
}

// TestCatalogTornImageFallsBackOneBarrier tears a multi-page image after
// its first page: the checkpoint fails before any master copy names it,
// and recovery must come back with exactly the state of the barrier
// before it.
func TestCatalogTornImageFallsBackOneBarrier(t *testing.T) {
	s, vol, logVol := newJournalStore(t, 1024, Options{})
	want := createObjects(t, s, 6)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		appendAll(t, s, want, i)
	}
	before := s.Stats().Barrier.ImageBytes
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if image := s.Stats().Barrier.ImageBytes - before; image < 512 {
		t.Fatalf("an image of %d bytes: the tear needs one of several pages", image)
	}
	durable := clone(want)

	appendAll(t, s, want, 5)
	masters := s.Stats().Barrier.MasterWrites
	logVol.tearNext(0, logVol.NumPages())
	if err := s.Checkpoint(); !errors.Is(err, errTorn) {
		t.Fatalf("checkpoint over a torn image: %v", err)
	}
	if s.Stats().Barrier.MasterWrites != masters {
		t.Fatal("a master copy was written over a torn image")
	}
	re := crashReopen(t, vol, logVol)
	expectObjects(t, re, durable)
}

// TestCatalogTornMasterFallsBackToOlderCopy tears the master copy a
// checkpoint writes: its CRC must disqualify it, and recovery must load the
// other copy — whose image the log still holds, since the checkpoint that
// failed truncated nothing — and come back with its state.
func TestCatalogTornMasterFallsBackToOlderCopy(t *testing.T) {
	s, vol, logVol := newJournalStore(t, 1024, Options{})
	want := createObjects(t, s, 6)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	durable := clone(want)
	older := s.last.seq
	appendAll(t, s, want, 1)
	vol.tearNext(0, masterPages)
	if err := s.Checkpoint(); !errors.Is(err, errTorn) {
		t.Fatalf("checkpoint over a torn master copy: %v", err)
	}
	if s.last.seq != older {
		t.Fatal("the master seq moved although the write failed")
	}
	if page, err := vol.Read(disk.PageNum((older+1)%masterPages), 1); err != nil || binary.BigEndian.Uint32(page) != storeMagic {
		t.Fatalf("the torn copy lost even its magic (err %v); the test proves nothing", err)
	}
	if m, err := readMaster(vol); err != nil || m.seq != older {
		t.Fatalf("master record read as seq %d (err %v), want the older copy's %d", m.seq, err, older)
	}
	re := crashReopen(t, vol, logVol)
	expectObjects(t, re, durable)
}

// TestCatalogStaleRecordsIgnored runs checkpoints until the log has gone
// round its volume several times: behind the newest image lie intact
// images of earlier laps, at the offsets a scan would reach.  Recovery
// must load the one the master names and not wander into them.
func TestCatalogStaleRecordsIgnored(t *testing.T) {
	s, vol, logVol := newJournalStore(t, 32, Options{})
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for s.Stats().WAL.Wraps < 3 {
		extra := pat(len(want), 30)
		if err := o.Append(extra); err != nil {
			t.Fatal(err)
		}
		want = append(want, extra...)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// Past the tail lie the previous lap's bytes.
	ps := uint64(logVol.PageSize())
	page, err := logVol.Read(disk.PageNum(s.log.Tail()%(uint64(logVol.NumPages())*ps)/ps), 1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(page, make([]byte, ps)) {
		t.Fatal("the page behind the tail was never written; the test proves nothing")
	}
	if got := durableNames(t, s); fmt.Sprint(got) != "[x]" {
		t.Fatalf("the durable image holds %v", got)
	}
	re := crashReopen(t, vol, logVol)
	expectObjects(t, re, map[string][]byte{"x": want})
}

// TestCatalogFirstBarrierAfterOpenSparesLoadedSlot: recovery's own
// checkpoint — the first barrier of the reopened store — must write the
// master copy it did not load, and nothing over the one it did.
func TestCatalogFirstBarrierAfterOpenSparesLoadedSlot(t *testing.T) {
	s, vol, logVol := newJournalStore(t, 1024, Options{})
	want := createObjects(t, s, 3)
	for i := 0; i < 3; i++ {
		appendAll(t, s, want, i)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	loaded := s.last.seq
	vol.onWrite = func(start disk.PageNum, n int) {
		if p := disk.PageNum(loaded % masterPages); start <= p && p < start+disk.PageNum(n) {
			t.Errorf("write of %d pages at %d lands on the loaded master copy, page %d", n, start, p)
		}
	}
	re := crashReopen(t, vol, logVol)
	vol.onWrite = nil
	if re.last.seq != loaded+1 || re.Stats().Barrier.MasterWrites != 1 {
		t.Errorf("after Open the master is at seq %d (loaded %d) after %d writes", re.last.seq, loaded, re.Stats().Barrier.MasterWrites)
	}
	expectObjects(t, re, want)
}

// TestCatalogDurableRecordPagesNeverRewritten traces every write of both
// volumes across checkpoints that take the log round its volume: none may
// touch the master copy the last completed barrier made durable, or the
// log pages from its start through its image.
func TestCatalogDurableRecordPagesNeverRewritten(t *testing.T) {
	s, vol, logVol := newJournalStore(t, 48, Options{})
	want := createObjects(t, s, 3)
	m, err := readMaster(vol)
	if err != nil {
		t.Fatal(err)
	}
	master := disk.PageNum(m.seq % masterPages)
	var lo, n uint64 // the durable log: its first page, and its pages
	vol.onWrite = func(start disk.PageNum, pages int) {
		if start <= master && master < start+disk.PageNum(pages) {
			t.Errorf("write of %d pages at %d hits the durable master copy", pages, start)
		}
	}
	logPages := uint64(logVol.NumPages())
	logVol.onWrite = func(start disk.PageNum, pages int) {
		for p := uint64(start); p < uint64(start)+uint64(pages); p++ {
			if (p+logPages-lo)%logPages < n {
				t.Errorf("write of %d log pages at %d hits the durable log [%d, +%d)", pages, start, lo, n)
			}
		}
	}
	for i := 0; s.Stats().WAL.Wraps < 3; i++ {
		if i%3 == 0 {
			appendAll(t, s, want, i)
		} else {
			tx, _ := s.Begin()
			if err := tx.Append("obj-01", pat(i, 25)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			want["obj-01"] = append(want["obj-01"], pat(i, 25)...)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if m, err = readMaster(vol); err != nil {
			t.Fatal(err)
		}
		master = disk.PageNum(m.seq % masterPages)
		ps := uint64(logVol.PageSize())
		first, last := (m.start-1)/ps, (s.log.Tail()-1)/ps
		lo, n = first%logPages, last-first+1
	}
	expectObjects(t, crashReopen(t, vol, logVol), want)
}

// TestOpenRejectsOldFormatVersion: a store of an earlier format
// generation is refused by name, not misread and not called corrupt.
func TestOpenRejectsOldFormatVersion(t *testing.T) {
	// v6 logs may hold replace records with pre-images and its master copy
	// a stamp, v5 kept its catalog in slots this build no longer reads, v4
	// logs may hold catalog records, and v3 slot records carry no stamp: all
	// must be refused, not misread.
	for _, old := range []byte{storeVersion - 4, storeVersion - 3, storeVersion - 2, storeVersion - 1} {
		s, vol, logVol := newJournalStore(t, 1024, Options{})
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		hdr, err := vol.Read(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		hdr[4] = old
		if err := vol.WritePages(0, 1, hdr); err != nil {
			t.Fatal(err)
		}
		_, err = Open(vol, logVol, Options{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("format version %d", old)) ||
			!strings.Contains(err.Error(), "no in-place upgrade") {
			t.Fatalf("open of a version %d store: %v", old, err)
		}
		if errors.Is(err, ErrCorruptStore) {
			t.Errorf("old format %d reported as corruption: %v", old, err)
		}
	}
}

// TestCatalogFull: when the image outgrows what the log can hold the
// checkpoint fails with wal.ErrLogFull before writing anything — the
// store stays readable and writable outside transactions, the last
// durable catalog state survives a crash, and destroying an object lets
// the next checkpoint through.
func TestCatalogFull(t *testing.T) {
	fill := func(t *testing.T) (*Store, *tearDevice, *tearDevice, map[string][]byte, map[string][]byte) {
		s, vol, logVol := newJournalStore(t, 24, Options{})
		want := map[string][]byte{}
		var durable map[string][]byte
		for i := 0; ; i++ {
			if i > 300 {
				t.Fatal("the image never outgrew the log")
			}
			name := fmt.Sprintf("obj-%03d", i)
			o, err := s.Create(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			want[name] = pat(i, 300)
			if err := o.Append(want[name]); err != nil {
				t.Fatal(err)
			}
			masters := s.Stats().Barrier.MasterWrites
			err = s.Checkpoint()
			if err == nil {
				durable = clone(want)
				continue
			}
			if !errors.Is(err, wal.ErrLogFull) || errors.Is(err, ErrCorruptStore) {
				t.Fatalf("checkpoint of an image the log cannot hold: %v", err)
			}
			if s.Stats().Barrier.MasterWrites != masters {
				t.Fatal("a master copy was written despite ErrLogFull")
			}
			return s, vol, logVol, want, durable
		}
	}
	t.Run("usable-then-destroy", func(t *testing.T) {
		s, vol, logVol, want, _ := fill(t)
		expectObjects(t, s, want)
		o, _ := s.Open("obj-000")
		if err := o.Append([]byte("still writable")); err != nil {
			t.Fatalf("append with the image still too big: %v", err)
		}
		want["obj-000"] = append(want["obj-000"], "still writable"...)
		expectObjects(t, s, want)
		if err := s.Checkpoint(); !errors.Is(err, wal.ErrLogFull) {
			t.Fatalf("checkpoint with the image still too big: %v", err)
		}
		for _, name := range []string{"obj-001", "obj-002", "obj-003"} {
			if err := s.Destroy(name); err != nil {
				t.Fatal(err)
			}
			delete(want, name)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint after making room: %v", err)
		}
		expectObjects(t, crashReopen(t, vol, logVol), want)
	})
	t.Run("crash", func(t *testing.T) {
		_, vol, logVol, _, durable := fill(t)
		expectObjects(t, crashReopen(t, vol, logVol), durable)
	})
}

// TestCatalogImageCliff pins where the whole-image checkpoint stops: on a
// 64-page log, one-page objects and a checkpoint every few creates, the
// image outgrows the log at some object count, and from there the store
// takes no transaction either.  A crash then keeps what the last image
// held.  A catalog whose checkpoint logs only what changed moves the cliff
// past the loop's bound, and this test has to be turned around.
func TestCatalogImageCliff(t *testing.T) {
	const every = 4
	s, vol, logVol := newJournalStore(t, 64, Options{})
	want := map[string][]byte{}
	var durable map[string][]byte
	for i := 0; ; i++ {
		if i == 2000 {
			t.Fatal("no checkpoint failed: the image never outgrew the log")
		}
		name := fmt.Sprintf("obj-%04d", i)
		o, err := s.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = pat(i, s.PageSize())
		if err := o.Append(want[name]); err != nil {
			t.Fatal(err)
		}
		if (i+1)%every != 0 {
			continue
		}
		err = s.Checkpoint()
		if err == nil {
			durable = clone(want)
			continue
		}
		if !errors.Is(err, wal.ErrLogFull) {
			t.Fatalf("checkpoint at %d objects: %v, want a wal.ErrLogFull", len(want), err)
		}
		t.Logf("the checkpoint at %d objects fails (the last image held %d)", len(want), len(durable))
		break
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Create("past-the-cliff", 0); !errors.Is(err, wal.ErrLogFull) {
		t.Fatalf("a transaction's first record past the cliff: %v, want a wal.ErrLogFull", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
	s = crashReopen(t, vol, logVol)
	for name, data := range durable {
		o, err := s.Open(name)
		if err != nil {
			t.Fatalf("%s, in the last image, is gone after the crash: %v", name, err)
		}
		if got, err := o.Read(0, o.Size()); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s reads back wrong after the crash (err %v)", name, err)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogGrownByTransactionsStillCheckpoints: transactions that create
// objects between checkpoints grow the image the next checkpoint logs, and
// the log keeps room for that image as it grows, not for the one the last
// checkpoint logged.  Filled with such transactions until it refuses one,
// the log still takes a checkpoint, and a crash behind it recovers every
// committed object — as does a crash that tears the checkpoint's master
// copy, whose recovery needs room for an image of its own behind the one the
// checkpoint logged.
func TestCatalogGrownByTransactionsStillCheckpoints(t *testing.T) {
	s, vol, logVol := newJournalStore(t, 64, Options{})
	create := func(s *Store, name string, data []byte) error {
		tx, err := s.Begin()
		if err != nil {
			return err
		}
		err = tx.Create(name, 0)
		if err == nil {
			err = tx.Append(name, data)
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			_ = tx.Abort() // its record may not fit either
		}
		return err
	}
	want := map[string][]byte{}
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("the log never filled")
		}
		name := fmt.Sprintf("obj-%03d", i)
		err := create(s, name, pat(i, 100))
		if errors.Is(err, wal.ErrLogFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want[name] = pat(i, 100)
	}
	// Format logged an image of one page; the one due now takes several.
	if len(want) < 25 {
		t.Fatalf("the log refused a transaction after %d: the image never grew much", len(want))
	}
	expectObjects(t, s, want)
	vol.tearNext(0, masterPages)
	if err := s.Checkpoint(); !errors.Is(err, errTorn) {
		t.Fatalf("checkpoint of a log full of transactions, master copy torn: %v", err)
	}
	s = crashReopen(t, vol, logVol)
	expectObjects(t, s, want)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the recovery: %v", err)
	}
	if err := create(s, "after", pat(999, 100)); err != nil {
		t.Fatalf("transaction after the checkpoint: %v", err)
	}
	want["after"] = pat(999, 100)
	expectObjects(t, crashReopen(t, vol, logVol), want)
}

// TestFormatClearsAnEarlierStoresCatalog: Format on a data volume that held
// a store must not let that store's master copies pass for its own.  The
// earlier store checkpointed often, so both its copies hold seqs that run
// past anything the new one writes before its own checkpoints do.
func TestFormatClearsAnEarlierStoresCatalog(t *testing.T) {
	vol := newTestDevice(t, 512, 4096)
	old, err := Format(vol, newTestDevice(t, 512, 1024), Options{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := old.Create("old", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := o.AppendWithHint(pat(i, 40), 40); err != nil {
			t.Fatal(err)
		}
		if err := old.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	logVol := newTestDevice(t, 512, 1024)
	s, err := Format(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"new": pat(99, 500)}
	tx, _ := s.Begin()
	if err := tx.Create("new", 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("new", want["new"]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	expectObjects(t, crashReopen(t, vol, logVol), want)
}

// TestFormatOnAReusedLogVolumeAdoptsNothing: a store that ran committed
// transactions on both volumes and closed, then Format of a new one over
// the same two.  The old store's records lie all over the log volume,
// intact; the new store's recovery must not take any of them for its own —
// here they would recreate the old objects.
func TestFormatOnAReusedLogVolumeAdoptsNothing(t *testing.T) {
	vol := newTestDevice(t, 512, 4096)
	logVol := newTestDevice(t, 512, 1024)
	a, err := Format(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("old-%02d", i%5)
		tx, _ := a.Begin()
		if i < 5 {
			if err := tx.Create(name, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Append(name, pat(i, 100)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := Format(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"new": pat(77, 600)}
	tx, _ := b.Begin()
	if err := tx.Create("new", 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Append("new", want["new"]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	expectObjects(t, crashReopen(t, vol, logVol), want)
}
