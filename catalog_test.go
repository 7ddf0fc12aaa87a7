package eos

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// Tests of the catalog journal (catalog.go): base + delta replay, the
// operations that move catalog entries, torn records, stale records,
// slot alternation and overflow.  They run on both backends through
// newTestDevice (EOS_TEST_BACKEND).

var errTorn = errors.New("injected torn catalog write")

// catDevice wraps a journal test's data volume.  It reports every write
// to onWrite, and can tear the next multi-page write into the catalog
// region: only the first tearKeep pages reach the device — durably, so
// the tear survives Crash — and the call fails.
type catDevice struct {
	disk.Device
	onWrite   func(start disk.PageNum, n int)
	tearKeep  int
	tearBelow disk.PageNum // only writes starting below this page are torn
}

func (d *catDevice) WritePages(start disk.PageNum, n int, buf []byte) error {
	if d.onWrite != nil {
		d.onWrite(start, n)
	}
	return d.Device.WritePages(start, n, buf)
}

func (d *catDevice) WriteRun(start disk.PageNum, pages [][]byte) error {
	if d.onWrite != nil {
		d.onWrite(start, len(pages))
	}
	if k := d.tearKeep; k > 0 && start < d.tearBelow && len(pages) > k {
		d.tearKeep = 0
		if err := d.Device.WriteRun(start, pages[:k]); err != nil {
			return err
		}
		if err := d.Device.Force(start, k); err != nil {
			return err
		}
		return errTorn
	}
	return d.Device.WriteRun(start, pages)
}

// tearNextCatalogWrite arms the tear for the next multi-page record.
func (d *catDevice) tearNextCatalogWrite(s *Store, keep int) {
	d.tearKeep = keep
	d.tearBelow = disk.PageNum(1 + catalogRegionPages(s.opts))
}

func newJournalStore(t *testing.T, opts Options) (*Store, *catDevice, disk.Device) {
	t.Helper()
	vol := &catDevice{Device: newTestDevice(t, 512, 4096)}
	logVol := newTestDevice(t, 512, 1024)
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

// journalNames replays the slot the store is writing and returns the
// names it yields, checking the replay reaches the newest record.
func journalNames(t *testing.T, s *Store) []string {
	t.Helper()
	img, seq, _, err := s.replayCatalogSlot(s.catSlot)
	if err != nil {
		t.Fatal(err)
	}
	if img == nil || seq != s.catSeq {
		t.Fatalf("slot %d replays to seq %d (image %v), newest record is %d", s.catSlot, seq, img != nil, s.catSeq)
	}
	var names []string
	for _, r := range img {
		names = append(names, r.name)
	}
	sort.Strings(names)
	return names
}

// appendAll appends a few bytes to every object (a new root each, so a
// new descriptor each) and keeps want in step.
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

// TestCatalogDeltaChainReplaysAcrossReopen drives checkpoints that each
// change one descriptor: each must append one delta (no compaction), the
// counters must say so, and — the log being empty after every quiescent
// checkpoint — a crash must recover the final state from base + deltas
// alone.
func TestCatalogDeltaChainReplaysAcrossReopen(t *testing.T) {
	s, vol, logVol := newJournalStore(t, Options{CatalogPages: 16})
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
	logBefore := logVol.Stats()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if logAfter := logVol.Stats(); logAfter.Writes != logBefore.Writes || logAfter.Syncs != logBefore.Syncs {
		t.Errorf("truncating the log cost %d writes and %d forces of the log volume, want none",
			logAfter.Writes-logBefore.Writes, logAfter.Syncs-logBefore.Syncs)
	}
	if s.LogTail() != 0 {
		t.Fatalf("log not truncated by a quiescent checkpoint (%d bytes)", s.LogTail())
	}
	before := s.Stats().Barrier
	const rounds = 8
	for i := 0; i < rounds; i++ {
		name := fmt.Sprintf("obj-%02d", i%4)
		o, _ := s.Open(name)
		extra := pat(100+i, 300)
		if err := o.Append(extra); err != nil {
			t.Fatal(err)
		}
		want[name] = append(want[name], extra...)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint with nothing to say writes nothing.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats().Barrier
	if got := after.CatalogDeltaWrites - before.CatalogDeltaWrites; got != rounds {
		t.Errorf("%d delta writes for %d one-object checkpoints", got, rounds)
	}
	if after.CatalogCompactions != before.CatalogCompactions {
		t.Errorf("compactions moved %d -> %d with room left in the slot", before.CatalogCompactions, after.CatalogCompactions)
	}
	if got := after.CatalogPagesWritten - before.CatalogPagesWritten; got != rounds {
		t.Errorf("%d catalog pages for %d one-descriptor deltas, want one page each", got, rounds)
	}
	if after.HeaderWrites != before.HeaderWrites {
		t.Errorf("header rewritten %d times though neither nextID nor the LSN base moved", after.HeaderWrites-before.HeaderWrites)
	}
	if s.LogTail() != 0 {
		t.Fatalf("log not empty after quiescent checkpoint (%d bytes)", s.LogTail())
	}
	if got := journalNames(t, s); len(got) != 4 {
		t.Fatalf("journal replays to %v", got)
	}
	re := crashReopen(t, vol, logVol)
	expectObjects(t, re, want)
}

// TestCatalogOperationsPersistThroughJournal takes every operation that
// moves a catalog entry — transactional create, plain create, Rename, a
// transactional destroy caught in flight by a checkpoint (the entry must
// stay: no tombstone before the destroy commits), the same aborted, a
// committed destroy — through a crash after each, once with slots so
// large every checkpoint writes a delta and once with slots so small every
// checkpoint compacts.  A commit writes no catalog record at all: after a
// committed step recovery redoes the transaction from the log.
func TestCatalogOperationsPersistThroughJournal(t *testing.T) {
	for _, tc := range []struct {
		name         string
		catalogPages int
		compacting   bool
	}{
		{"delta", 16, false},
		{"compaction", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, vol, logVol := newJournalStore(t, Options{CatalogPages: tc.catalogPages})
			want := map[string][]byte{}
			// step runs one mutation, checks which records its checkpoints
			// wrote — wantDeltas slot deltas with large slots, where a
			// checkpoint that changes nothing writes nothing; wantBases
			// with one-page slots, where every checkpoint compacts — and
			// crashes.  Recovery must have redone wantRedone operations:
			// those of a commit no checkpoint followed.
			step := func(what string, wantDeltas, wantBases, wantRedone int64, mutate func()) {
				t.Helper()
				before := s.Stats().Barrier
				mutate()
				after := s.Stats().Barrier
				deltas := after.CatalogDeltaWrites - before.CatalogDeltaWrites
				bases := after.CatalogCompactions - before.CatalogCompactions
				if tc.compacting && (deltas != 0 || bases != wantBases) {
					t.Fatalf("%s: %d deltas, %d compactions; want %d compactions", what, deltas, bases, wantBases)
				}
				if !tc.compacting && (deltas != wantDeltas || bases != 0) {
					t.Fatalf("%s: %d deltas, %d compactions; want %d deltas", what, deltas, bases, wantDeltas)
				}
				s = crashReopen(t, vol, logVol)
				if got := s.Stats().Recovery.Redone; got != wantRedone {
					t.Fatalf("%s: recovery redid %d operations, want %d", what, got, wantRedone)
				}
				expectObjects(t, s, want)
			}
			step("txn create", 0, 0, 2, func() {
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
			step("create", 1, 1, 0, func() {
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
			step("rename", 1, 1, 0, func() {
				if err := s.Rename("b", "c"); err != nil {
					t.Fatal(err)
				}
				want["c"] = want["b"]
				delete(want, "b")
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			})
			// The crash that ends this step finds the destroy still in
			// flight: a must come back.
			step("txn destroy, checkpoint", 0, 1, 0, func() {
				tx, _ := s.Begin()
				if err := tx.Destroy("a"); err != nil {
					t.Fatal(err)
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if got := journalNames(t, s); fmt.Sprint(got) != "[a c]" {
					t.Fatalf("journal holds %v while the destroy is in flight, want [a c]", got)
				}
			})
			// The abort restores a's descriptor byte for byte.
			step("txn destroy, checkpoint, abort", 0, 1, 0, func() {
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
				if got := journalNames(t, s); fmt.Sprint(got) != "[a c]" {
					t.Fatalf("journal holds %v after the abort, want [a c]", got)
				}
			})
			step("txn destroy", 0, 0, 1, func() {
				tx, _ := s.Begin()
				if err := tx.Destroy("c"); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				delete(want, "c")
			})
		})
	}
}

// TestCatalogTornDeltaFallsBackOneBarrier tears a multi-page delta after
// its first page: recovery must come back with exactly the state of the
// barrier before it.
func TestCatalogTornDeltaFallsBackOneBarrier(t *testing.T) {
	s, vol, logVol := newJournalStore(t, Options{CatalogPages: 16})
	want := createObjects(t, s, 6)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, want, 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	durable := clone(want)

	appendAll(t, s, want, 2)
	compactions := s.Stats().Barrier.CatalogCompactions
	vol.tearNextCatalogWrite(s, 1)
	if err := s.Checkpoint(); !errors.Is(err, errTorn) {
		t.Fatalf("checkpoint over a torn delta: %v", err)
	}
	if s.Stats().Barrier.CatalogCompactions != compactions {
		t.Fatal("the torn record was a base, not a delta")
	}
	re := crashReopen(t, vol, logVol)
	expectObjects(t, re, durable)
}

// TestCatalogTornBaseFallsBackToOldSlot tears the compaction's base in
// the other slot: recovery must load the old slot, base and every delta.
func TestCatalogTornBaseFallsBackToOldSlot(t *testing.T) {
	s, vol, logVol := newJournalStore(t, Options{CatalogPages: 6})
	want := createObjects(t, s, 6)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One-object deltas, a segment more each (hinted appends), until the
	// next one no longer fits: the base that follows is several pages long.
	ps := s.PageSize()
	for round := 0; ; round++ {
		o, _ := s.Open("obj-00")
		extra := pat(50+round, 60)
		if err := o.AppendWithHint(extra, int64(len(extra))); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		ups, tombs, _ := s.catalogDelta(s.catImage)
		fits := s.catNext+(catRecordSize(ups, tombs)+ps-1)/ps <= s.opts.CatalogPages
		s.mu.Unlock()
		if !fits {
			break
		}
		want["obj-00"] = append(want["obj-00"], extra...)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats().Barrier
	if st.CatalogDeltaWrites < 2 {
		t.Fatalf("old slot holds only %d deltas", st.CatalogDeltaWrites)
	}
	oldSlot := s.catSlot
	vol.tearNextCatalogWrite(s, 1)
	if err := s.Checkpoint(); !errors.Is(err, errTorn) {
		t.Fatalf("checkpoint over a torn base: %v", err)
	}
	if s.catSlot != oldSlot {
		t.Fatal("journal position moved although the write failed")
	}
	// The tear put a base header with the newest seq on the other slot's
	// first page; its CRC must disqualify it.
	if img, _, _, err := s.replayCatalogSlot(1 - oldSlot); err != nil || img != nil {
		t.Fatalf("torn base replays (image %v, err %v)", img != nil, err)
	}
	re := crashReopen(t, vol, logVol)
	expectObjects(t, re, want)
}

// TestCatalogStaleRecordsIgnored reuses a slot: behind the records of its
// new life sit intact deltas of its earlier one.  Replay must stop at
// the chain's end and not wander into them.
func TestCatalogStaleRecordsIgnored(t *testing.T) {
	s, vol, logVol := newJournalStore(t, Options{CatalogPages: 6})
	o, err := s.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	// Each checkpoint changes x's one-page descriptor: one record a
	// barrier.  Stop in slot 0's second life, two records in.
	for s.Stats().Barrier.CatalogCompactions < 3 || s.catNext != 2 {
		extra := pat(len(want), 30)
		if err := o.Append(extra); err != nil {
			t.Fatal(err)
		}
		want = append(want, extra...)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	ps := s.PageSize()
	page, err := vol.Read(s.catSlotStart(s.catSlot)+2, 1)
	if err != nil {
		t.Fatal(err)
	}
	staleSeq, _, kind, _, ok := parseCatRecord(page[:ps])
	if !ok || kind != catKindDelta || staleSeq >= s.catSeq {
		t.Fatalf("page 2 of the slot holds no stale delta (ok %v, kind %d, seq %d, newest %d)", ok, kind, staleSeq, s.catSeq)
	}
	if got := journalNames(t, s); fmt.Sprint(got) != "[x]" {
		t.Fatalf("journal replays to %v", got)
	}
	re := crashReopen(t, vol, logVol)
	expectObjects(t, re, map[string][]byte{"x": want})
}

// TestCatalogFirstBarrierAfterOpenSparesLoadedSlot: recovery's own
// checkpoint — the first barrier of the reopened store — must write a
// base into the slot it did not load and nothing into the one it did.
func TestCatalogFirstBarrierAfterOpenSparesLoadedSlot(t *testing.T) {
	s, vol, logVol := newJournalStore(t, Options{CatalogPages: 8})
	want := createObjects(t, s, 3)
	for i := 0; i < 3; i++ {
		appendAll(t, s, want, i)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	loaded := s.catSlot
	lo := s.catSlotStart(loaded)
	hi := lo + disk.PageNum(s.opts.CatalogPages)
	vol.onWrite = func(start disk.PageNum, n int) {
		if start < hi && start+disk.PageNum(n) > lo {
			t.Errorf("write of %d pages at %d lands in the loaded slot [%d,%d)", n, start, lo, hi)
		}
	}
	re := crashReopen(t, vol, logVol)
	vol.onWrite = nil
	if re.catSlot != 1-loaded || re.Stats().Barrier.CatalogCompactions != 1 {
		t.Errorf("after Open the journal sits in slot %d (loaded %d) after %d compactions",
			re.catSlot, loaded, re.Stats().Barrier.CatalogCompactions)
	}
	expectObjects(t, re, want)
}

// TestCatalogDurableRecordPagesNeverRewritten traces every data-volume
// write across several compactions: none may touch a page of the chain
// the last completed barrier made durable.
func TestCatalogDurableRecordPagesNeverRewritten(t *testing.T) {
	s, vol, _ := newJournalStore(t, Options{CatalogPages: 4})
	want := createObjects(t, s, 3)
	var lo, hi disk.PageNum // pages of the durable chain
	vol.onWrite = func(start disk.PageNum, n int) {
		if start < hi && start+disk.PageNum(n) > lo {
			t.Errorf("write of %d pages at %d hits the durable journal chain [%d,%d)", n, start, lo, hi)
		}
	}
	for i := 0; i < 30; i++ {
		if i%3 == 0 {
			appendAll(t, s, want, i)
		} else {
			o, _ := s.Open("obj-01")
			if err := o.Append(pat(i, 25)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		lo = s.catSlotStart(s.catSlot)
		hi = lo + disk.PageNum(s.catNext)
	}
	st := s.Stats().Barrier
	if st.CatalogCompactions < 4 || st.CatalogDeltaWrites == 0 {
		t.Fatalf("trace covered %d compactions and %d deltas", st.CatalogCompactions, st.CatalogDeltaWrites)
	}
}

// TestOpenRejectsOldFormatVersion: a store of an earlier format
// generation is refused by name, not misread and not called corrupt.
func TestOpenRejectsOldFormatVersion(t *testing.T) {
	// v4 logs may hold catalog records this build no longer reads, and v3
	// slot records carry no stamp: both must be refused, not misread.
	for _, old := range []byte{storeVersion - 2, storeVersion - 1} {
		s, vol, logVol := newJournalStore(t, Options{})
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

// TestCatalogFull: when the full image outgrows a slot the barrier
// fails with ErrCatalogFull before writing anything — the store stays
// usable (a commit, which is no barrier, goes through), the last durable
// catalog state survives a crash, and destroying an object lets the next
// barrier through.
func TestCatalogFull(t *testing.T) {
	fill := func(t *testing.T) (*Store, *catDevice, disk.Device, map[string][]byte, map[string][]byte) {
		s, vol, logVol := newJournalStore(t, Options{CatalogPages: 1})
		want := map[string][]byte{}
		var durable map[string][]byte
		for i := 0; ; i++ {
			if i > 100 {
				t.Fatal("catalog never filled")
			}
			name := fmt.Sprintf("obj-%02d", i)
			o, err := s.Create(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			want[name] = pat(i, 300)
			if err := o.Append(want[name]); err != nil {
				t.Fatal(err)
			}
			pages := s.Stats().Barrier.CatalogPagesWritten
			err = s.Checkpoint()
			if err == nil {
				durable = clone(want)
				continue
			}
			if !errors.Is(err, ErrCatalogFull) || errors.Is(err, ErrCorruptStore) {
				t.Fatalf("checkpoint of an overfull catalog: %v", err)
			}
			if s.Stats().Barrier.CatalogPagesWritten != pages {
				t.Fatal("catalog pages written despite ErrCatalogFull")
			}
			return s, vol, logVol, want, durable
		}
	}
	t.Run("usable-then-destroy", func(t *testing.T) {
		s, vol, logVol, want, _ := fill(t)
		expectObjects(t, s, want)
		tx, _ := s.Begin()
		if err := tx.Append("obj-00", []byte("still writable")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit with the catalog still overfull: %v", err)
		}
		want["obj-00"] = append(want["obj-00"], "still writable"...)
		expectObjects(t, s, want)
		if err := s.Checkpoint(); !errors.Is(err, ErrCatalogFull) {
			t.Fatalf("checkpoint with the catalog still overfull: %v", err)
		}
		expectObjects(t, s, want)
		if err := s.Destroy("obj-01"); err != nil {
			t.Fatal(err)
		}
		delete(want, "obj-01")
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

// TestFormatClearsAnEarlierStoresCatalog: Format on a data volume that held
// a store must not let that store's catalog slots pass for its own.  The
// earlier store checkpointed often, so both its slots hold chains whose
// seqs run past anything the new one writes before its own checkpoints do.
func TestFormatClearsAnEarlierStoresCatalog(t *testing.T) {
	vol := newTestDevice(t, 512, 4096)
	old, err := Format(vol, newTestDevice(t, 512, 1024), Options{CatalogPages: 2})
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
	s, err := Format(vol, logVol, Options{CatalogPages: 2})
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
