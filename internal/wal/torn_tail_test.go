package wal

import (
	"bytes"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// Torn-tail corpus: a crash can leave the final log record in any
// partially-written state — header torn mid-write, payload torn,
// arbitrary garbage, or stale bytes from a previous log epoch sitting
// at the write position.  In every case Recover must treat the damage
// as end-of-log: return exactly the intact prefix, position the tail at
// its end, and leave the log appendable (new records overwrite the torn
// region and survive a second recovery).

// tornCase mutates the raw volume image in place.  lastOff/lastSize
// delimit the final (victim) record; firstOff/firstSize the first one.
type tornCase struct {
	name string
	mut  func(img []byte, lastOff, lastSize, firstOff, firstSize int)
}

func tornTailCorpus() []tornCase {
	return []tornCase{
		{"zeroed-record", func(img []byte, off, size, _, _ int) {
			// The write never reached the device at all: the size field
			// reads 0 < recHeaderSize, which Scan treats as a clean end.
			for i := off; i < off+size; i++ {
				img[i] = 0
			}
		}},
		{"torn-mid-header", func(img []byte, off, size, _, _ int) {
			// CRC and size landed, the rest of the header did not.
			for i := off + 8; i < off+size; i++ {
				img[i] = 0
			}
		}},
		{"torn-mid-payload", func(img []byte, off, size, _, _ int) {
			// Header intact, payload bytes lost: checksum must catch it.
			for i := off + recHeaderSize; i < off+size; i++ {
				img[i] ^= 0x5A
			}
		}},
		{"garbage-tail", func(img []byte, off, size, _, _ int) {
			// Arbitrary junk: the size field decodes to nonsense.
			for i := off; i < off+size; i++ {
				img[i] = 0xA5
			}
		}},
		{"stale-epoch-record", func(img []byte, off, size, firstOff, firstSize int) {
			// A fully intact record from another position (as a reused
			// log region would contain): CRC passes, but its LSN does
			// not match base+off+1, so Scan must still stop.
			if firstSize > size {
				firstSize = size
			}
			copy(img[off:off+firstSize], img[firstOff:firstOff+firstSize])
		}},
	}
}

// buildTornLog appends a prefix of records plus one victim record,
// forces everything, and returns the volume along with the victim's
// byte offset/size and the first record's offset/size.
func buildTornLog(t *testing.T, victim *Record) (vol *disk.Volume, prefixLSNs []uint64, lastOff, lastSize, firstOff, firstSize int) {
	t.Helper()
	l, v := newLog(t, 64)
	prefix := []*Record{
		{Txn: 1, Type: RecBegin},
		{Txn: 1, Type: RecInsert, Object: 3, Off: 0, Data: []byte("durable payload")},
		{Txn: 1, Type: RecCommit},
	}
	for _, r := range prefix {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		prefixLSNs = append(prefixLSNs, lsn)
	}
	firstOff = int(prefixLSNs[0]) - 1
	firstSize = int(prefixLSNs[1]) - 1 - firstOff
	lsn, err := l.Append(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	lastOff = int(lsn) - 1
	lastSize = int(l.Tail()) - lastOff
	return v, prefixLSNs, lastOff, lastSize, firstOff, firstSize
}

func TestRecoverTornTailCorpus(t *testing.T) {
	for _, tc := range tornTailCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			victim := &Record{Txn: 2, Type: RecAppend, Object: 3, Data: []byte("torn away")}
			vol, prefixLSNs, lastOff, lastSize, firstOff, firstSize := buildTornLog(t, victim)

			img, err := vol.Read(0, int(vol.NumPages()))
			if err != nil {
				t.Fatal(err)
			}
			tc.mut(img, lastOff, lastSize, firstOff, firstSize)
			if err := vol.WritePages(0, int(vol.NumPages()), img); err != nil {
				t.Fatal(err)
			}

			l2, recs, err := Recover(vol, 0)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if len(recs) != len(prefixLSNs) {
				t.Fatalf("recovered %d records, want intact prefix of %d", len(recs), len(prefixLSNs))
			}
			for i, r := range recs {
				if r.LSN != prefixLSNs[i] {
					t.Errorf("record %d: LSN %d, want %d", i, r.LSN, prefixLSNs[i])
				}
			}
			if got := l2.Tail(); got != int64(lastOff) {
				t.Errorf("tail at %d, want end of intact prefix %d", got, lastOff)
			}

			// The log must remain usable: a fresh append lands where the
			// torn record was and survives another recovery.
			fresh := &Record{Txn: 9, Type: RecAppend, Object: 3, Data: []byte("after the tear")}
			lsn, err := l2.Append(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if lsn != uint64(lastOff)+1 {
				t.Errorf("fresh record at LSN %d, want %d (overwriting the tear)", lsn, lastOff+1)
			}
			if err := l2.Force(); err != nil {
				t.Fatal(err)
			}
			_, recs2, err := Recover(vol, 0)
			if err != nil {
				t.Fatalf("second Recover: %v", err)
			}
			if len(recs2) != len(prefixLSNs)+1 {
				t.Fatalf("after re-append recovered %d records, want %d", len(recs2), len(prefixLSNs)+1)
			}
			last := recs2[len(recs2)-1]
			if last.LSN != lsn || !bytes.Equal(last.Data, fresh.Data) {
				t.Errorf("fresh record did not round-trip: %+v", last)
			}
		})
	}
}

// TestRecoverTornMultiPageRecord tears a record that spans pages at the
// page boundary: the first page of the record is durable, the rest is
// not — the shape a real partial flush produces.
func TestRecoverTornMultiPageRecord(t *testing.T) {
	big := &Record{Txn: 2, Type: RecAppend, Object: 3, Data: bytes.Repeat([]byte{0xCD}, 700)}
	vol, prefixLSNs, lastOff, lastSize, _, _ := buildTornLog(t, big)
	if lastSize <= 256 {
		t.Fatalf("victim record must span pages, got %d bytes", lastSize)
	}

	img, err := vol.Read(0, int(vol.NumPages()))
	if err != nil {
		t.Fatal(err)
	}
	// Zero every page of the record after the first.
	ps := 256
	secondPage := (lastOff/ps + 1) * ps
	for i := secondPage; i < lastOff+lastSize; i++ {
		img[i] = 0
	}
	if err := vol.WritePages(0, int(vol.NumPages()), img); err != nil {
		t.Fatal(err)
	}

	l2, recs, err := Recover(vol, 0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(recs) != len(prefixLSNs) {
		t.Fatalf("recovered %d records, want intact prefix of %d", len(recs), len(prefixLSNs))
	}
	if got := l2.Tail(); got != int64(lastOff) {
		t.Errorf("tail at %d, want %d", got, lastOff)
	}
}

// fillEpoch appends n records, forces them, and returns their LSNs.
func fillEpoch(t *testing.T, l *Log, n int, txn uint64) []uint64 {
	t.Helper()
	var lsns []uint64
	for i := 0; i < n; i++ {
		lsn, err := l.Append(&Record{Txn: txn, Type: RecAppend, Object: 3, Data: bytes.Repeat([]byte{byte(txn)}, 100)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	return lsns
}

// TestResetZeroesOnlyTheEndingEpoch: once one Reset has cleared the
// whole volume, later Resets clear just the pages their epoch wrote, the
// volume still reads all-zero afterwards, and stale-epoch records a lost
// zeroing leaves behind — intact, beyond a partially zeroed region — are
// rejected by the scan's LSN check.
func TestResetZeroesOnlyTheEndingEpoch(t *testing.T) {
	l, vol := newLog(t, 64)
	ps := int64(vol.PageSize())
	fillEpoch(t, l, 3, 1)
	if err := l.Reset(l.Base() + uint64(l.Tail())); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().PagesZeroed; got != int64(vol.NumPages()) {
		t.Fatalf("first reset after New zeroed %d pages, want the whole volume (%d)", got, vol.NumPages())
	}

	// Second epoch: 20 records spanning several pages.
	base2 := l.Base()
	lsns := fillEpoch(t, l, 20, 2)
	epochPages := (l.Tail() + ps - 1) / ps
	if epochPages < 4 {
		t.Fatalf("epoch spans only %d pages", epochPages)
	}
	stale, err := vol.Read(0, int(epochPages))
	if err != nil {
		t.Fatal(err)
	}
	before := vol.Stats().PagesWritten
	base3 := base2 + uint64(l.Tail())
	if err := l.Reset(base3); err != nil {
		t.Fatal(err)
	}
	if got := vol.Stats().PagesWritten - before; got != epochPages {
		t.Errorf("second reset wrote %d pages, want the epoch's %d", got, epochPages)
	}
	img, err := vol.Read(0, int(vol.NumPages()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, make([]byte, len(img))) {
		t.Error("volume not all-zero after a bounded reset")
	}

	// The crash swallowed the zeroing of every page but the first two:
	// the old epoch's records further on are intact again.  One record
	// of the new epoch sits on page 0.
	if err := vol.WritePages(2, int(epochPages)-2, stale[2*ps:]); err != nil {
		t.Fatal(err)
	}
	fresh := fillEpoch(t, l, 1, 3)
	if err := vol.ForceAll(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	l3, recs, err := Recover(vol, base3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != fresh[0] {
		t.Fatalf("recovered %d records, want only the new epoch's one", len(recs))
	}
	// A scan that lands exactly ON an intact stale record — as it would
	// once the new epoch grows up to it — still rejects it: its CRC
	// passes, its LSN belongs to the old base.
	for _, lsn := range lsns {
		off := int64(lsn - base2 - 1)
		if off < 2*ps {
			continue
		}
		n := 0
		if err := l3.Scan(off, func(*Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("scan from the stale record at offset %d accepted %d records", off, n)
		}
		// Under its own base the same bytes are a valid record: the
		// rejection above is the epoch check, not damage.
		if err := New(vol, base2).Scan(off, func(*Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("stale record at offset %d is not intact; the test proves nothing", off)
		}
		return
	}
	t.Fatal("no stale record starts beyond the zeroed pages")
}

// TestFirstResetAfterRecoverZeroesWholeVolume: a recovered log knows
// nothing about the pages past its tail (a lost zeroing may have left
// stale records anywhere), so its first Reset clears everything; only
// the next one is bounded.
func TestFirstResetAfterRecoverZeroesWholeVolume(t *testing.T) {
	l, vol := newLog(t, 32)
	fillEpoch(t, l, 2, 1)
	// Junk far past the tail, as a lost zeroing would leave.
	junk := bytes.Repeat([]byte{0xEE}, vol.PageSize())
	if err := vol.WritePages(20, 1, junk); err != nil {
		t.Fatal(err)
	}
	if err := vol.ForceAll(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	l2, recs, err := Recover(vol, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	if err := l2.Reset(l2.Base() + uint64(l2.Tail())); err != nil {
		t.Fatal(err)
	}
	if got := l2.Stats().PagesZeroed; got != int64(vol.NumPages()) {
		t.Errorf("first reset after Recover zeroed %d pages, want all %d", got, vol.NumPages())
	}
	page, err := vol.Read(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, make([]byte, len(page))) {
		t.Error("junk past the recovered tail survived the first reset")
	}
	fillEpoch(t, l2, 1, 2)
	if err := l2.Reset(l2.Base() + uint64(l2.Tail())); err != nil {
		t.Fatal(err)
	}
	if got := l2.Stats().PagesZeroed - int64(vol.NumPages()); got != 1 {
		t.Errorf("second reset zeroed %d pages, want the one the epoch wrote", got)
	}
}

// TestFlushNeverReadsItsOwnTail: flushes that start mid-page complete
// the boundary page from memory, across a recovery too, and the records
// sharing that page survive.
func TestFlushNeverReadsItsOwnTail(t *testing.T) {
	l, vol := newLog(t, 32)
	var want []uint64
	for i := 0; i < 6; i++ {
		want = append(want, fillEpoch(t, l, 1, uint64(i+1))...)
	}
	if got := vol.Stats().Reads; got != 0 {
		t.Errorf("%d device reads during 6 mid-page flushes, want 0", got)
	}
	vol.Crash()
	l2, recs, err := Recover(vol, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Tail()%int64(vol.PageSize()) == 0 {
		t.Fatal("tail is page-aligned; the test needs a mid-page frontier")
	}
	vol.ResetStats()
	for i := 0; i < 3; i++ {
		want = append(want, fillEpoch(t, l2, 1, uint64(i+7))...)
	}
	if got := vol.Stats().Reads; got != 0 {
		t.Errorf("%d device reads flushing after Recover, want 0", got)
	}
	if len(recs) != 6 {
		t.Fatalf("recovered %d records, want 6", len(recs))
	}
	_, recs, err = Recover(vol, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.LSN != want[i] {
			t.Errorf("record %d: LSN %d, want %d", i, r.LSN, want[i])
		}
	}
}
