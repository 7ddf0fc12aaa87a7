package wal

import (
	"bytes"
	"encoding/binary"
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
		{"garbage-length", func(img []byte, off, size, _, _ int) {
			// The header landed but for its length field, which still holds
			// whatever was there: larger than the record, inside the volume.
			// The LSN is right, so the scan does read that much; the
			// checksum, which covers the length, must reject it.
			binary.BigEndian.PutUint32(img[off+4:], uint32(size+4000))
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

// TestResetWritesNothing: a truncation costs no device request and leaves
// the ending epoch's records where they were; the new epoch's recovery
// still returns only its own, and a scan that lands exactly ON an intact
// old record rejects it.
func TestResetWritesNothing(t *testing.T) {
	l, vol := newLog(t, 64)
	ps := int64(vol.PageSize())
	base1 := l.Base()
	lsns := fillEpoch(t, l, 20, 1)
	epochPages := (l.Tail() + ps - 1) / ps
	if epochPages < 4 {
		t.Fatalf("epoch spans only %d pages", epochPages)
	}
	image, err := vol.Read(0, int(vol.NumPages()))
	if err != nil {
		t.Fatal(err)
	}
	before := vol.Stats()
	base2 := base1 + uint64(l.Tail())
	if err := l.Reset(base2); err != nil {
		t.Fatal(err)
	}
	if after := vol.Stats(); after.Writes != before.Writes || after.PagesWritten != before.PagesWritten || after.Syncs != before.Syncs {
		t.Errorf("Reset touched the device: %+v -> %+v", before, after)
	}
	if now, err := vol.Read(0, int(vol.NumPages())); err != nil || !bytes.Equal(now, image) {
		t.Errorf("Reset changed the volume's bytes (err %v)", err)
	}

	// One record of the new epoch on page 0; the old epoch's records
	// further on are intact.
	fresh := fillEpoch(t, l, 1, 2)
	vol.Crash()
	l2, recs, err := Recover(vol, base2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != fresh[0] {
		t.Fatalf("recovered %d records, want only the new epoch's one", len(recs))
	}
	checked := 0
	for _, lsn := range lsns {
		off := int64(lsn - base1 - 1)
		if off < ps {
			continue // page 0 was rewritten by the new epoch
		}
		n := 0
		if err := l2.Scan(off, func(*Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("scan from the old record at offset %d accepted %d records", off, n)
		}
		// Under its own base the same bytes are a valid record: the
		// rejection above is the epoch check, not damage.
		if err := New(vol, base1).Scan(off, func(*Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("old record at offset %d is not intact; the test proves nothing", off)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no old record starts beyond page 0")
	}
}

// onePageRecord is a record whose encoding fills exactly one log page.
func onePageRecord(txn uint64, ps int) *Record {
	return &Record{Txn: txn, Type: RecAppend, Object: 3, Data: bytes.Repeat([]byte{byte(txn)}, ps-recHeaderSize)}
}

// TestOldRecordAtNewTailNeverSurfaces: two epochs that begin with records
// of the same sizes put an intact old record — valid CRC — exactly at the
// new epoch's tail, on a page the new epoch has not written.  Nothing
// erased it; only its LSN says it is old.  Recovery must stop in front of
// it, and the log must go on from there.
func TestOldRecordAtNewTailNeverSurfaces(t *testing.T) {
	l, vol := newLog(t, 64)
	ps := vol.PageSize()
	base1 := l.Base()
	for txn := uint64(1); txn <= 3; txn++ {
		if _, err := l.Append(onePageRecord(txn, ps)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	base2 := base1 + uint64(l.Tail())
	if err := l.Reset(base2); err != nil {
		t.Fatal(err)
	}
	first, err := l.Append(onePageRecord(7, ps))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if l.Tail() != int64(ps) {
		t.Fatalf("new epoch's tail at %d, want the page boundary %d", l.Tail(), ps)
	}
	vol.Crash()

	n := 0
	if err := New(vol, base1).Scan(int64(ps), func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("%d intact old records at the new tail, want 2; the test proves nothing", n)
	}
	l2, recs, err := Recover(vol, base2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != first || recs[0].Txn != 7 {
		t.Fatalf("recovered %d records, want only the new epoch's one", len(recs))
	}
	if l2.Tail() != int64(ps) {
		t.Errorf("recovered tail at %d, want %d", l2.Tail(), ps)
	}
	// The next record overwrites the old one and survives.
	second, err := l2.Append(onePageRecord(8, ps))
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Force(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	_, recs, err = Recover(vol, base2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].LSN != second || recs[1].Txn != 8 {
		t.Fatalf("after the overwrite recovered %d records, want the new epoch's two", len(recs))
	}
}

// TestJunkPastRecoveredTailNeverSurfaces: a recovered log knows nothing
// about the pages past its tail — junk, or records of the epoch the crash
// ended — and nothing clears them.  They stay out of every later scan,
// also once the epoch after the recovery has grown up to them.
func TestJunkPastRecoveredTailNeverSurfaces(t *testing.T) {
	l, vol := newLog(t, 32)
	ps := vol.PageSize()
	for txn := uint64(1); txn <= 4; txn++ {
		if _, err := l.Append(onePageRecord(txn, ps)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// The crash tore the third record; the fourth is intact behind it, and
	// there is junk far past the tail.
	if err := vol.WritePages(2, 1, bytes.Repeat([]byte{0xA5}, ps)); err != nil {
		t.Fatal(err)
	}
	if err := vol.WritePages(20, 1, bytes.Repeat([]byte{0xEE}, ps)); err != nil {
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
	if len(recs) != 2 || l2.Tail() != int64(2*ps) {
		t.Fatalf("recovered %d records, tail %d; want 2 and %d", len(recs), l2.Tail(), 2*ps)
	}
	// Recovery's checkpoint starts a new epoch behind what it found.
	base2 := l2.Base() + uint64(l2.Tail())
	if err := l2.Reset(base2); err != nil {
		t.Fatal(err)
	}
	// The new epoch grows to exactly where the intact fourth record sits,
	// then across the junk page.
	want := 0
	for _, upTo := range []int{3, 22} {
		for ; want < upTo; want++ {
			if _, err := l2.Append(onePageRecord(uint64(10+want), ps)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l2.Force(); err != nil {
			t.Fatal(err)
		}
		vol.Crash()
		var recs []*Record
		l2, recs, err = Recover(vol, base2)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != want {
			t.Fatalf("recovered %d records, want the new epoch's %d", len(recs), want)
		}
		for i, r := range recs {
			if r.Txn != uint64(10+i) {
				t.Fatalf("record %d belongs to txn %d: an old record surfaced", i, r.Txn)
			}
		}
	}
}

// TestScanTestsLSNBeforeLength: an old record's length field may claim
// most of the volume.  The scan reads its header, sees the LSN is not this
// epoch's, and stops — it never transfers (or allocates) what the length
// asks for.
func TestScanTestsLSNBeforeLength(t *testing.T) {
	l, vol := newLog(t, 4096)
	ps := int64(vol.PageSize())
	total := ps * int64(vol.NumPages())
	if _, err := l.Append(&Record{Txn: 1, Type: RecAppend, Data: bytes.Repeat([]byte{1}, int(total)-2*recHeaderSize)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	base2 := l.Base() + uint64(l.Tail())
	vol.ResetStats()
	_, recs, err := Recover(vol, base2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("recovered %d records from the old epoch", len(recs))
	}
	if got := vol.Stats().PagesRead; got > 2 {
		t.Errorf("scan read %d pages of a %d-page old record, want its header only", got, total/ps)
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
