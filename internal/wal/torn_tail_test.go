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
// as end-of-log: return exactly the intact prefix, position the tail on
// the page boundary behind it, and leave the log appendable (new records
// start on that page and survive a second recovery).

// tornCase mutates the raw volume image in place.  lastOff/lastSize
// delimit the final (victim) record; firstOff/firstSize the first one.
// keepsHeader says the victim's header still carries its LSN: that one
// would end every later scan where it sits, in front of anything appended
// after the recovery, so Recover pads over it — its only write.
type tornCase struct {
	name        string
	keepsHeader bool
	mut         func(img []byte, lastOff, lastSize, firstOff, firstSize int)
}

func tornTailCorpus() []tornCase {
	return []tornCase{
		{"zeroed-record", false, func(img []byte, off, size, _, _ int) {
			// The write never reached the device at all.
			for i := off; i < off+size; i++ {
				img[i] = 0
			}
		}},
		{"torn-mid-header", false, func(img []byte, off, size, _, _ int) {
			// CRC and size landed, the rest of the header did not.
			for i := off + 8; i < off+size; i++ {
				img[i] = 0
			}
		}},
		{"torn-mid-payload", true, func(img []byte, off, size, _, _ int) {
			// Header intact, payload bytes lost: checksum must catch it.
			for i := off + recHeaderSize; i < off+size; i++ {
				img[i] ^= 0x5A
			}
		}},
		{"garbage-tail", false, func(img []byte, off, size, _, _ int) {
			// Arbitrary junk: nothing decodes.
			for i := off; i < off+size; i++ {
				img[i] = 0xA5
			}
		}},
		{"garbage-length", true, func(img []byte, off, size, _, _ int) {
			// The header landed but for its length field, which still holds
			// whatever was there: larger than the record, inside the volume.
			// The LSN is right, so the scan does read that much; the
			// checksum, which covers the length, must reject it.
			binary.BigEndian.PutUint32(img[off+4:], uint32(size+4000))
		}},
		{"stale-epoch-record", false, func(img []byte, off, size, firstOff, firstSize int) {
			// A fully intact record from another position (as a reused
			// log region would contain): CRC passes, but its LSN does
			// not match base+off+1, so no scan takes it.
			if firstSize > size {
				firstSize = size
			}
			copy(img[off:off+firstSize], img[firstOff:firstOff+firstSize])
		}},
	}
}

// pageUp rounds a log offset up to the page boundary a flush would end on.
func pageUp(off, ps int) int { return (off + ps - 1) / ps * ps }

// rewrite applies mut to the whole volume image and makes the result durable.
func rewrite(t *testing.T, vol *disk.Volume, mut func(img []byte)) {
	t.Helper()
	img, err := vol.Read(0, int(vol.NumPages()))
	if err != nil {
		t.Fatal(err)
	}
	mut(img)
	if err := vol.WritePages(0, int(vol.NumPages()), img); err != nil {
		t.Fatal(err)
	}
	if err := vol.ForceAll(); err != nil {
		t.Fatal(err)
	}
}

// appendAll appends recs and returns their LSNs.
func appendAll(t *testing.T, l *Log, recs ...*Record) []uint64 {
	t.Helper()
	var lsns []uint64
	for _, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	return lsns
}

// expectLSNs checks that recs are exactly the records with the given LSNs.
func expectLSNs(t *testing.T, recs []*Record, want []uint64) {
	t.Helper()
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.LSN != want[i] {
			t.Errorf("record %d: LSN %d, want %d", i, r.LSN, want[i])
		}
	}
}

// buildTornLog appends a prefix of records plus one victim record,
// forces everything in one flush, and returns the volume along with the
// victim's byte offset/size and the first record's offset/size.
func buildTornLog(t *testing.T, victim *Record) (vol *disk.Volume, prefixLSNs []uint64, lastOff, lastSize, firstOff, firstSize int) {
	t.Helper()
	l, v := newLog(t, 64)
	prefixLSNs = appendAll(t, l,
		&Record{Txn: 1, Type: RecBegin},
		&Record{Txn: 1, Type: RecInsert, Object: 3, Off: 0, Data: []byte("durable payload")},
		&Record{Txn: 1, Type: RecCommit})
	firstOff = int(prefixLSNs[0]) - 1
	firstSize = int(prefixLSNs[1]) - 1 - firstOff
	lsn := appendAll(t, l, victim)[0]
	lastOff = int(lsn) - 1
	lastSize = int(l.Tail()) - lastOff
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	return v, prefixLSNs, lastOff, lastSize, firstOff, firstSize
}

// recoverTorn recovers a log whose victim record at lastOff (not on a page
// boundary) is damaged, checks that exactly the prefix comes back, the tail
// sits on the next boundary and Recover wrote only what it had to, then
// appends behind the tear and checks the fresh record survives too.
func recoverTorn(t *testing.T, vol *disk.Volume, prefixLSNs []uint64, lastOff int, keepsHeader bool) {
	t.Helper()
	ps := vol.PageSize()
	boundary := pageUp(lastOff, ps)
	if boundary == lastOff {
		t.Fatal("the victim starts a page; the case needs it behind other records")
	}
	vol.ResetStats()
	l2, recs, err := Recover(vol, 0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	expectLSNs(t, recs, prefixLSNs)
	if got := l2.Tail(); got != int64(boundary) {
		t.Errorf("tail at %d, want the page boundary %d behind the intact prefix", got, boundary)
	}
	wantWrites := int64(0)
	if keepsHeader {
		wantWrites = 1
	}
	if st := vol.Stats(); st.Writes != wantWrites || st.PagesWritten != wantWrites {
		t.Errorf("Recover issued %d writes of %d pages, want %d of one page", st.Writes, st.PagesWritten, wantWrites)
	}
	if keepsHeader {
		page, err := vol.Read(disk.PageNum(lastOff/ps), 1)
		if err != nil {
			t.Fatal(err)
		}
		if rest := page[lastOff%ps:]; !bytes.Equal(rest, bytes.Repeat([]byte{padByte}, len(rest))) {
			t.Errorf("the torn record's header is still there after Recover")
		}
	}

	// The log must remain usable: a fresh append starts the next page and
	// survives another recovery, whatever the tear left in front of it.
	fresh := &Record{Txn: 9, Type: RecAppend, Object: 3, Data: []byte("after the tear")}
	lsn := appendAll(t, l2, fresh)[0]
	if lsn != uint64(boundary)+1 {
		t.Errorf("fresh record at LSN %d, want %d (the page behind the tear)", lsn, boundary+1)
	}
	if err := l2.Force(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	_, recs2, err := Recover(vol, 0)
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	expectLSNs(t, recs2, append(append([]uint64{}, prefixLSNs...), lsn))
	if last := recs2[len(recs2)-1]; !bytes.Equal(last.Data, fresh.Data) {
		t.Errorf("fresh record did not round-trip: %+v", last)
	}
}

func TestRecoverTornTailCorpus(t *testing.T) {
	for _, tc := range tornTailCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			victim := &Record{Txn: 2, Type: RecAppend, Object: 3, Data: []byte("torn away")}
			vol, prefixLSNs, lastOff, lastSize, firstOff, firstSize := buildTornLog(t, victim)
			rewrite(t, vol, func(img []byte) { tc.mut(img, lastOff, lastSize, firstOff, firstSize) })
			recoverTorn(t, vol, prefixLSNs, lastOff, tc.keepsHeader)
		})
	}
}

// TestRecoverTornMultiPageRecord tears a record that spans pages at the
// page boundary: the first page of the record is durable, the rest is
// not — the shape a real partial flush produces.  Its header survives
// behind the intact records that share its first page.
func TestRecoverTornMultiPageRecord(t *testing.T) {
	big := &Record{Txn: 2, Type: RecAppend, Object: 3, Data: bytes.Repeat([]byte{0xCD}, 700)}
	vol, prefixLSNs, lastOff, lastSize, _, _ := buildTornLog(t, big)
	ps := vol.PageSize()
	if lastSize <= ps {
		t.Fatalf("victim record must span pages, got %d bytes", lastSize)
	}
	// Zero every page of the record after the first.
	rewrite(t, vol, func(img []byte) {
		for i := pageUp(lastOff, ps); i < lastOff+lastSize; i++ {
			img[i] = 0
		}
	})
	recoverTorn(t, vol, prefixLSNs, lastOff, true)
}

// TestPaddingOfEveryLengthIsSteppedOver: a force may end any number of
// bytes short of its page's end — fewer than a header holds, so that the
// header read at its end runs into the next force's first page, or none at
// all.  The next force's records come back either way.
func TestPaddingOfEveryLengthIsSteppedOver(t *testing.T) {
	for pad := 0; pad <= recHeaderSize; pad++ {
		l, vol := newLog(t, 8)
		ps := vol.PageSize()
		first := &Record{Txn: 1, Type: RecAppend, Data: bytes.Repeat([]byte{7}, ps-pad-recHeaderSize)}
		want := appendAll(t, l, first)
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
		if got := l.Stats().PadBytes; got != int64(pad) {
			t.Fatalf("pad %d: PadBytes = %d", pad, got)
		}
		want = append(want, appendAll(t, l, &Record{Txn: 2, Type: RecBegin}, &Record{Txn: 2, Type: RecCommit})...)
		if want[1] != uint64(ps)+1 {
			t.Fatalf("pad %d: second force begins at LSN %d, want %d", pad, want[1], ps+1)
		}
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
		vol.Crash()
		l2, recs, err := Recover(vol, 0)
		if err != nil {
			t.Fatal(err)
		}
		expectLSNs(t, recs, want)
		if l2.Tail() != int64(2*ps) {
			t.Fatalf("pad %d: recovered tail %d, want %d", pad, l2.Tail(), 2*ps)
		}
	}
}

// TestLostFirstPageHidesTheWholeForce: the crash kept a later page of the
// force in flight and lost its first.  A record begins exactly on the kept
// page — right LSN, right checksum — and must not surface: nothing in front
// of it says a force of this epoch ever began on the lost page.
func TestLostFirstPageHidesTheWholeForce(t *testing.T) {
	l, vol := newLog(t, 16)
	ps := vol.PageSize()
	want := appendAll(t, l, &Record{Txn: 1, Type: RecBegin}, &Record{Txn: 1, Type: RecCommit})
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	lost := appendAll(t, l, onePageRecord(2, ps), &Record{Txn: 2, Type: RecCommit})
	if lost[0] != uint64(ps)+1 || lost[1] != uint64(2*ps)+1 {
		t.Fatalf("second force's records at LSNs %v, want one on each page boundary", lost)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if err := vol.WritePages(1, 1, make([]byte, ps)); err != nil {
		t.Fatal(err)
	}
	if err := vol.ForceAll(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := New(vol, 0).Scan(int64(2*ps), func(*Record) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("the commit on the kept page is not intact (%d records, err %v); the test proves nothing", n, err)
	}
	l2, recs, err := Recover(vol, 0)
	if err != nil {
		t.Fatal(err)
	}
	expectLSNs(t, recs, want)
	if l2.Tail() != int64(ps) {
		t.Errorf("recovered tail %d, want the lost page's boundary %d", l2.Tail(), ps)
	}
}

// TestForgedHeaderBehindTornRecordNeverSurfaces: a torn record ends the
// scan where it stands.  Stepping to the next page boundary, as the scan
// does behind padding, would land in the torn record's own payload — bytes
// a client chose, here a commit record with the LSN and checksum that
// boundary calls for.
func TestForgedHeaderBehindTornRecordNeverSurfaces(t *testing.T) {
	l, vol := newLog(t, 16)
	ps := vol.PageSize()
	want := appendAll(t, l, &Record{Txn: 1, Type: RecBegin})
	victimOff := int(l.Tail())
	forged := encode(&Record{LSN: uint64(ps) + 1, Txn: 1, Type: RecCommit})
	payload := bytes.Repeat([]byte{0x11}, 3*ps)
	copy(payload[ps-victimOff-recHeaderSize:], forged)
	appendAll(t, l, &Record{Txn: 1, Type: RecAppend, Data: payload})
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// The crash lost the third page of the flush.
	if err := vol.WritePages(2, 1, make([]byte, ps)); err != nil {
		t.Fatal(err)
	}
	if err := vol.ForceAll(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := New(vol, 0).Scan(int64(ps), func(r *Record) error {
		if r.Type == RecCommit && r.LSN == uint64(ps)+1 {
			n++
		}
		return nil
	}); err != nil || n != 1 {
		t.Fatalf("the forged commit does not decode at the boundary (%d, err %v); the test proves nothing", n, err)
	}
	_, recs, err := Recover(vol, 0)
	if err != nil {
		t.Fatal(err)
	}
	expectLSNs(t, recs, want)
}

// TestUnpaddedLogStillScansWhole: a log written by a build that packed its
// forces back to back — records contiguous across page boundaries, the tail
// in the middle of a page — recovers whole, and goes on from the next page.
func TestUnpaddedLogStillScansWhole(t *testing.T) {
	vol := disk.MustNewVolume(256, 16, disk.CostModel{})
	var img []byte
	var want []uint64
	for i := 0; i < 9; i++ {
		r := &Record{LSN: uint64(len(img)) + 1, Txn: uint64(i), Type: RecAppend, Data: bytes.Repeat([]byte{byte(i)}, 40+i)}
		want = append(want, r.LSN)
		img = append(img, encode(r)...)
	}
	ps := vol.PageSize()
	end := len(img)
	if end < 3*ps || end%ps == 0 {
		t.Fatalf("image of %d bytes: want several pages and a tail inside one", end)
	}
	img = append(img, make([]byte, pageUp(end, ps)-end)...)
	if err := vol.WritePages(0, len(img)/ps, img); err != nil {
		t.Fatal(err)
	}
	if err := vol.ForceAll(); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Recover(vol, 0)
	if err != nil {
		t.Fatal(err)
	}
	expectLSNs(t, recs, want)
	if l.Tail() != int64(pageUp(end, ps)) {
		t.Fatalf("tail %d, want %d", l.Tail(), pageUp(end, ps))
	}
	want = append(want, fillEpoch(t, l, 1, 77)...)
	vol.Crash()
	_, recs, err = Recover(vol, 0)
	if err != nil {
		t.Fatal(err)
	}
	expectLSNs(t, recs, want)
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

// TestNoLogPageIsWrittenTwice: every flush starts on the page behind the
// last one's — also the first flush after a recovery — so no flush writes a
// page an earlier one wrote, none reads, and only the first of a process
// (the head is wherever the recovery scan left it) repositions the head.
func TestNoLogPageIsWrittenTwice(t *testing.T) {
	l, vol := newLog(t, 64)
	written := map[disk.PageNum]bool{}
	next, first := disk.PageNum(0), true
	vol.SetTracer(func(ev disk.TraceEvent) {
		if !ev.Write {
			return
		}
		if ev.Start != next || ev.Seek && !first {
			t.Errorf("write of pages %d..%d (seek %v), want it to continue at page %d", ev.Start, int(ev.Start)+ev.Pages-1, ev.Seek, next)
		}
		for p := ev.Start; p < ev.Start+disk.PageNum(ev.Pages); p++ {
			if written[p] {
				t.Errorf("log page %d written a second time", p)
			}
			written[p] = true
		}
		next, first = ev.Start+disk.PageNum(ev.Pages), false
	})
	var want []uint64
	for i := 0; i < 6; i++ {
		want = append(want, fillEpoch(t, l, 1+i%3, uint64(i+1))...)
	}
	if got := vol.Stats().Reads; got != 0 {
		t.Errorf("%d device reads during 6 flushes, want 0", got)
	}
	vol.Crash()
	l2, recs, err := Recover(vol, 0)
	if err != nil {
		t.Fatal(err)
	}
	expectLSNs(t, recs, want)
	vol.ResetStats()
	first = true
	for i := 0; i < 3; i++ {
		want = append(want, fillEpoch(t, l2, 2, uint64(i+7))...)
	}
	if got := vol.Stats().Reads; got != 0 {
		t.Errorf("%d device reads flushing after Recover, want 0", got)
	}
	if len(written) != int(l2.Tail())/vol.PageSize() {
		t.Errorf("%d pages written for a log of %d", len(written), l2.Tail())
	}
	_, recs, err = Recover(vol, 0)
	if err != nil {
		t.Fatal(err)
	}
	expectLSNs(t, recs, want)
}

// gatedVolume holds every write until the test lets it go.
type gatedVolume struct {
	*disk.Volume
	entered, release chan struct{}
}

func (g *gatedVolume) WritePages(start disk.PageNum, n int, buf []byte) error {
	g.entered <- struct{}{}
	<-g.release
	return g.Volume.WritePages(start, n, buf)
}

// TestAppendsDuringAFlushLandBehindIt: the leader seals the tail before it
// writes, so a record appended while that write is in flight begins the next
// page — and the flush that carries it writes none of the leader's pages.
func TestAppendsDuringAFlushLandBehindIt(t *testing.T) {
	vol := disk.MustNewVolume(256, 64, disk.CostModel{})
	g := &gatedVolume{Volume: vol, entered: make(chan struct{}), release: make(chan struct{})}
	l := New(g, 0)
	var writes []disk.TraceEvent
	vol.SetTracer(func(ev disk.TraceEvent) {
		if ev.Write {
			writes = append(writes, ev)
		}
	})
	want := appendAll(t, l, &Record{Txn: 1, Type: RecBegin}, &Record{Txn: 1, Type: RecCommit})
	led := make(chan error, 1)
	go func() { led <- l.ForceLSN(want[1]) }()
	<-g.entered
	ps := vol.PageSize()
	racing := appendAll(t, l, &Record{Txn: 2, Type: RecBegin}, &Record{Txn: 2, Type: RecCommit})
	if racing[0] != uint64(ps)+1 {
		t.Errorf("record appended during the leader's write has LSN %d, want %d: the first byte of the next page", racing[0], ps+1)
	}
	g.release <- struct{}{}
	if err := <-led; err != nil {
		t.Fatal(err)
	}
	go func() { <-g.entered; g.release <- struct{}{} }()
	if err := l.ForceLSN(racing[1]); err != nil {
		t.Fatal(err)
	}
	if len(writes) != 2 || writes[0].Start != 0 || writes[0].Pages != 1 ||
		writes[1] != (disk.TraceEvent{Write: true, Start: 1, Pages: 1}) {
		t.Errorf("log writes %+v, want page 0, then page 1 without a seek", writes)
	}
	vol.Crash()
	_, recs, err := Recover(vol, 0)
	if err != nil {
		t.Fatal(err)
	}
	expectLSNs(t, recs, append(want, racing...))
}
