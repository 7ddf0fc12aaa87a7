package wal

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

func newLog(t testing.TB, pages disk.PageNum) (*Log, *disk.Volume) {
	t.Helper()
	vol := disk.MustNewVolume(256, pages, disk.CostModel{})
	return New(vol, 0), vol
}

func TestAppendScanRoundTrip(t *testing.T) {
	l, _ := newLog(t, 64)
	recs := []*Record{
		{Txn: 1, Type: RecCreate},
		{Txn: 1, Type: RecInsert, Object: 7, Off: 100, Data: []byte("hello world")},
		{Txn: 1, Type: RecDelete, Object: 7, Off: 5, N: 3},
		{Txn: 1, Type: RecInsert, Object: 7, Off: 0, N: 900, Extents: []Extent{{Start: 40, Bytes: 600}, {Start: 99, Bytes: 1 << 40}}},
		{Txn: 1, Type: RecAppend, Object: 7, Off: 900, N: 300, Data: []byte("tail"), Extents: []Extent{{Start: 41, Pages: 8, Bytes: 304}}},
		{Txn: 1, Type: RecCommit},
	}
	var lsns []uint64
	for _, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Errorf("LSNs not increasing: %v", lsns)
		}
	}
	var got []*Record
	if err := l.Scan(1, func(r *Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		w := recs[i]
		if r.Txn != w.Txn || r.Type != w.Type || r.Object != w.Object ||
			r.Off != w.Off || r.N != w.N ||
			!bytes.Equal(r.Data, w.Data) || !slices.Equal(r.Extents, w.Extents) {
			t.Errorf("record %d: got %+v want %+v", i, r, w)
		}
	}
}

func TestCrashDropsUnforcedRecords(t *testing.T) {
	l, vol := newLog(t, 64)
	if _, err := l.Append(&Record{Txn: 1, Type: RecCreate}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Txn: 1, Type: RecInsert, Data: []byte("durable")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Txn: 1, Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	// The commit record was never forced.
	vol.Crash()

	l2, recs, err := Recover(vol, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2 (commit lost)", len(recs))
	}
	if recs[1].Type != RecInsert || !bytes.Equal(recs[1].Data, []byte("durable")) {
		t.Errorf("recovered record = %+v", recs[1])
	}
	// Appends continue at the recovered tail.
	if _, err := l2.Append(&Record{Txn: 2, Type: RecCreate}); err != nil {
		t.Fatal(err)
	}
	var count int
	l2.Scan(1, func(*Record) error { count++; return nil })
	if count != 3 {
		t.Errorf("records after resumed append = %d, want 3", count)
	}
}

func TestMultiPageRecords(t *testing.T) {
	l, vol := newLog(t, 64)
	big := make([]byte, 1000) // ~4 pages at 256-byte pages
	for i := range big {
		big[i] = byte(i)
	}
	if _, err := l.Append(&Record{Txn: 1, Type: RecAppend, Data: big}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Txn: 1, Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	_, recs, err := Recover(vol, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !bytes.Equal(recs[0].Data, big) {
		t.Fatalf("big record lost: %d records", len(recs))
	}
}

func TestLogFull(t *testing.T) {
	l, _ := newLog(t, 2)
	payload := make([]byte, 300)
	if _, err := l.Append(&Record{Type: RecAppend, Data: payload}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Type: RecAppend, Data: payload}); !errors.Is(err, ErrLogFull) {
		t.Errorf("err = %v, want ErrLogFull", err)
	}
}

// TestLogFullBehindASealedPage: room is counted from the tail, and a flush
// leaves the tail on a page boundary.  A record that would fit only by
// sharing the flushed page is refused whole; one that fits behind it is
// not, and a truncation gives the refused one its room.  The records belong
// to no transaction, so the log keeps no end record's room for them.
func TestLogFullBehindASealedPage(t *testing.T) {
	l, vol := newLog(t, 2)
	ps := vol.PageSize()
	want := appendAll(t, l, &Record{Type: RecCreate})
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	before := vol.Stats()
	tooBig := &Record{Type: RecAppend, Data: make([]byte, ps+1-recHeaderSize)}
	if 2*ps-recHeaderSize < recHeaderSize+len(tooBig.Data) {
		t.Fatal("the record does not even fit an unpadded log; the test proves nothing")
	}
	if _, err := l.Append(tooBig); !errors.Is(err, ErrLogFull) {
		t.Fatalf("err = %v, want ErrLogFull for a record one byte longer than the page left", err)
	}
	if l.Tail() != uint64(ps) || l.Stats().Appends != 1 || vol.Stats() != before {
		t.Fatalf("the refused append left a trace: tail %d, stats %+v", l.Tail(), l.Stats())
	}
	want = append(want, appendAll(t, l, onePageRecord(1, ps))...)
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	var got []*Record
	if err := l.Scan(1, func(r *Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	expectLSNs(t, got, want)
	l.Truncate(l.Tail() + 1)
	if _, err := l.Append(tooBig); err != nil {
		t.Fatalf("after the truncation: %v", err)
	}
}

// TestTruncateKeepsNothingInFront: behind a truncation the log holds no
// byte in use, and a recovery from the new start sees exactly the records
// appended since — none of the ones in front of it.
func TestTruncateKeepsNothingInFront(t *testing.T) {
	l, vol := newLog(t, 16)
	for i := 0; i < 5; i++ {
		if _, err := l.Append(&Record{Txn: uint64(i), Type: RecCreate}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	start := l.Tail() + 1
	l.Truncate(start)
	if l.Used() != 0 {
		t.Errorf("%d bytes in use after the truncation", l.Used())
	}
	if _, err := l.Append(&Record{Txn: 9, Type: RecCreate}); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	_, recs, err := Recover(vol, start)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Txn != 9 {
		t.Fatalf("recovered %d records (want 1, txn 9)", len(recs))
	}
}

func TestRecTypeStrings(t *testing.T) {
	for _, rt := range []RecType{RecCommit, RecAbort, RecCreate, RecDestroy,
		RecAppend, RecInsert, RecDelete, RecReplace, RecCheckpoint, RecSkip} {
		if rt.String() == "" || rt.String()[0] == 'r' && rt.String() != "replace" {
			t.Errorf("missing String for %d", rt)
		}
	}
	if RecType(99).String() != "rectype(99)" {
		t.Error("unknown type string")
	}
}

func TestCorruptRecordStopsScan(t *testing.T) {
	l, vol := newLog(t, 16)
	if _, err := l.Append(&Record{Txn: 1, Type: RecCreate}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Txn: 1, Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	// Flush the buffered tail so the corruption below is not simply
	// overwritten by Scan's own flush.
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the second record's checksum area on disk.
	raw, _ := vol.Read(0, 1)
	raw[recHeaderSize+10] ^= 0xFF
	vol.WritePages(0, 1, raw)

	var count int
	if err := l.Scan(1, func(*Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("scanned %d records past corruption, want 1", count)
	}
}

func TestConcurrentAppends(t *testing.T) {
	l, _ := newLog(t, 256)
	const goroutines = 8
	const perG = 40
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				if _, err := l.Append(&Record{Txn: uint64(g), Type: RecCreate, Off: int64(i)}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// Every record intact, LSNs strictly increasing.
	var prev uint64
	count := 0
	if err := l.Scan(1, func(r *Record) error {
		if r.LSN <= prev {
			t.Errorf("LSN order violated: %d after %d", r.LSN, prev)
		}
		prev = r.LSN
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != goroutines*perG {
		t.Errorf("scanned %d records, want %d", count, goroutines*perG)
	}
}

func BenchmarkAppendRecord(b *testing.B) {
	vol := disk.MustNewVolume(4096, 1<<16, disk.CostModel{})
	l := New(vol, 0)
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(&Record{Txn: 1, Type: RecInsert, Off: int64(i), Data: payload}); err != nil {
			if errors.Is(err, ErrLogFull) {
				b.StopTimer()
				if err := l.Force(); err != nil {
					b.Fatal(err)
				}
				l.Truncate(l.Tail() + 1)
				b.StartTimer()
				continue
			}
			b.Fatal(err)
		}
	}
}

func BenchmarkForce(b *testing.B) {
	vol := disk.MustNewVolume(4096, 1<<16, disk.CostModel{})
	l := New(vol, 0)
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(&Record{Txn: 1, Type: RecCommit, Data: payload}); err != nil {
			b.StopTimer()
			l.Truncate(l.Tail() + 1)
			b.StartTimer()
			continue
		}
		if err := l.Force(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBufferedAppendDoesNoIO(t *testing.T) {
	l, vol := newLog(t, 64)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(&Record{Txn: 1, Type: RecInsert, Data: make([]byte, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if w := vol.Stats().Writes; w != 0 {
		t.Fatalf("buffered appends issued %d volume writes, want 0", w)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if w := vol.Stats().Writes; w != 1 {
		t.Fatalf("force issued %d volume writes, want 1 batched write", w)
	}
	st := l.Stats()
	if st.Appends != 10 || st.LeaderForces != 1 || st.FlushedBytes == 0 {
		t.Fatalf("stats after force: %+v", st)
	}
}

func TestForceNoopWhenNothingAppended(t *testing.T) {
	l, vol := newLog(t, 64)
	if _, err := l.Append(&Record{Txn: 1, Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	before := vol.Stats()
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	after := vol.Stats()
	if after.Writes != before.Writes || after.Accesses() != before.Accesses() {
		t.Fatalf("redundant force touched the volume: before %+v after %+v", before, after)
	}
	if st := l.Stats(); st.ForceNoops != 1 {
		t.Fatalf("ForceNoops = %d, want 1 (stats %+v)", st.ForceNoops, st)
	}
}

func TestGroupCommitPiggyback(t *testing.T) {
	vol := disk.MustNewVolume(256, 1024,
		disk.CostModel{SeekMicros: 80, TransferMicrosPerPage: 5})
	l := New(vol, 0)
	vol.SetLatency(true, 1) // serialize device access like a single 1992 disk
	defer vol.SetLatency(false, 0)

	const goroutines = 8
	const perG = 25
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				lsn, err := l.Append(&Record{Txn: uint64(g), Type: RecCommit, Off: int64(i)})
				if err != nil {
					done <- err
					return
				}
				if err := l.ForceLSN(lsn); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Forces != goroutines*perG {
		t.Fatalf("Forces = %d, want %d", st.Forces, goroutines*perG)
	}
	// With 8 committers contending for the force path, most requests must
	// be satisfied by another committer's batch: physical force batches
	// should be well under the request count.
	if st.LeaderForces >= st.Forces {
		t.Fatalf("no batching: LeaderForces %d >= Forces %d", st.LeaderForces, st.Forces)
	}
	if st.Piggybacks+st.ForceNoops == 0 {
		t.Fatalf("no piggybacked forces at 8 committers: %+v", st)
	}
}

// TestForcedPrefixSurvivesCrash is the §4.5 durability proof for group
// commit: an acknowledged ForceLSN means that record — and every record
// before it — survives a crash, and recovery replays exactly a
// contiguous prefix that covers every acknowledgement.  The log volume
// is armed to fail mid-run, so some committers see errors; those must
// NOT be required to survive, but every success must.
func TestForcedPrefixSurvivesCrash(t *testing.T) {
	l, vol := newLog(t, 1024)
	boom := errors.New("injected log device failure")
	vol.FailAfter(6, boom)

	var ackedThrough uint64 // highest LSN successfully forced
	for i := 0; i < 200; i++ {
		lsn, err := l.Append(&Record{Txn: uint64(i), Type: RecCommit})
		if err != nil {
			if errors.Is(err, boom) {
				break
			}
			t.Fatal(err)
		}
		if err := l.ForceLSN(lsn); err != nil {
			if errors.Is(err, boom) {
				continue // not acked; may or may not survive
			}
			t.Fatal(err)
		}
		ackedThrough = lsn
	}
	vol.ClearFault()
	vol.Crash()

	rl, recs, err := Recover(vol, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery yields the log's prefix in LSN order: each record begins
	// where the one before it ended, or — when a force ended there — on the
	// next page boundary, behind nothing but padding...
	img, err := vol.Read(0, int(vol.NumPages()))
	if err != nil {
		t.Fatal(err)
	}
	ps := uint64(vol.PageSize())
	var end uint64
	for _, r := range recs {
		off := r.LSN - 1
		if off != end {
			gap := img[end:off]
			if off != (end+ps-1)/ps*ps || !bytes.Equal(gap, bytes.Repeat([]byte{padByte}, len(gap))) {
				t.Fatalf("record at offset %d after one ending at %d: the gap is not a force's padding", off, end)
			}
		}
		end = off + uint64(encodedSize(r))
	}
	// ...that covers every acknowledged commit.
	if ackedThrough > end {
		t.Fatalf("acked LSN %d lost: recovered prefix ends at %d", ackedThrough, end)
	}
	if ackedThrough == 0 {
		t.Fatal("test armed the fault too early: nothing was ever acked")
	}
	if want := (end + ps - 1) / ps * ps; rl.Tail() != want {
		t.Fatalf("recovered tail %d, want %d", rl.Tail(), want)
	}
}

// TestCommitHoldsTheLogUntilReleased: a transaction's first record holds
// the log's start (Oldest) while the transaction is live and, once its
// commit record is logged, until the client releases it — the client's
// image does not hold what it did before then.  An abort record lets go at
// once.  Neither kind counts as live once its end record is logged.
func TestCommitHoldsTheLogUntilReleased(t *testing.T) {
	l, _ := newLog(t, 64)
	log := func(txn uint64, typ RecType) uint64 {
		t.Helper()
		lsn, err := l.Append(&Record{Txn: txn, Type: typ, Data: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	first := log(1, RecReplace)
	log(2, RecReplace)
	log(1, RecCommit)
	if got := l.Oldest(); got != first {
		t.Fatalf("Oldest %d after txn 1 committed, want its first record %d", got, first)
	}
	log(2, RecAbort)
	if st := l.Stats(); st.LiveTxns != 0 || st.EndReserve != 0 || l.Oldest() != first {
		t.Fatalf("both ended, txn 1 unreleased: Oldest %d (want %d), ledger %+v", l.Oldest(), first, st)
	}
	third := log(3, RecReplace)
	l.Release(1)
	if got := l.Oldest(); got != third {
		t.Fatalf("Oldest %d after txn 1 was released, want txn 3's first record %d", got, third)
	}
	log(3, RecAbort)
	if got, want := l.Oldest(), l.Tail()+1; got != want {
		t.Fatalf("Oldest %d with nothing held, want the next record's %d", got, want)
	}
}
