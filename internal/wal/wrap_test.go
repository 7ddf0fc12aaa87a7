package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// Properties of a log that goes round its volume many times, each checked
// over a seeded stream of records of every size from a header to several
// pages, forced in batches and truncated behind a moving start.

// churn appends records of random sizes in random batches, forcing each
// batch and truncating so that at most keep bytes stay in use, until the
// log has gone round its volume laps times.  appended sees every record
// with its LSN; forced runs behind every force with the LSNs of the
// records kept since the start.
func churn(t *testing.T, l *Log, laps int, keep int64, appended func(*Record, uint64), forced func(kept []uint64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	var kept []uint64
	for l.Stats().Wraps < int64(laps) {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			r := &Record{Type: RecAppend, Data: bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(2*int(l.ps)))}
			lsn, err := l.Append(r)
			if err != nil {
				t.Fatal(err)
			}
			appended(r, lsn)
			kept = append(kept, lsn)
		}
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
		for l.Used() > keep && len(kept) > 1 {
			kept = kept[1:]
			l.Truncate(kept[0])
		}
		forced(kept)
	}
}

// TestPreviousLapNeverSurfaces: behind the tail lie the previous laps'
// records, intact, at every offset; a recovery from the start returns
// exactly the records appended since, every time.
func TestPreviousLapNeverSurfaces(t *testing.T) {
	l, vol := newLog(t, 16)
	recoveries := 0
	churn(t, l, 12, 256, func(*Record, uint64) {}, func(kept []uint64) {
		vol.Crash()
		var recs []*Record
		var err error
		if l, recs, err = Recover(vol, kept[0]); err != nil {
			t.Fatal(err)
		}
		expectLSNs(t, recs, kept)
		recoveries++
	})
	if recoveries < 50 {
		t.Fatalf("only %d recoveries over twelve laps", recoveries)
	}
}

// TestNoRecordStraddlesTheEnd: every record lies whole between its offset
// and the volume's end — the room in front of the end goes to a skip
// record or padding — so that one read of it never wraps.
func TestNoRecordStraddlesTheEnd(t *testing.T) {
	l, _ := newLog(t, 16)
	size := l.size
	wrapped := 0
	churn(t, l, 5, 256, func(r *Record, lsn uint64) {
		off := (lsn - 1) % size
		if end := off + uint64(encodedSize(r)); end > size {
			t.Fatalf("record at LSN %d covers offsets %d..%d of a %d-byte volume", lsn, off, end, size)
		}
		if off == 0 {
			wrapped++
		}
	}, func([]uint64) {})
	if wrapped < 5 {
		t.Fatalf("%d records began a lap: the records never met the volume's end", wrapped)
	}
}

// TestReserveKeepsRoomForACheckpointAndItsRecovery: ordinary records
// forced until the log refuses one leave room for a checkpoint record of
// the reserved size, and checkpoint records leave a recovery room for
// NewLap and a checkpoint record of its own, should a crash keep them but
// nothing naming them — wherever the filling meets the volume's end.  A
// checkpoint record whose truncation would move nothing spends none of it.
func TestReserveKeepsRoomForACheckpointAndItsRecovery(t *testing.T) {
	for c := 0; c < 40; c++ {
		rng := rand.New(rand.NewSource(int64(100 + c)))
		l, vol, image, start := filledLog(t, c, func(l *Log) {
			if _, err := l.Append(&Record{Type: RecAppend, Data: make([]byte, rng.Intn(300))}); err != nil && !errors.Is(err, ErrLogFull) {
				t.Fatal(err)
			}
		})
		if _, err := l.Append(&Record{Type: RecCheckpoint, Data: image}); !errors.Is(err, ErrLogFull) {
			t.Fatalf("case %d: a checkpoint record that truncates nothing, on a log full of ordinary records: %v, want ErrLogFull", c, err)
		}
		checkpointAndRecover(t, c, l, vol, image, start)
	}
}

// TestEveryLiveTransactionCanEnd: the log keeps the room of the end record
// of every transaction that has logged.  Transactions log records until the
// log refuses any more, a new one's first record before the others'; then
// each ends, committed or aborted, forced alone or with others, wherever
// the volume's end falls.  An abort lets go of the log at once, a commit
// once it is released.  Behind them a checkpoint record still has its
// room, and a recovery too.
func TestEveryLiveTransactionCanEnd(t *testing.T) {
	for c := 0; c < 40; c++ {
		rng := rand.New(rand.NewSource(int64(100 + c)))
		live := map[uint64]bool{}
		l, vol, image, start := filledLog(t, c, func(l *Log) {
			txn := uint64(len(live) + 1)
			if len(live) > 0 && rng.Intn(3) > 0 {
				txn = uint64(1 + rng.Intn(len(live)))
			}
			tail, st := l.Tail(), l.Stats()
			_, err := l.Append(&Record{Txn: txn, Type: RecAppend, Data: make([]byte, rng.Intn(300))})
			switch {
			case err == nil:
				live[txn] = true
			case !errors.Is(err, ErrLogFull):
				t.Fatal(err)
			case l.Tail() != tail || l.Stats().LiveTxns != st.LiveTxns:
				t.Fatalf("case %d: the refused record of txn %d left a trace", c, txn)
			}
		})
		st := l.Stats()
		if st.LiveTxns != int64(len(live)) || st.EndReserve == 0 || st.Pinned == 0 {
			t.Fatalf("case %d: %d transactions live, the ledger says %+v", c, len(live), st)
		}
		if room := l.limit(l.start) - l.Tail(); room < uint64(st.ImageReserve+st.EndReserve) {
			t.Fatalf("case %d: %d bytes of room behind the tail, less than the %d the ledger keeps", c, room, st.ImageReserve+st.EndReserve)
		}
		var committed []uint64
		for txn := range live {
			end := RecCommit
			if rng.Intn(2) == 0 {
				end = RecAbort
			} else {
				committed = append(committed, txn)
			}
			if _, err := l.Append(&Record{Txn: txn, Type: end}); err != nil {
				t.Fatalf("case %d: the %s record of txn %d, one of %d live: %v", c, end, txn, len(live), err)
			}
			if rng.Intn(2) == 0 {
				if err := l.Force(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := l.Stats(); st.LiveTxns != 0 || st.EndReserve != 0 || (st.Pinned != 0) != (len(committed) > 0) {
			t.Fatalf("case %d: every transaction ended, %d committed, the ledger says %+v", c, len(committed), st)
		}
		for _, txn := range committed {
			l.Release(txn)
		}
		if st := l.Stats(); st.Pinned != 0 {
			t.Fatalf("case %d: every commit released, the ledger says %+v", c, st)
		}
		checkpointAndRecover(t, c, l, vol, image, start)
	}
}

// filledLog starts a log somewhere on a small volume, at a checkpoint
// record of a random size, and calls fill — which appends one record or
// fails to — until 20 calls in a row have left the tail where it was,
// forcing now and then.  It returns the log, its volume, the image and the
// checkpoint record's LSN: the start.
func filledLog(t *testing.T, c int, fill func(*Log)) (*Log, *disk.Volume, []byte, uint64) {
	t.Helper()
	l, vol := newLog(t, 48)
	rng := rand.New(rand.NewSource(int64(c)))
	image := make([]byte, 100+rng.Intn(400))
	// Start the log somewhere else on the volume each time.
	if _, err := l.Append(&Record{Type: RecCreate, Data: make([]byte, rng.Intn(int(l.size)/2))}); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	l.Reserve(len(image))
	start, err := l.Append(&Record{Type: RecCheckpoint, Data: image, N: int64(l.Tail() + 1)})
	if err != nil {
		t.Fatal(err)
	}
	l.Truncate(start)
	for still := 0; still < 20; {
		tail := l.Tail()
		fill(l)
		if still++; l.Tail() != tail {
			still = 0
		}
		if rng.Intn(2) == 0 {
			if err := l.Force(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return l, vol, image, start
}

// checkpointAndRecover appends checkpoint records that truncate behind
// themselves — the client's truncation not done, as after a crash before
// it named them — until the log refuses one; the first must fit.  A
// recovery from start then writes NewLap's skip record and a checkpoint
// record of its own.
func checkpointAndRecover(t *testing.T, c int, l *Log, vol *disk.Volume, image []byte, start uint64) {
	t.Helper()
	for n := 0; ; n++ {
		_, err := l.Append(&Record{Type: RecCheckpoint, Data: image, N: int64(l.Tail() + 1)})
		if errors.Is(err, ErrLogFull) && n > 0 {
			break
		}
		if err != nil {
			t.Fatalf("case %d: checkpoint record on a full log: %v", c, err)
		}
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
	}
	vol.Crash()
	l, _, err := Recover(vol, start)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.NewLap(); err != nil {
		t.Fatalf("case %d: recovery's NewLap: %v", c, err)
	}
	if _, err := l.Append(&Record{Type: RecCheckpoint, Data: image}); err != nil {
		t.Fatalf("case %d: recovery's checkpoint record: %v", c, err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
}

// TestStartPageIsNeverWritten: no write reaches the page that holds the
// log's start a lap on, however the log comes round to it — an append that
// would fails with ErrLogFull instead, and a truncation lets it go on.
func TestStartPageIsNeverWritten(t *testing.T) {
	l, vol := newLog(t, 16)
	size := l.size
	// limit is the first position a write must not reach: the start's page
	// a lap on.
	limit := func() uint64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.start - l.start%l.ps + size
	}
	vol.SetTracer(func(ev disk.TraceEvent) {
		// Appends and forces alternate on one goroutine: the write in
		// flight ends at the tail.
		if end := l.Tail(); ev.Write && end > limit() {
			t.Errorf("write of pages %d..%d ends at position %d, past the start's page a lap on (%d)", ev.Start, int(ev.Start)+ev.Pages-1, end, limit())
		}
	})
	rng := rand.New(rand.NewSource(7))
	var kept []uint64
	full := 0
	for l.Stats().Wraps < 4 {
		r := &Record{Type: RecAppend, Data: make([]byte, rng.Intn(2*256))}
		lsn, err := l.Append(r)
		if errors.Is(err, ErrLogFull) {
			// Refused only where it would have reached that page.
			need, tail := uint64(encodedSize(r)), l.Tail()
			if off := tail % size; off+need > size {
				need += size - off
			}
			if tail+need <= limit() {
				t.Fatalf("ErrLogFull with %d bytes of room for a %d-byte record", limit()-tail, need)
			}
			full++
			kept = kept[max(1, len(kept)/2):]
			if len(kept) == 0 {
				l.Truncate(l.Tail() + 1)
			} else {
				l.Truncate(kept[0])
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, lsn)
		if rng.Intn(3) == 0 {
			if err := l.Force(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if full == 0 {
		t.Fatal("the log never filled up to its start")
	}
}
