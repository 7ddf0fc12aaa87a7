// Package wal implements the write-ahead log for EOS recovery (§4.5).
//
// The paper's recovery design pairs two mechanisms: replace operations are
// logged (they modify leaf pages in place without touching index nodes),
// while insert, delete, and append shadow the index pages they modify and
// never overwrite existing leaf pages.  Because no control information is
// kept on leaf segments, "the log record of all updates must contain the
// operation that caused the update as well as its parameters, and the log
// sequence number of the update must be placed in the root page of the
// object to ensure that the update can be undone or redone idempotently."
//
// The log lives on its own volume (a separate log disk, as is
// conventional) and is a sequence of length-prefixed, checksummed
// records, written forward around the volume: circular.  Every byte the
// log addresses has a position that never restarts; the record at
// position p has LSN p+1 and lies at byte offset p mod the volume's
// capacity (pages × page size).  A lap is one pass over the volume, so a
// page holds, at different times, records of laps 0, 1, 2, … whose LSNs
// differ by multiples of the capacity; a scan accepts a record only where
// it carries the LSN its position calls for, so what an earlier lap left
// behind never surfaces.  No record straddles the volume's end: the room
// in front of it goes to a skip record (or, when less than a header, to
// padding) and the record begins the next lap at offset 0.
//
// The log keeps everything from its start (the oldest record the client
// still needs) to its tail.  Truncate advances the start and writes
// nothing; an append that would reach the page holding the start gets
// ErrLogFull, so that page is never written while the start is on it.
// One ledger keeps room for the end record of every transaction that has
// logged, and for two checkpoint images of the size Reserve says: the next
// one, and a recovery's behind it.  A transaction's first record also
// reserves its end record's room, which the end record spends; a checkpoint
// record spends image room only as far as the truncation it names gives it
// back (fits).  So every live transaction can end, a full log can always be
// checkpointed, and a crash before the client names the image recovers.
//
// The unit of layout is the force: the records buffered since the last one,
// back to back, written once as whole pages that begin behind that one's
// last page; the rest of the last page is padding, which positions and so
// LSNs skip.  The log is thus written strictly forward and NO PAGE THAT
// HOLDS A DURABLE RECORD IS WRITTEN AGAIN WHILE THE RECORD IS NEEDED: a torn
// write damages the force in flight, nothing acknowledged before it.  The
// price is log space: the pages in use are the sum of ceil(force bytes /
// page size) since the start.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"github.com/eosdb/eos/internal/disk"
)

// RecType identifies a log record.
type RecType uint8

// Log record types: transaction control, one per operation, the client's
// checkpoint image, and the log's own skip record.  A transaction has no
// begin record: its first operation's record begins it, and one that logs
// no operation logs nothing at all.
const (
	// RecCommit and RecAbort end a transaction.  Recovery reads nothing
	// from RecAbort: a transaction without a RecCommit never happened.
	RecCommit RecType = iota + 1
	RecAbort
	RecCreate  // object created
	RecDestroy // object destroyed
	// RecAppend, RecInsert and RecDelete are the three structural updates,
	// which shadow (§4.5), and log the splice they made rather than their
	// bytes: Extents are the leaf entries that replaced the byte range
	// [Off, Off+N) of the object, and name by reference the segments the
	// update wrote through — forced before its commit record — or kept.
	// Data carries the last len(Data) bytes of the new range by value: the
	// ones the update left in memory (an open tail's pending pages).  Redo
	// splices the same entries and allocates nothing.
	RecAppend
	RecInsert
	RecDelete
	// RecReplace says Data was written at Off.  The write reaches the
	// device only behind its transaction's commit record, so the record
	// carries no pre-image: recovery only redoes.
	RecReplace
	// RecCheckpoint carries a checkpoint's image of the client's catalog in
	// Data, and in N the LSN the client truncates the log to once the image
	// is named.
	RecCheckpoint
	// RecSkip says the log goes on N positions behind the record's end:
	// the room in front of the volume's end, or a whole lap (NewLap).  The
	// log writes it itself, and scans do not hand it out.
	RecSkip
)

func (t RecType) String() string {
	switch t {
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecCreate:
		return "create"
	case RecDestroy:
		return "destroy"
	case RecAppend:
		return "append"
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	case RecReplace:
		return "replace"
	case RecCheckpoint:
		return "checkpoint"
	case RecSkip:
		return "skip"
	}
	return fmt.Sprintf("rectype(%d)", uint8(t))
}

// Record is one log entry.  Data and Extents carry what redo needs; nothing
// is logged for undo: an abort reinstates the roots from before its
// transaction, and no uncommitted write ever reaches the device over
// committed bytes (§4.5's replace included: it waits for its commit record).
type Record struct {
	LSN     uint64 // assigned by Append: the record's position + 1
	Txn     uint64
	Type    RecType
	Object  uint64
	Off     int64
	N       int64
	Data    []byte
	Extents []Extent // a structural record's leaf entries, encoded behind Data
}

// Extent is one leaf entry of a structural record: a segment's first page,
// the pages allocated to it when it is the object's open tail (else 0), and
// its bytes.
type Extent struct {
	Start uint64
	Pages uint32
	Bytes int64
}

// Errors returned by the log.
var (
	// ErrLogFull is returned when the log volume has no room.
	ErrLogFull = errors.New("wal: log volume full")
	// ErrCorruptRecord is returned for torn or damaged records during
	// scans; scanning stops at the first such record.
	ErrCorruptRecord = errors.New("wal: corrupt record")
)

const (
	recHeaderSize = 4 + 4 + 8 + 8 + 1 + 8 + 8 + 8 + 4 // crc,len,lsn,txn,type,obj,off,n,dlen
	extentSize    = 8 + 4 + 8                         // start,pages,bytes
	// padByte fills a force's last page behind its records.  Not zero: a
	// header read that begins in padding and runs into the next page must
	// never carry the LSN of its offset, and an LSN's high bytes are zero.
	padByte = 0xFF
)

// Stats counts log activity.  Snapshot with Log.Stats; the group-commit
// counters make the batching observable: LeaderForces is the number of
// physical flush+force batches, while ForceNoops and Piggybacks count
// the force requests that were satisfied without issuing any I/O of
// their own.
type Stats struct {
	Appends      int64 // records appended, checkpoint and skip records aside
	Forces       int64 // Force/ForceLSN requests
	ForceNoops   int64 // requests whose target was already durable on entry
	Piggybacks   int64 // requests covered by another committer's force while queued
	LeaderForces int64 // physical flush+force batches issued
	FlushedBytes int64 // bytes of those records written to the volume
	PadBytes     int64 // bytes of padding written behind them, to the page boundary each force ends on
	Wraps        int64 // flushes that reached the volume's end: the log went on at offset 0
	// The ledger: room kept for end records and images, transactions that
	// have logged and not ended, log from the oldest first record held on.
	EndReserve, ImageReserve, LiveTxns, Pinned int64
}

// Log is an append-only write-ahead log over a dedicated volume.  It is
// safe for concurrent use.
//
// Appends copy the encoded record into an in-memory tail buffer; the
// buffer reaches the log volume only when a force flushes it, so a
// transaction's worth of records costs zero log I/O until commit.
// Forces use leader/follower group commit: concurrent committers queue
// on forceMu, the first (the leader) writes the whole buffered tail in one
// request that continues where the last force's ended — no seek however
// many records the batch holds — and forces it; the followers wake to find
// their commit LSNs already durable and return without touching the device.
// A force whose target is already durable returns immediately without any
// lock but mu.
type Log struct {
	// forceMu serializes the flush+force I/O of group-commit leaders.
	// Followers queue on it and usually find their records durable once
	// they acquire it.  Acquired before mu (rank 45 in the lattice).
	forceMu sync.Mutex

	mu   sync.Mutex
	vol  disk.Device
	ps   uint64
	size uint64 // capacity in bytes: the volume's pages × page size
	// buf holds the log's bytes that are not on the volume yet, up to the
	// tail: records, and the padding of forces sealed but not written.  It
	// begins on a page boundary; a flush drops what it wrote, all of it.
	buf   []byte // eos:guardedby mu
	pad   int64  // eos:guardedby mu -- bytes of buf that are padding
	own   int64  // eos:guardedby mu -- bytes of buf that are checkpoint and skip records
	start uint64 // eos:guardedby mu -- position of the oldest byte kept: the page holding it is never written
	tail  uint64 // eos:guardedby mu -- position the next record gets unless it wraps
	// forced is the page-aligned position through which the log is durable.
	forced uint64 // eos:guardedby mu
	// image is the room one checkpoint image takes (Reserve), want that of
	// the catalog as last measured; live maps each transaction that has
	// logged and not ended to its first record's LSN.
	image     uint64            // eos:guardedby mu
	want      uint64            // eos:guardedby mu
	live      map[uint64]uint64 // eos:guardedby mu
	committed map[uint64]uint64 // eos:guardedby mu -- committed, not released yet (Release)
	// unforced counts the bytes flushes wrote since the last force, which
	// begin at the volume offset of forced.
	unforced uint64 // eos:guardedby mu
	stats    Stats  // eos:guardedby mu
}

// New creates an empty log on vol whose first record gets LSN base+1, at
// byte offset base mod the volume's capacity.  base must be page-aligned.
func New(vol disk.Device, base uint64) *Log {
	ps := uint64(vol.PageSize())
	return &Log{vol: vol, ps: ps, size: uint64(vol.NumPages()) * ps,
		start: base, tail: base, forced: base, live: make(map[uint64]uint64), committed: make(map[uint64]uint64)}
}

// Stats returns a snapshot of the log activity counters.
func (l *Log) Stats() Stats {
	oldest := l.Oldest()
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.LiveTxns, st.ImageReserve = int64(len(l.live)), 2*int64(l.image)
	st.EndReserve = st.LiveTxns * int64(l.room(recHeaderSize))
	st.Pinned = int64(l.tail + 1 - oldest)
	return st
}

// Oldest returns the first LSN a recovery must scan to redo every
// transaction that has logged and not ended, and every committed one not
// released: the oldest one's first record, or with none the next record's.
func (l *Log) Oldest() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.tail + 1
	for _, held := range [...]map[uint64]uint64{l.live, l.committed} {
		for _, first := range held {
			lsn = min(lsn, first)
		}
	}
	return lsn
}

// Release ends a committed transaction's hold on the log (Oldest): the
// client's next image holds what it did.  An abort record ends its own.
func (l *Log) Release(txn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.committed, txn)
}

// encodedSize is the size of r's encoding.
func encodedSize(r *Record) int {
	return recHeaderSize + len(r.Data) + len(r.Extents)*extentSize
}

// encode serializes r (LSN must already be set).
func encode(r *Record) []byte {
	buf := make([]byte, encodedSize(r))
	binary.BigEndian.PutUint32(buf[4:], uint32(len(buf)))
	binary.BigEndian.PutUint64(buf[8:], r.LSN)
	binary.BigEndian.PutUint64(buf[16:], r.Txn)
	buf[24] = byte(r.Type)
	binary.BigEndian.PutUint64(buf[25:], r.Object)
	binary.BigEndian.PutUint64(buf[33:], uint64(r.Off))
	binary.BigEndian.PutUint64(buf[41:], uint64(r.N))
	binary.BigEndian.PutUint32(buf[49:], uint32(len(r.Data)))
	off := recHeaderSize + copy(buf[recHeaderSize:], r.Data)
	for _, x := range r.Extents {
		binary.BigEndian.PutUint64(buf[off:], x.Start)
		binary.BigEndian.PutUint32(buf[off+8:], x.Pages)
		binary.BigEndian.PutUint64(buf[off+12:], uint64(x.Bytes))
		off += extentSize
	}
	binary.BigEndian.PutUint32(buf[0:], crc32.ChecksumIEEE(buf[4:]))
	return buf
}

// decode parses one record from buf, returning it and its encoded size.
func decode(buf []byte) (*Record, int, error) {
	if len(buf) < recHeaderSize {
		return nil, 0, ErrCorruptRecord
	}
	size := int(binary.BigEndian.Uint32(buf[4:]))
	if size < recHeaderSize || size > len(buf) {
		return nil, 0, ErrCorruptRecord
	}
	if crc32.ChecksumIEEE(buf[4:size]) != binary.BigEndian.Uint32(buf[0:]) {
		return nil, 0, ErrCorruptRecord
	}
	r := &Record{
		LSN:    binary.BigEndian.Uint64(buf[8:]),
		Txn:    binary.BigEndian.Uint64(buf[16:]),
		Type:   RecType(buf[24]),
		Object: binary.BigEndian.Uint64(buf[25:]),
		Off:    int64(binary.BigEndian.Uint64(buf[33:])),
		N:      int64(binary.BigEndian.Uint64(buf[41:])),
	}
	dlen := int(binary.BigEndian.Uint32(buf[49:]))
	if dlen < 0 || recHeaderSize+dlen > size || (size-recHeaderSize-dlen)%extentSize != 0 {
		return nil, 0, ErrCorruptRecord
	}
	off := recHeaderSize + dlen
	if dlen > 0 {
		r.Data = append([]byte{}, buf[recHeaderSize:off]...)
	}
	for ; off < size; off += extentSize {
		r.Extents = append(r.Extents, Extent{
			Start: binary.BigEndian.Uint64(buf[off:]),
			Pages: binary.BigEndian.Uint32(buf[off+8:]),
			Bytes: int64(binary.BigEndian.Uint64(buf[off+12:])),
		})
	}
	return r, size, nil
}

// Append places r at the tail of the log, assigns its LSN, and returns
// it.  The record is not durable until a force covers it, nor even
// written to the volume until then: the bytes land in the in-memory tail
// buffer, so Append does no I/O.  A record that does not fit behind the
// tail — which every flush moves to a page boundary — gets ErrLogFull and
// leaves nothing.
func (l *Log) Append(r *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.put(r)
}

// put buffers r at the tail.  A record that would straddle the volume's end
// begins the next lap instead, behind a skip record over the room in front
// of the end (padding, when that is less than a header: it then lies inside
// the last page, which a scan steps over).  Caller holds mu.
//
// eos:requires l.mu
func (l *Log) put(r *Record) (uint64, error) {
	n := uint64(encodedSize(r))
	var gap uint64
	if off := l.tail % l.size; off+n > l.size {
		gap = l.size - off
	}
	if r.Type == RecCheckpoint {
		l.image = l.want // the captured image is in hand: its own size counts
	}
	_, live := l.live[r.Txn]
	end := r.Type == RecCommit || r.Type == RecAbort
	first := r.Txn != 0 && !live && !end
	if !l.fits(l.tail+gap+n, r, live && end, first) {
		return 0, ErrLogFull
	}
	if gap >= recHeaderSize {
		l.buf = append(l.buf, encode(&Record{LSN: l.tail + 1, Type: RecSkip, N: int64(gap - recHeaderSize)})...)
		l.own += recHeaderSize
		l.padTo(gap - recHeaderSize)
	} else if gap > 0 {
		l.padTo(gap)
	}
	l.tail += gap
	r.LSN = l.tail + 1 // LSN 0 means "never logged"
	l.buf = append(l.buf, encode(r)...)
	l.tail += n
	switch {
	case r.Type == RecCheckpoint || r.Type == RecSkip:
		l.own += int64(n)
		return r.LSN, nil
	case first:
		l.live[r.Txn] = r.LSN
	case end:
		if live && r.Type == RecCommit {
			l.committed[r.Txn] = l.live[r.Txn]
		}
		delete(l.live, r.Txn)
	}
	l.stats.Appends++
	return r.LSN, nil
}

// fits reports whether r, ending at position to, leaves the ledger's room:
// an end record per live transaction (with r's own if r is a first record,
// without it if r ends one) and two images.  An end record leaves one image,
// as the other may be logged, its truncation to come; a checkpoint record
// leaves one before its truncation and two after; a new lap's skip, none.
//
// eos:requires l.mu
func (l *Log) fits(to uint64, r *Record, ends, first bool) bool {
	e, limit := l.room(recHeaderSize), l.limit(l.start)
	keep := uint64(len(l.live)) * e
	switch {
	case r.Type == RecSkip:
		return to <= limit
	case r.Type == RecCheckpoint:
		return to+l.image+keep <= limit && to+2*l.image+keep <= l.limit(l.after(uint64(r.N)))
	case ends:
		return to+l.image+keep-e <= limit
	case first:
		keep += e
	}
	return to+2*l.image+keep <= limit
}

// limit is the first position a lap on from the page that holds pos.
func (l *Log) limit(pos uint64) uint64 { return pos - pos%l.ps + l.size }

// Reserve says that the client's next checkpoint image carries at most n
// bytes.  The room kept grows at once and shrinks at the next checkpoint
// record, so that a captured image keeps its room however far the catalog
// shrinks meanwhile.  A log whose client has reserved nothing keeps no
// image room: a recovery's image may take all there is.
func (l *Log) Reserve(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.want = l.room(recHeaderSize+n) + l.room(recHeaderSize)
	l.image = max(l.image, l.want)
}

// room is the most log a record of n bytes can take, in whole pages: the
// skip record or padding in front of the volume's end, which is shorter than
// the record, the record, and the padding behind it to its force's page
// boundary.
func (l *Log) room(n int) uint64 { return (2*uint64(n) + 2*l.ps - 3) / l.ps * l.ps }

// padTo appends n bytes of padding to the buffer.  The caller advances
// the tail.
//
// eos:requires l.mu
func (l *Log) padTo(n uint64) {
	l.buf = append(l.buf, make([]byte, n)...)
	fillPad(l.buf[uint64(len(l.buf))-n:])
	l.pad += int64(n)
}

// NewLap moves the log onto the next lap, forced: the tail keeps its
// offset, and the LSNs from here on exceed by a whole capacity those the
// same bytes would have had.  A recovery calls it before it writes
// anything: whatever lies past the recovered tail — intact records of a
// force whose first page the crash lost, say — carries LSNs of the old
// lap, which no later scan accepts at those offsets.  The skip record it
// writes leads a scan from an older start across the jump.
func (l *Log) NewLap() error {
	l.mu.Lock()
	lsn, err := l.put(&Record{Type: RecSkip, N: int64(l.size)})
	if err == nil {
		l.tail += l.size
		l.start += l.size // the same page, a lap on: the room stays as it was
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.ForceLSN(lsn)
}

// fillPad makes b padding, doubling what it has filled.
func fillPad(b []byte) {
	for n := copy(b, []byte{padByte}); 0 < n && n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// flush seals the buffered tail — pads it to the page boundary under mu, so
// that records appended while the write is in flight already lie on the next
// flush's pages — writes it (no force) and returns the position through
// which the volume now holds the log.  After a failed write everything stays
// buffered and the next flush writes it to the same pages, none of which
// holds an acknowledged record.  Caller holds forceMu.
func (l *Log) flush() (uint64, error) {
	l.mu.Lock()
	if fill := (l.ps - l.tail%l.ps) % l.ps; fill != 0 {
		l.padTo(fill)
		l.tail += fill
	}
	data, pad, own, end := l.buf[:len(l.buf):len(l.buf)], l.pad, l.own, l.tail
	l.mu.Unlock()
	if len(data) == 0 {
		return end, nil
	}
	// buf ends at the tail, and a lap is a whole number of pages: its
	// first byte's offset follows, whatever laps NewLap skipped.
	if err := l.pages(end-uint64(len(data)), uint64(len(data)), func(pn disk.PageNum, from, n uint64) error {
		return l.vol.WritePages(pn, int(n/l.ps), data[from:from+n])
	}); err != nil {
		return 0, err
	}
	l.mu.Lock()
	if end%l.size <= (end-uint64(len(data)))%l.size {
		l.stats.Wraps++ // the write reached the volume's end
	}
	// A drained buffer lets its array go: a checkpoint's image grows it to
	// the catalog's size, which nothing needs again before the next one.
	if l.buf = l.buf[len(data):]; len(l.buf) == 0 {
		l.buf = nil
	}
	l.pad -= pad
	l.own -= own
	l.unforced += uint64(len(data))
	l.stats.FlushedBytes += int64(len(data)) - pad - own
	l.stats.PadBytes += pad
	l.mu.Unlock()
	return end, nil
}

// pages calls fn for the page runs that hold n bytes from position pos —
// one run, or two when they go past the volume's end — with each run's
// first page, its distance from pos and its length.  pos and n are
// page-aligned.
func (l *Log) pages(pos, n uint64, fn func(pn disk.PageNum, from, n uint64) error) error {
	off := pos % l.size
	first := min(n, l.size-off)
	if n == 0 {
		return nil
	}
	if err := fn(disk.PageNum(off/l.ps), 0, first); err != nil || first == n {
		return err
	}
	return fn(0, first, n-first)
}

// Force makes every appended record durable.  When nothing has been
// appended since the last force it returns without touching the volume.
func (l *Log) Force() error { return l.ForceLSN(l.Tail()) }

// ForceLSN makes the record with the given LSN — and every record
// before it — durable.  This is the group-commit entry point: the
// caller blocks until some leader's force covers lsn, whether it led
// that force itself or piggybacked on a concurrent committer's.  A
// caller is never released successfully unless a force covering its
// LSN actually succeeded; when the leader's I/O fails, each queued
// follower retries as leader and surfaces its own error.  Forces only ever
// advance `forced` to the sealed end of whole records, so forced >= lsn
// (a record's start + 1) implies the whole record is durable.
func (l *Log) ForceLSN(lsn uint64) error {
	l.mu.Lock()
	l.stats.Forces++
	if l.forced >= lsn {
		l.stats.ForceNoops++
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()

	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	l.mu.Lock()
	if l.forced >= lsn {
		// A leader force covered us while we queued: piggyback.
		l.stats.Piggybacks++
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	// Lead: flush, then force every page written since the last force.
	end, err := l.flush()
	if err != nil {
		return err
	}
	l.mu.Lock()
	forced, n := l.forced, l.unforced
	l.mu.Unlock()
	if err := l.pages(forced, n, func(pn disk.PageNum, _, n uint64) error {
		return l.vol.Force(pn, int(n/l.ps))
	}); err != nil {
		return err
	}
	l.mu.Lock()
	l.forced, l.unforced = end, 0
	l.stats.LeaderForces++
	l.mu.Unlock()
	return nil
}

// Tail returns the log's end: every record appended so far has an LSN at
// or below it, every later one an LSN above it.
func (l *Log) Tail() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

// Used returns the bytes of log in use: from the start to the tail,
// padding included.
func (l *Log) Used() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(l.tail - l.start)
}

// Busy reports whether half the log's capacity is in use.
func (l *Log) Busy() bool { return 2*uint64(l.Used()) >= l.size }

// Truncate drops everything in front of the record with LSN lsn: its room
// may be written again.  It writes nothing — the records stay where they
// are until the log comes round to them, and no scan accepts them then.
// The caller makes sure no recovery still starts in front of lsn.
func (l *Log) Truncate(lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.start = l.after(lsn)
}

// after is the start Truncate(lsn) leaves.
//
// eos:requires l.mu
func (l *Log) after(lsn uint64) uint64 {
	if pos := lsn - 1; pos > l.start && pos <= l.tail {
		return pos
	}
	return l.start
}

// Scan reads every intact record from the one with LSN from, invoking fn
// in order.  A header that does not carry the LSN its position calls for —
// padding, zeroes, the crash-truncated tail, or a leftover from an earlier
// lap — means the force ended: the scan goes on at the next page boundary,
// where the next one began, and ends when no record begins there either
// (so a log written without padding scans whole).  A record with the right
// LSN that fails its length or checksum test always ends the scan: the page
// boundaries behind it lie in its payload, bytes a client chose, never to be
// read as a header.  The LSN is tested before the length field is believed:
// a stale or garbage length must not size a buffer.  Buffered records are
// part of the log's logical contents, so Scan flushes them first (without
// forcing).
func (l *Log) Scan(from uint64, fn func(*Record) error) error {
	l.forceMu.Lock()
	_, err := l.flush()
	l.forceMu.Unlock()
	if err != nil {
		return err
	}
	_, _, _, err = l.scan(from, fn)
	return err
}

// scan is Scan without the flush.  It also reports where the records end:
// at a torn record's position, or else behind the last intact record, and
// how many positions the NewLap skip records it crossed jumped.  It reads
// at most one lap of the volume.
func (l *Log) scan(from uint64, fn func(*Record) error) (end, jumped uint64, torn bool, err error) {
	pos := from - 1
	end = pos
	head := make([]byte, recHeaderSize)
	for read := uint64(0); read < l.size; {
		off := pos % l.size
		if off+recHeaderSize <= l.size {
			if err := l.readAt(off, head); err != nil {
				return end, jumped, false, err
			}
		}
		if off+recHeaderSize > l.size || binary.BigEndian.Uint64(head[8:]) != pos+1 {
			if off%l.ps == 0 {
				return end, jumped, false, nil // no force begins here: the log ends
			}
			step := l.ps - off%l.ps
			pos, read = pos+step, read+step
			continue
		}
		size := uint64(binary.BigEndian.Uint32(head[4:]))
		if size < recHeaderSize || off+size > l.size {
			return pos, jumped, true, nil
		}
		buf := make([]byte, size)
		if err := l.readAt(off, buf); err != nil {
			return end, jumped, false, err
		}
		r, _, err := decode(buf)
		if err != nil {
			return pos, jumped, true, nil
		}
		pos, read = pos+size, read+size
		if r.Type == RecSkip {
			pos += uint64(r.N)
			read += uint64(r.N) % l.size
			jumped += uint64(r.N) - uint64(r.N)%l.size
		} else if err := fn(r); err != nil {
			return end, jumped, false, err
		}
		end = pos
	}
	return end, jumped, false, nil
}

// readAt reads raw bytes at a byte offset of the volume.
func (l *Log) readAt(off uint64, buf []byte) error {
	first := off / l.ps
	last := (off + uint64(len(buf)) - 1) / l.ps
	npages := int(last - first + 1)
	raw := make([]byte, npages*int(l.ps))
	if err := l.vol.ReadPages(disk.PageNum(first), npages, raw); err != nil {
		return err
	}
	copy(buf, raw[off-first*l.ps:])
	return nil
}

// Recover reattaches a log after a crash: it scans from the record with
// LSN from — the start the client recorded — to find the records that
// survived, and positions appends on the page boundary behind the last of
// them.  It returns the records found.
//
// A later scan steps over whatever lies in front of that boundary as
// padding — except the intact header of a torn record, which would end it
// before anything appended from now on.  That one is padded over here: the
// one second write of a log page, and of a page only the torn force wrote.
func Recover(vol disk.Device, from uint64) (*Log, []*Record, error) {
	l := New(vol, 0)
	var recs []*Record
	end, jumped, torn, err := l.scan(from, func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	tail := (end + l.ps - 1) / l.ps * l.ps
	if torn && end < tail {
		pn := disk.PageNum(end % l.size / l.ps)
		page, err := vol.Read(pn, 1)
		if err != nil {
			return nil, nil, err
		}
		fillPad(page[end%l.ps:])
		if err := vol.WritePages(pn, 1, page); err != nil {
			return nil, nil, err
		}
		if err := vol.Force(pn, 1); err != nil {
			return nil, nil, err
		}
	}
	// Not shared yet; mu is taken for the discipline of every field update.
	// The start moves with the laps jumped, as NewLap moved it: the same
	// page, and the room in front of the tail as it was.
	l.mu.Lock()
	l.start, l.tail, l.forced = from-1+jumped, tail, tail
	l.mu.Unlock()
	return l, recs, nil
}
