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
// conventional) and is an append-only sequence of length-prefixed,
// checksummed records.  LSNs are monotonic across the store's whole
// life: each log epoch (the records between two truncations) has a
// base, and a record's LSN is base + its byte offset + 1.  Truncation
// advances the base past every LSN the old epoch issued, so the LSN
// guard in object roots stays valid without ever rewinding — and a
// truncation writes nothing: the old epoch's records stay on the volume
// until new ones overwrite them, and a recovery scan ignores them because
// their LSNs do not match the base the store header says is current.
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

// Log record types: transaction control plus one per logical operation.
const (
	RecBegin RecType = iota + 1
	RecCommit
	RecAbort
	RecCreate   // object created
	RecDestroy  // object destroyed
	RecAppend   // Data appended at the end
	RecInsert   // Data inserted at Off
	RecDelete   // N bytes deleted at Off; structural, so shadowed: no bytes logged
	RecReplace  // Data written at Off; OldData holds the previous bytes
	RecTruncate // object truncated to Off (reserved: Txn.Truncate logs a RecDelete)
	RecCheckpoint
)

func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "begin"
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
	case RecTruncate:
		return "truncate"
	case RecCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("rectype(%d)", uint8(t))
}

// Extent is a physical byte range on the data volume: Len bytes starting
// Off bytes into page Page.  Replace records carry the extents they
// overwrote so that recovery can physically undo a loser transaction's
// in-place writes — the other operations never overwrite live pages and
// need no undo (§4.5).
type Extent struct {
	Page int64
	Off  int32
	Len  int32
}

// Record is one log entry.  Data and OldData carry the operation's bytes:
// Data is what redo needs, OldData what the undo pass needs — which is the
// pre-image of a replace, the one update written in place (§4.5); an abort
// undoes everything else from the transaction's journal in memory.
type Record struct {
	LSN     uint64 // assigned by Append; byte offset in the log
	Txn     uint64
	Type    RecType
	Object  uint64
	Off     int64
	N       int64
	Data    []byte
	OldData []byte
	Extents []Extent // physical locations of OldData (replace only)
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
	recHeaderSize  = 4 + 4 + 8 + 8 + 1 + 8 + 8 + 8 + 4 + 4 + 2 // crc,len,lsn,txn,type,obj,off,n,dlen,olen,extents
	extentEncBytes = 8 + 4 + 4
)

// Stats counts log activity.  Snapshot with Log.Stats; the group-commit
// counters make the batching observable: LeaderForces is the number of
// physical flush+force batches, while ForceNoops and Piggybacks count
// the force requests that were satisfied without issuing any I/O of
// their own.
type Stats struct {
	Appends      int64 // records appended
	Forces       int64 // Force/ForceLSN requests
	ForceNoops   int64 // requests whose target was already durable on entry
	Piggybacks   int64 // requests covered by another committer's force while queued
	LeaderForces int64 // physical flush+force batches issued
	FlushedBytes int64 // bytes of log records written to the volume
}

// Log is an append-only write-ahead log over a dedicated volume.  It is
// safe for concurrent use.
//
// Appends copy the encoded record into an in-memory tail buffer; the
// buffer reaches the log volume only when a force flushes it, so a
// transaction's worth of records costs zero log I/O until commit.
// Forces use leader/follower group commit: concurrent committers queue
// on forceMu, the first (the leader) writes the whole buffered tail in
// one positional write — one seek however many records the batch holds
// — and forces it; the followers wake to find their commit LSNs already
// durable and return without touching the device.  A force whose target
// is already durable returns immediately without any lock but mu.
type Log struct {
	// forceMu serializes the flush+force I/O of group-commit leaders.
	// Followers queue on it and usually find their records durable once
	// they acquire it.  Acquired before mu (rank 45 in the lattice).
	forceMu sync.Mutex

	mu      sync.Mutex
	vol     disk.Device
	ps      int
	base    uint64 // eos:guardedby mu -- LSN of the epoch start; record at offset o has LSN base+o+1
	grouped bool   // eos:guardedby mu -- buffered appends + group commit (default); false = serial baseline
	// buf holds the log's bytes from offset bufStart to the tail.
	// bufStart is always page-aligned: a flush drops only the whole pages
	// it wrote and keeps the partial last page, so the next flush rewrites
	// that page in full from memory — the log never reads its own tail
	// back from the device.  The first flushed-bufStart bytes of buf are
	// already on the volume; the rest are appended but not yet written.
	buf      []byte // eos:guardedby mu
	bufStart int64  // eos:guardedby mu -- log byte offset of buf[0]
	flushed  int64  // eos:guardedby mu -- offset through which records are on the volume
	tail     int64  // eos:guardedby mu -- next append offset (bytes) == bufStart+len(buf)
	forced   int64  // eos:guardedby mu -- offset through which records are durable
	stats    Stats  // eos:guardedby mu
}

// New creates an empty log on vol.  base is the LSN epoch base the
// store header records (0 for a fresh store); the first record gets
// LSN base+1.
func New(vol disk.Device, base uint64) *Log {
	return &Log{vol: vol, ps: vol.PageSize(), base: base, grouped: true}
}

// Base returns the current epoch base: every record in the log has
// LSN > Base(), and every record of earlier epochs had LSN <= Base().
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// SetGroupCommit enables (the default) or disables the buffered tail
// and group commit.  Disabled, the log reproduces the original serial
// write path — every Append issues its own positional write and every
// force leads — which the write-path benchmarks use as their baseline.
// Disabling flushes any buffered records first.
func (l *Log) SetGroupCommit(on bool) error {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	if _, err := l.flushHoldingForceMu(); err != nil {
		return err
	}
	l.mu.Lock()
	l.grouped = on
	l.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the log activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// encode serializes r (LSN must already be set).
func encode(r *Record) []byte {
	buf := make([]byte, recHeaderSize+len(r.Data)+len(r.OldData)+len(r.Extents)*extentEncBytes)
	binary.BigEndian.PutUint32(buf[4:], uint32(len(buf)))
	binary.BigEndian.PutUint64(buf[8:], r.LSN)
	binary.BigEndian.PutUint64(buf[16:], r.Txn)
	buf[24] = byte(r.Type)
	binary.BigEndian.PutUint64(buf[25:], r.Object)
	binary.BigEndian.PutUint64(buf[33:], uint64(r.Off))
	binary.BigEndian.PutUint64(buf[41:], uint64(r.N))
	binary.BigEndian.PutUint32(buf[49:], uint32(len(r.Data)))
	binary.BigEndian.PutUint32(buf[53:], uint32(len(r.OldData)))
	binary.BigEndian.PutUint16(buf[57:], uint16(len(r.Extents)))
	off := recHeaderSize
	off += copy(buf[off:], r.Data)
	off += copy(buf[off:], r.OldData)
	for _, e := range r.Extents {
		binary.BigEndian.PutUint64(buf[off:], uint64(e.Page))
		binary.BigEndian.PutUint32(buf[off+8:], uint32(e.Off))
		binary.BigEndian.PutUint32(buf[off+12:], uint32(e.Len))
		off += extentEncBytes
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
	olen := int(binary.BigEndian.Uint32(buf[53:]))
	next := int(binary.BigEndian.Uint16(buf[57:]))
	if dlen < 0 || olen < 0 || recHeaderSize+dlen+olen+next*extentEncBytes != size {
		return nil, 0, ErrCorruptRecord
	}
	off := recHeaderSize
	if dlen > 0 {
		r.Data = append([]byte{}, buf[off:off+dlen]...)
	}
	off += dlen
	if olen > 0 {
		r.OldData = append([]byte{}, buf[off:off+olen]...)
	}
	off += olen
	for i := 0; i < next; i++ {
		r.Extents = append(r.Extents, Extent{
			Page: int64(binary.BigEndian.Uint64(buf[off:])),
			Off:  int32(binary.BigEndian.Uint32(buf[off+8:])),
			Len:  int32(binary.BigEndian.Uint32(buf[off+12:])),
		})
		off += extentEncBytes
	}
	return r, size, nil
}

// Append places r at the tail of the log, assigns its LSN, and returns
// it.  The record is not durable until a force covers it; in grouped
// mode (the default) it is not even written to the volume until then —
// the bytes land in the in-memory tail buffer, so Append does no I/O.
func (l *Log) Append(r *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.LSN = l.base + uint64(l.tail) + 1 // LSN 0 means "never logged"
	rec := encode(r)
	end := l.tail + int64(len(rec))
	if end > int64(l.vol.NumPages())*int64(l.ps) {
		return 0, ErrLogFull
	}
	l.buf = append(l.buf, rec...)
	if !l.grouped {
		if err := l.writeFrom(l.bufStart, l.buf); err != nil {
			l.buf = l.buf[:len(l.buf)-len(rec)]
			return 0, err
		}
		l.flushedTo(end)
	}
	l.tail = end
	l.stats.Appends++
	return r.LSN, nil
}

// writeFrom writes data — the log's bytes from the page-aligned offset
// start on — to the volume, zero-padded to whole pages.
func (l *Log) writeFrom(start int64, data []byte) error {
	npages := (len(data) + l.ps - 1) / l.ps
	raw := make([]byte, npages*l.ps)
	copy(raw, data)
	return l.vol.WritePages(disk.PageNum(start/int64(l.ps)), npages, raw)
}

// flushedTo records that the volume holds the log through end and drops
// from buf the whole pages below it.
//
// eos:requires l.mu
func (l *Log) flushedTo(end int64) {
	l.stats.FlushedBytes += end - l.flushed
	l.flushed = end
	drop := (end - l.bufStart) / int64(l.ps) * int64(l.ps)
	l.buf = l.buf[drop:]
	l.bufStart += drop
}

// Force makes every appended record durable.  When nothing has been
// appended since the last force it returns immediately without touching
// the volume (the historical implementation forced the file anyway).
func (l *Log) Force() error {
	l.mu.Lock()
	target := l.tail
	l.mu.Unlock()
	return l.forceTo(target)
}

// ForceLSN makes the record with the given LSN — and every record
// before it — durable.  This is the group-commit entry point: the
// caller blocks until some leader's force covers lsn, whether it led
// that force itself or piggybacked on a concurrent committer's.  A
// caller is never released successfully unless a force covering its
// LSN actually succeeded; when the leader's I/O fails, each queued
// follower retries as leader and surfaces its own error.
func (l *Log) ForceLSN(lsn uint64) error {
	return l.forceTo(int64(lsn - l.Base()))
}

// forceTo makes the log durable through byte offset target.  Because
// forces always advance `forced` to a record boundary past the target
// record's start, forced >= target implies the whole record is durable.
func (l *Log) forceTo(target int64) error {
	l.mu.Lock()
	l.stats.Forces++
	if l.grouped && l.forced >= target {
		l.stats.ForceNoops++
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()

	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	l.mu.Lock()
	if l.grouped && l.forced >= target {
		// A leader force covered us while we queued: piggyback.
		l.stats.Piggybacks++
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	return l.leadForce()
}

// leadForce flushes the buffered tail in one positional write and
// forces every log page not yet durable.  Caller holds forceMu.
func (l *Log) leadForce() error {
	l.mu.Lock()
	forcedBefore := l.forced
	l.mu.Unlock()
	end, err := l.flushHoldingForceMu()
	if err != nil {
		return err
	}
	if end > 0 {
		// Only the pages written since the last force can be non-durable;
		// the page holding the forced boundary may have been extended.
		firstPage := forcedBefore / int64(l.ps)
		lastPage := (end + int64(l.ps) - 1) / int64(l.ps)
		if lastPage > firstPage {
			if err := l.vol.Force(disk.PageNum(firstPage), int(lastPage-firstPage)); err != nil {
				return err
			}
		}
	}
	l.mu.Lock()
	if end > l.forced {
		l.forced = end
	}
	l.stats.LeaderForces++
	l.mu.Unlock()
	return nil
}

// flushHoldingForceMu writes the buffered records to the volume (no
// force) and returns the flushed end offset.  Records appended while
// the write is in flight stay buffered for the next flush.  Caller
// holds forceMu.
func (l *Log) flushHoldingForceMu() (int64, error) {
	l.mu.Lock()
	start, done := l.bufStart, l.flushed
	data := l.buf[:len(l.buf):len(l.buf)]
	end := start + int64(len(data))
	l.mu.Unlock()
	if end == done {
		return done, nil
	}
	if err := l.writeFrom(start, data); err != nil {
		return 0, err
	}
	l.mu.Lock()
	l.flushedTo(end)
	l.mu.Unlock()
	return end, nil
}

// Tail returns the log length in bytes.
func (l *Log) Tail() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

// Scan reads every intact record from byte offset start, invoking fn in
// order.  Scanning stops cleanly at the first header that does not carry
// the LSN the current epoch gives its offset — zeroes, the crash-truncated
// tail, or a leftover from before a truncation (Reset erases nothing;
// everything such a record describes was durable before the truncation
// began, so skipping it is exactly right) — and at the first torn record.
// The LSN is tested before the length field is believed: a stale or
// garbage length must not size a buffer.  Buffered records are part of
// the log's logical contents, so Scan writes them out first (without
// forcing).
func (l *Log) Scan(start int64, fn func(*Record) error) error {
	l.forceMu.Lock()
	_, err := l.flushHoldingForceMu()
	l.forceMu.Unlock()
	if err != nil {
		return err
	}
	base := l.Base()
	total := int64(l.vol.NumPages()) * int64(l.ps)
	off := start
	for off+int64(recHeaderSize) <= total {
		// Read the header area (up to two pages) to learn LSN and size.
		head := make([]byte, recHeaderSize)
		if err := l.readAt(off, head); err != nil {
			return err
		}
		if binary.BigEndian.Uint64(head[8:]) != base+uint64(off)+1 {
			return nil // not a record of this epoch at this offset
		}
		size := int(binary.BigEndian.Uint32(head[4:]))
		if size < recHeaderSize || off+int64(size) > total {
			return nil // truncated tail
		}
		buf := make([]byte, size)
		if err := l.readAt(off, buf); err != nil {
			return err
		}
		r, n, err := decode(buf)
		if err != nil {
			return nil // torn record: stop
		}
		if err := fn(r); err != nil {
			return err
		}
		off += int64(n)
	}
	return nil
}

// readAt reads raw bytes at a byte offset.
func (l *Log) readAt(off int64, buf []byte) error {
	ps := int64(l.ps)
	first := off / ps
	last := (off + int64(len(buf)) - 1) / ps
	npages := int(last - first + 1)
	raw := make([]byte, npages*l.ps)
	if err := l.vol.ReadPages(disk.PageNum(first), npages, raw); err != nil {
		return err
	}
	copy(buf, raw[off-first*ps:])
	return nil
}

// Recover reattaches a log after a crash: it scans from byte 0 to find
// the durable tail and positions appends there.  base is the epoch base
// the store header recorded; records whose LSNs belong to an earlier
// epoch are ignored.  It returns the records found.
func Recover(vol disk.Device, base uint64) (*Log, []*Record, error) {
	l := New(vol, base)
	var recs []*Record
	if err := l.Scan(0, func(r *Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var tail int64
	if n := len(recs); n > 0 {
		last := recs[n-1]
		// Tail = last record's end offset.
		tail = int64(last.LSN-base-1) +
			int64(recHeaderSize+len(last.Data)+len(last.OldData)+len(last.Extents)*extentEncBytes)
	}
	// The one time the log reads its tail page: from here on buf carries
	// the partial page the next flush completes.
	bufStart := tail / int64(l.ps) * int64(l.ps)
	var partial []byte
	if tail > bufStart {
		page, err := vol.Read(disk.PageNum(bufStart/int64(l.ps)), 1)
		if err != nil {
			return nil, nil, err
		}
		partial = page[:tail-bufStart]
	}
	// The log is not yet shared, but take mu anyway so the positioning
	// stores obey the same discipline as every other tail update.
	l.mu.Lock()
	l.tail, l.forced, l.flushed = tail, tail, tail
	l.buf, l.bufStart = partial, bufStart
	l.mu.Unlock()
	return l, recs, nil
}

// Reset truncates the log (after a checkpoint has made everything it
// describes — including the new epoch base in the store header — fully
// durable) and starts a new LSN epoch at newBase, which must be at
// least Base()+Tail() so the new epoch's LSNs outrank every record the
// old epoch issued.  It touches no page: the old records stay where they
// are until the new epoch overwrites them, and no scan under the new base
// accepts one, because a record at offset o must carry LSN newBase+o+1
// and every record of an epoch with a smaller base carries less.
func (l *Log) Reset(newBase uint64) error {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if newBase < l.base+uint64(l.tail) {
		return fmt.Errorf("wal: reset base %d would rewind LSNs (epoch end %d)",
			newBase, l.base+uint64(l.tail))
	}
	l.base = newBase
	l.tail = 0
	l.forced = 0
	l.buf = l.buf[:0]
	l.bufStart = 0
	l.flushed = 0
	return nil
}
