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
// records.  LSNs are monotonic across the store's whole life: each log
// epoch (the records between two truncations) has a base, and a record's
// LSN is base + its byte offset + 1.  Truncation advances the base past
// every LSN the old epoch issued, so the LSN guard in object roots stays
// valid without ever rewinding — and a truncation writes nothing: the old
// epoch's records stay on the volume until new ones overwrite them, and a
// recovery scan ignores them because their LSNs do not match the base the
// store header says is current.
//
// The unit of layout is the force: the records buffered since the last one,
// back to back, written once as whole pages that begin behind that one's
// last page; the rest of the last page is padding, which byte offsets and so
// LSNs skip.  The log is thus written strictly forward and — the rule the
// catalog journal (catalog.go) shares — NO PAGE THAT HOLDS A DURABLE RECORD
// IS EVER WRITTEN AGAIN: a torn write damages the force in flight, nothing
// acknowledged before it.  The price is log space: the pages in use between
// two truncations are the sum of ceil(force bytes / page size).
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
	Appends      int64 // records appended
	Forces       int64 // Force/ForceLSN requests
	ForceNoops   int64 // requests whose target was already durable on entry
	Piggybacks   int64 // requests covered by another committer's force while queued
	LeaderForces int64 // physical flush+force batches issued
	FlushedBytes int64 // bytes of log records written to the volume
	PadBytes     int64 // bytes of padding written behind them, to the page boundary each force ends on
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

	mu      sync.Mutex
	vol     disk.Device
	ps      int
	base    uint64 // eos:guardedby mu -- LSN of the epoch start; record at offset o has LSN base+o+1
	grouped bool   // eos:guardedby mu -- buffered appends + group commit (default); false = serial baseline
	// buf holds the log's bytes that are not on the volume yet, up to the
	// tail: records, and the padding of forces sealed but not written.  It
	// begins on a page boundary; a flush drops what it wrote, all of it.
	buf    []byte // eos:guardedby mu
	pad    int64  // eos:guardedby mu -- bytes of buf that are padding
	tail   int64  // eos:guardedby mu -- next append offset (bytes)
	forced int64  // eos:guardedby mu -- page-aligned offset through which the log is durable
	stats  Stats  // eos:guardedby mu
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
// and group commit.  Disabled, every Append is a flush of its own — one
// page-aligned write per record — and every force leads, which the
// write-path benchmarks use as their baseline.
func (l *Log) SetGroupCommit(on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.grouped = on
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
// A record that does not fit behind the tail — which every flush moves to
// a page boundary — gets ErrLogFull and leaves nothing.  A write error of
// the serial baseline leaves the record buffered for the next flush, LSN and
// all, as a failed force leaves a commit record.
func (l *Log) Append(r *Record) (uint64, error) {
	l.mu.Lock()
	r.LSN = l.base + uint64(l.tail) + 1 // LSN 0 means "never logged"
	rec := encode(r)
	if l.tail+int64(len(rec)) > int64(l.vol.NumPages())*int64(l.ps) {
		l.mu.Unlock()
		return 0, ErrLogFull
	}
	l.buf = append(l.buf, rec...)
	l.tail += int64(len(rec))
	l.stats.Appends++
	serial := !l.grouped
	l.mu.Unlock()
	if serial {
		l.forceMu.Lock()
		defer l.forceMu.Unlock()
		if _, err := l.flush(); err != nil {
			return 0, err
		}
	}
	return r.LSN, nil
}

// fillPad makes b padding, doubling what it has filled.
func fillPad(b []byte) {
	for n := copy(b, []byte{padByte}); 0 < n && n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// flush seals the buffered tail — pads it to the page boundary under mu, so
// that records appended while the write is in flight already lie on the next
// flush's pages — writes it (no force) and returns the offset through which
// the volume now holds the log.  After a failed write everything stays
// buffered and the next flush writes it to the same pages, none of which
// holds an acknowledged record.  Caller holds forceMu.
func (l *Log) flush() (int64, error) {
	l.mu.Lock()
	if fill := (l.ps - int(l.tail%int64(l.ps))) % l.ps; fill != 0 {
		l.buf = append(l.buf, make([]byte, fill)...)
		fillPad(l.buf[len(l.buf)-fill:])
		l.pad += int64(fill)
		l.tail += int64(fill)
	}
	data, pad, end := l.buf[:len(l.buf):len(l.buf)], l.pad, l.tail
	l.mu.Unlock()
	if len(data) == 0 {
		return end, nil
	}
	first := disk.PageNum((end - int64(len(data))) / int64(l.ps))
	if err := l.vol.WritePages(first, len(data)/l.ps, data); err != nil {
		return 0, err
	}
	l.mu.Lock()
	l.buf = l.buf[len(data):]
	l.pad -= pad
	l.stats.FlushedBytes += int64(len(data)) - pad
	l.stats.PadBytes += pad
	l.mu.Unlock()
	return end, nil
}

// Force makes every appended record durable.  When nothing has been
// appended since the last force it returns without touching the volume.
func (l *Log) Force() error { return l.forceTo(l.Tail()) }

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

// forceTo makes the log durable through byte offset target.  Forces only
// ever advance `forced` to the sealed end of whole records, so forced >=
// target (a record's start + 1) implies the whole record is durable.
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
	forced := l.forced
	l.mu.Unlock()
	// Lead: flush, then force every page written since the last force.
	end, err := l.flush()
	if err != nil {
		return err
	}
	if end > forced {
		ps := int64(l.ps)
		if err := l.vol.Force(disk.PageNum(forced/ps), int((end-forced)/ps)); err != nil {
			return err
		}
	}
	l.mu.Lock()
	l.forced = end
	l.stats.LeaderForces++
	l.mu.Unlock()
	return nil
}

// Tail returns the log length in bytes, padding included.
func (l *Log) Tail() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

// Scan reads every intact record from byte offset start, invoking fn in
// order.  A header that does not carry the LSN the current epoch gives its
// offset — padding, zeroes, the crash-truncated tail, or a leftover from
// before a truncation (Reset erases nothing; everything such a record
// describes was durable before the truncation began) — means the force
// ended: the scan goes on at the next page boundary, where the next one
// began, and ends when no record begins there either (so a log written
// without padding scans whole).  A record with the right LSN that fails its
// length or checksum test always ends the scan: the page boundaries behind
// it lie in its payload, bytes a client chose, never to be read as a header.
// The LSN is tested before the length field is believed: a stale or garbage
// length must not size a buffer.  Buffered records are part of the log's
// logical contents, so Scan flushes them first (without forcing).
func (l *Log) Scan(start int64, fn func(*Record) error) error {
	l.forceMu.Lock()
	_, err := l.flush()
	l.forceMu.Unlock()
	if err != nil {
		return err
	}
	_, _, err = l.scan(start, fn)
	return err
}

// scan is Scan without the flush.  It also reports where the records end:
// at a torn record's offset, or else behind the last intact record.
func (l *Log) scan(start int64, fn func(*Record) error) (end int64, torn bool, err error) {
	base := l.Base()
	ps := int64(l.ps)
	total := int64(l.vol.NumPages()) * ps
	end = start
	for off := start; off+int64(recHeaderSize) <= total; {
		// Read the header area (up to two pages) to learn LSN and size.
		head := make([]byte, recHeaderSize)
		if err := l.readAt(off, head); err != nil {
			return end, false, err
		}
		if binary.BigEndian.Uint64(head[8:]) != base+uint64(off)+1 {
			if off%ps == 0 {
				return end, false, nil // no force begins here: the log ends
			}
			off += ps - off%ps
			continue
		}
		size := int(binary.BigEndian.Uint32(head[4:]))
		if size < recHeaderSize || off+int64(size) > total {
			return off, true, nil
		}
		buf := make([]byte, size)
		if err := l.readAt(off, buf); err != nil {
			return end, false, err
		}
		r, n, err := decode(buf)
		if err != nil {
			return off, true, nil
		}
		if err := fn(r); err != nil {
			return end, false, err
		}
		off += int64(n)
		end = off
	}
	return end, false, nil
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
// the records that survived and positions appends on the page boundary
// behind the last of them.  base is the epoch base the store header
// recorded; records whose LSNs belong to an earlier epoch are ignored.  It
// returns the records found.
//
// A later scan steps over whatever lies in front of that boundary as
// padding — except the intact header of a torn record, which would end it
// before anything appended from now on.  That one is padded over here: the
// one second write of a log page, and of a page only the torn force wrote.
func Recover(vol disk.Device, base uint64) (*Log, []*Record, error) {
	l := New(vol, base)
	var recs []*Record
	end, torn, err := l.scan(0, func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	ps := int64(l.ps)
	tail := (end + ps - 1) / ps * ps
	if torn && end < tail {
		pn := disk.PageNum(end / ps)
		page, err := vol.Read(pn, 1)
		if err != nil {
			return nil, nil, err
		}
		fillPad(page[end%ps:])
		if err := vol.WritePages(pn, 1, page); err != nil {
			return nil, nil, err
		}
		if err := vol.Force(pn, 1); err != nil {
			return nil, nil, err
		}
	}
	// Not shared yet; mu is taken for the discipline of every tail update.
	l.mu.Lock()
	l.tail, l.forced = tail, tail
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
	l.buf, l.pad, l.tail, l.forced = l.buf[:0], 0, 0, 0
	return nil
}
