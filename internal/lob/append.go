package lob

import (
	"fmt"

	"github.com/eosdb/eos/internal/disk"
)

// Append semantics follow §4.1, in three forms that differ only in what
// they allocate and what they give back:
//
//   - A stream (an open Appender) does not know its length: successive
//     segments double in size until the maximum segment size is reached
//     (the Starburst growth scheme the paper adopts), or are sized by the
//     hint when the eventual size was given, and Close trims the last
//     segment — its unused pages at the right end go back to the free
//     space, which is trivial because the buddy system frees with one-page
//     precision.
//   - A hinted append (AppendWithHint with a positive hint) says how much
//     is coming: segments just large enough, trimmed at once.  With a
//     write-behind set its pages wait there, a closed tail's, until a
//     checkpoint, and its first new segment goes right after the object's
//     last one when the allocator can place it there: one object's hinted
//     appends between two checkpoints are one run of pages, which the
//     checkpoint writes in one request.  One too large for the set's limit
//     is placed the same way and written at once.
//   - A plain Append holds all its bytes, so it allocates what it writes —
//     but never less than T pages, and it trims the tail segment only down
//     to T pages while it holds fewer: the calls on one object are a stream
//     too, and the next one fills the room this one left.  What it puts in
//     that tail stays in memory, pending in the write-behind set, while the
//     tail is open and after the append that fills it has closed it, until a
//     checkpoint (pending.go): the bytes are durable in the log, and the
//     pages reach the device once, in the checkpoint's address-order pass.
//
// What may be written in place is room no root has ever named.  The pages
// of an untrimmed tail beyond its bytes are that by construction; so is the
// slack of its partial last page, because every operation that could leave
// named bytes there (a delete, truncate, insert or compaction that touches
// the tail segment) trims first, and a trimmed tail is never filled.  A
// pending page may hold bytes a committed root names that the device does
// not: every read takes it from the set, and it is written before it can be
// freed and before a checkpoint's image can name it.

// Appender streams bytes onto the end of an object.  Close trims the
// tail segment.  It implements io.Writer.
type Appender struct {
	o      *Object
	hint   int64
	closed bool
}

// OpenAppender starts an append sequence.  sizeHint, when positive, is
// the expected number of bytes the whole sequence will add (plus the
// current size); 0 means unknown.
func (o *Object) OpenAppender(sizeHint int64) *Appender {
	return &Appender{o: o, hint: sizeHint}
}

// Write appends p to the object.
func (a *Appender) Write(p []byte) (int, error) {
	if a.closed {
		return 0, fmt.Errorf("lob: appender closed")
	}
	if err := a.o.appendBytes(p, a.hint, 0, streamed); err != nil {
		return 0, err
	}
	a.hint -= int64(len(p))
	return len(p), nil
}

// Close ends the sequence and trims the tail segment.
func (a *Appender) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	return a.o.Trim()
}

// Append appends data in one step, sizing the segment from the bytes in
// hand — unless SetGrowthHint has fixed the next segment's size, which
// then wins.  A sequence of Append calls on one object is itself a stream
// of unknown length, so the call leaves the tail segment open: allocated to
// T pages while it holds fewer, the pages it filled pending in memory, and
// the next Append continues in that room (nothing read, nothing written, no
// new segment).  A tail that has reached T pages is trimmed and closed, its
// pages still pending unless bytes behind it were written through.
func (o *Object) Append(data []byte) error {
	sp, err := o.PrepareAppend(data)
	if err != nil || sp == nil {
		return err
	}
	return o.apply(sp)
}

// AppendWithHint appends data, using sizeHint (total bytes expected to
// follow, including data) to size the allocation when positive, and trims
// the tail: the caller has said how much is coming.  With a write-behind set
// it writes nothing while its pages fit in the set's limit: they wait in the
// set, placed right after the object's last segment when they can be
// (prepareAppend).
func (o *Object) AppendWithHint(data []byte, sizeHint int64) error {
	return o.appendBytes(data, sizeHint, 0, hinted)
}

// SetGrowthHint overrides the doubling schedule: the next segment
// allocated by an append without a size hint — an Appender opened with
// none, or the next Append call — will request the given number of pages.
// Applications with knowledge of their chunk sizes can use this to lay
// out exact segment patterns.
func (o *Object) SetGrowthHint(pages int) {
	if pages < 1 {
		pages = 1
	}
	if max := o.m.alloc.MaxSegmentPages(); pages > max {
		pages = max
	}
	o.nextGrow = pages
	o.growFixed = true
}

// Trim frees the unused pages at the right end of the tail segment.  An
// entry names a segment's first page and its byte count, nothing beyond,
// so no root has ever named those pages and they go back unpublished.
func (o *Object) Trim() error { return o.trim(o.m.alloc.FreeUnpublished) }

// trim writes the tail segment's pending pages, gives its unused pages to
// free and closes it.
func (o *Object) trim(free func(disk.PageNum, int) error) error {
	if o.tailAlloc == 0 {
		return nil
	}
	_, tailLen, err := o.tailEntry()
	if err != nil {
		return err
	}
	if err := o.m.cfg.Pending.writeRange(o.tailStart, o.tailAlloc); err != nil {
		return err
	}
	if keep := pagesFor(tailLen, o.m.vol.PageSize()); keep < o.tailAlloc {
		if err := free(o.tailStart+disk.PageNum(keep), o.tailAlloc-keep); err != nil {
			return err
		}
	}
	o.ForgetTail()
	return nil
}

// ForgetTail makes the object trimmed without freeing anything.  It is for
// a loader that rebuilds the free space from ReachablePages: a durable
// descriptor may say the tail segment is allocated beyond its bytes, but
// that room is soft state — a Trim gives it back unpublished, to anyone, at
// once, and journals nothing — so only what the entries name still belongs
// to the object, and its next append starts a fresh tail.  An object with
// pending tail pages is never forgotten: trim writes them first.
func (o *Object) ForgetTail() { o.tailStart, o.tailAlloc = 0, 0 }

// trimTail trims when seg is the untrimmed tail segment, ahead of an
// operation that cuts or moves seg's bytes.  Operations elsewhere in the
// object leave the tail's room and pending run alone.
func (o *Object) trimTail(seg entry) error {
	if o.tailAlloc == 0 || seg.ptr != o.tailStart {
		return nil
	}
	return o.Trim()
}

// tailEntry returns the last leaf entry's start byte offset and length.
func (o *Object) tailEntry() (startByte, length int64, err error) {
	e, start, err := o.findSegment(o.size)
	if err != nil {
		return 0, 0, err
	}
	return start, e.bytes, nil
}

// appendBytes appends data, all of it or none: prepareAppend, then Apply.
func (o *Object) appendBytes(data []byte, sizeHint int64, open int, mode appendMode) error {
	sp, err := o.prepareAppend(data, sizeHint, open, mode)
	if err != nil || sp == nil {
		return err
	}
	return o.apply(sp)
}

// apply is Apply of a Splice o prepared itself.  A failure gives back what
// the prepare allocated if the root never came to name it; if it did, the
// pages the update meant to leave pending are written, since nothing else
// would make their bytes durable.
func (o *Object) apply(sp *Splice) error {
	size := o.size
	err := o.Apply(sp)
	if err == nil {
		return nil
	}
	if o.root.size() == size {
		sp.Cancel()
		return err
	}
	for _, run := range sp.pend {
		_ = o.m.writeHome(run.start, run.raw) // err is the failure to report
	}
	return err
}

// PrepareAppend is the prepare step of Append (splice.go); nil when data is
// empty.  The Splice puts the new segments behind the last leaf entry — and
// replaces that entry, grown, when some of data fits in the open tail's room
// — and leaves the tail as Append does.
func (o *Object) PrepareAppend(data []byte) (*Splice, error) {
	if o.growFixed {
		return o.prepareAppend(data, 0, 0, trimmed)
	}
	return o.prepareAppend(data, int64(len(data)), o.threshold, trimmed)
}

// prepareAppend prepares appending data.  Everything that can run out of
// space or fail on the device — filling the untrimmed tail's free room,
// allocating and writing new tail segments — happens on pages the tree does
// not name yet; Apply then publishes the lot.  A failure gives back what
// this call allocated and leaves the object, its tail, the bytes of its
// pending pages — pending still, or written — and its growth schedule as
// they were.
//
// open > 0 is a plain Append: a new tail segment is asked at least open
// pages, and the last segment, while it stays open, keeps the pages this
// call filled pending in memory — unless the manager writes through; their
// bytes are the Splice's Data.  So does the room of the old tail when this
// call fills it, while everything behind it stays in memory too and the log
// is not busy (Config.LogBusy).  Unless mode is streamed the last segment is
// then trimmed: down to open pages while it holds less than open pages of
// bytes and stays open, else to its bytes, closed.  A streamed one keeps its
// whole allocation (an Appender's stream).
//
// A hinted append on a manager with a write-behind set writes nothing: every
// page it fills stays pending, a closed tail's, and its first new segment
// goes to the page right after the object's last one when the allocator can
// place it there (Manager.allocRun), so that one object's hinted appends
// between two checkpoints are one run of pages, which the checkpoint's
// address-order pass writes in one request.  One whose pages would not fit
// in the set's limit is placed the same way but written through.
func (o *Object) prepareAppend(data []byte, sizeHint int64, open int, mode appendMode) (*Splice, error) {
	if len(data) == 0 {
		return nil, nil
	}
	o.m.st.appends.Add(1)
	m := o.m
	ps := m.vol.PageSize()
	held := o.tailHeld()
	maxSeg := m.alloc.MaxSegmentPages()
	// behind: a last segment holding n bytes stays open, its pages pending;
	// place: new segments go right after the object's last one when they
	// can; waits: every page this call fills stays pending — while they fit
	// in the set's limit, the fill's first page and data's (one larger is
	// written from data, which a pending copy would only double).
	behind := func(n int64) bool { return open > 0 && m.cfg.Pending != nil && n < int64(open)*int64(ps) }
	place := mode == hinted && m.cfg.Pending != nil
	waits := place && pagesFor(int64(len(data)), ps) < m.cfg.Pending.limit
	var at disk.PageNum // where the next new segment goes when it can: 0 anywhere

	sp := m.newSplice(o.size, o.size)
	byValue := 0         // the last bytes of data that stay in memory
	alloc := o.tailAlloc // pages allocated to the last segment
	remaining := data
	var fill pageImage // the room's pages this call fills, from the page it starts in on, but a held one
	later := false     // fill waits for the new segments: it stays in memory unless one goes through
	if len(o.root.entries) > 0 {
		tail, start, err := o.findSegment(o.size)
		if err != nil {
			return nil, err
		}
		if place {
			at = tail.ptr + disk.PageNum(max(pagesFor(tail.bytes, ps), o.tailAlloc))
		}
		if w := min(int64(o.tailAlloc)*int64(ps)-tail.bytes, int64(len(data))); w > 0 {
			// The fill stays in memory while the tail stays open.  One that
			// fills the tail stays too, a closed tail's, when the bytes behind
			// it do — the record's by-value bytes are a suffix of the update's
			// —, no replace holds the page it starts in, and the log has room
			// for them.
			rest := int64(len(data)) - w
			later = waits || rest == 0 && behind(tail.bytes+w) || !held && behind(rest) && !m.logBusy()
			if fill.start, fill.raw, err = m.extend(o.tailStart, tail.bytes, data[:w], later); err != nil {
				return nil, err
			}
			if held {
				// A transaction's replace holds the partial page the fill
				// starts in (held.go).  Its new image — the replaced bytes,
				// and these behind them — is held too, not written in place:
				// uncommitted bytes over bytes a committed root names.  Only
				// the pages behind it are written or left pending.
				sp.hold = heldImages(fill.start, fill.raw[:ps], ps)
				byValue = len(data)
				fill.start, fill.raw = fill.start+1, fill.raw[ps:]
			}
			if !later && len(fill.raw) > 0 {
				// Written now, the pending pages around it with it, in one
				// request.  A failure from here on leaves them written and
				// the object as it was.
				if err := m.writeHome(fill.start, fill.raw); err != nil {
					return nil, err
				}
				sp.wrote = true
			}
			// The tail grew: the splice replaces it.
			tail.bytes += w
			remaining = data[w:]
			sp.Lo = start
			sp.Entries = append(sp.Entries, Extent{Start: tail.ptr, Bytes: tail.bytes})
		}
	}

	// New tail segments: hint-sized when the size is known, else the
	// doubling schedule.
	grow := o.nextGrow
	for len(remaining) > 0 {
		want := grow
		if sizeHint > 0 {
			if exact := pagesFor(sizeHint-int64(len(data)-len(remaining)), ps); exact > 0 {
				want = exact
			}
		}
		start, got, err := m.allocRun(max(1, min(max(want, open), maxSeg)), at)
		if err != nil {
			return nil, m.giveBack(sp.runs, err)
		}
		sp.runs = append(sp.runs, PageRun{Start: start, Pages: got})
		grow = min(got*2, maxSeg)
		w := min(int64(got)*int64(ps), int64(len(remaining)))
		if place {
			at = start + disk.PageNum(pagesFor(w, ps))
		}
		pend := waits || w == int64(len(remaining)) && behind(w)
		img := m.pageImage(remaining[:w], pend)
		if pend {
			sp.pend = append(sp.pend, pageImage{start: start, raw: img})
			byValue = max(byValue, len(remaining))
		} else if err := m.writeImage(start, img); err != nil {
			return nil, m.giveBack(sp.runs, err)
		}
		sp.wrote = sp.wrote || !pend
		sp.Entries = append(sp.Entries, Extent{Start: start, Bytes: w})
		remaining = remaining[w:]
		alloc = got
		sp.grow = grow
	}
	if later && len(fill.raw) > 0 {
		if sp.wrote {
			// A new segment went through: so does the fill.
			if err := m.writeHome(fill.start, fill.raw); err != nil {
				return nil, m.giveBack(sp.runs, err)
			}
		} else {
			sp.pend = append(sp.pend, fill)
			byValue = len(data)
		}
	}
	sp.Data = data[len(data)-byValue:]

	// The tail the update leaves.  Room a new segment's trim cuts goes back
	// now — no root has named it —; an old tail's, when Apply frees it.
	last := &sp.Entries[len(sp.Entries)-1]
	last.Pages = alloc
	if mode != streamed && alloc > 0 {
		last.Pages = 0
		if last.Bytes < int64(open)*int64(ps) {
			last.Pages = max(pagesFor(last.Bytes, ps), min(open, alloc))
		}
	}
	if n := len(sp.runs); n > 0 {
		r := &sp.runs[n-1]
		if keep := last.Run(ps).Pages; keep < r.Pages {
			if err := m.alloc.FreeUnpublished(r.Start+disk.PageNum(keep), r.Pages-keep); err != nil {
				return nil, m.giveBack(sp.runs, err)
			}
			r.Pages = keep
		}
	}
	return sp, nil
}

// appendMode says what an append leaves of the last segment, and where its
// pages go (prepareAppend).
type appendMode uint8

const (
	streamed appendMode = iota // an Appender's: its whole allocation stays
	trimmed                    // trimmed to its bytes, or to open pages while it holds fewer
	hinted                     // trimmed to its bytes, placed and left pending when the manager has a write-behind set that it fits in
)

// extend returns the page run that writing data at byte have of the segment
// whose first page is start makes, from the page data starts in to the page
// it ends in, and that run's first page.  The bytes the first page already
// holds are read back — from the write-behind set while it is pending.  keep
// says the run will stay in memory; one that is only written may be data
// itself (Manager.pageImage).
func (m *Manager) extend(start disk.PageNum, have int64, data []byte, keep bool) (disk.PageNum, []byte, error) {
	head, _, first := disk.Around(start, have, int64(len(data)), m.vol.PageSize())
	if head.N == 0 {
		return start + first, m.pageImage(data, keep), nil
	}
	raw, _, err := m.gather(nil, head, int64(len(data)), disk.ByteRange{}, nil)
	if err != nil {
		return 0, nil, err
	}
	copy(raw[head.N:], data)
	return start + first, raw, nil
}

// tailHeld reports whether the manager holds the partial last page of the
// untrimmed tail: the one page that continuing the tail in place rewrites.
func (o *Object) tailHeld() bool {
	held := o.m.held.set
	if o.tailAlloc == 0 || len(held) == 0 {
		return false
	}
	_, tailLen, err := o.tailEntry()
	if err != nil {
		return false // the append will report it
	}
	ps := int64(o.m.vol.PageSize())
	return tailLen%ps != 0 && has(held, o.tailStart+disk.PageNum(tailLen/ps))
}
