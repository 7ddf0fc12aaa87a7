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
//     is coming: segments just large enough, trimmed at once.
//   - A plain Append holds all its bytes, so it allocates what it writes —
//     but never less than T pages, and it trims the tail segment only down
//     to T pages while it holds fewer: the calls on one object are a stream
//     too, and the next one fills the room this one left.
//
// What may be written in place is room no root has ever named.  The pages
// of an untrimmed tail beyond its bytes are that by construction; so is the
// slack of its partial last page, because every operation that could leave
// named bytes there (a delete, truncate, insert or compaction that touches
// the tail segment) trims first, and a trimmed tail is never filled.

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
	if err := a.o.appendBytes(p, a.hint, 0); err != nil {
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
// T pages while it holds fewer, its last partial page remembered, and the
// next Append continues in that room (one write, nothing read, no new
// segment).  A tail that has reached T pages is trimmed like any other.
func (o *Object) Append(data []byte) error {
	if o.growFixed {
		return o.AppendWithHint(data, 0)
	}
	open := o.threshold
	if o.m.cfg.AdaptiveThreshold {
		// Any splice may move small segments — the tail among them — into
		// a compacted one; no room is kept behind a segment that can move.
		open = 0
	}
	if err := o.appendBytes(data, int64(len(data)), open); err != nil {
		return err
	}
	return o.trim(o.m.alloc.FreeUnpublished, open)
}

// AppendWithHint appends data, using sizeHint (total bytes expected to
// follow, including data) to size the allocation when positive, and trims
// the tail: the caller has said how much is coming.
func (o *Object) AppendWithHint(data []byte, sizeHint int64) error {
	if err := o.appendBytes(data, sizeHint, 0); err != nil {
		return err
	}
	return o.Trim()
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
func (o *Object) Trim() error { return o.trim(o.m.alloc.FreeUnpublished, 0) }

// trim gives the tail segment's unused pages to free, all of them when
// open is 0.  Otherwise a tail holding less than open pages of bytes stays
// open: it keeps up to open pages, and the image of its partial page.
func (o *Object) trim(free func(disk.PageNum, int) error, open int) error {
	if o.tailAlloc == 0 {
		return nil
	}
	_, tailLen, err := o.tailEntry()
	if err != nil {
		return err
	}
	ps := o.m.vol.PageSize()
	keep := pagesFor(tailLen, ps)
	stayOpen := tailLen < int64(open)*int64(ps)
	if stayOpen {
		keep = max(keep, min(open, o.tailAlloc))
	}
	if keep < o.tailAlloc {
		if err := free(o.tailStart+disk.PageNum(keep), o.tailAlloc-keep); err != nil {
			return err
		}
	}
	if stayOpen {
		o.tailAlloc = keep
	} else {
		o.ForgetTail()
	}
	return nil
}

// ForgetTail makes the object trimmed without freeing anything.  It is for
// a loader that rebuilds the free space from ReachablePages: a durable
// descriptor may say the tail segment is allocated beyond its bytes, but
// that room is soft state — a Trim gives it back unpublished, to anyone, at
// once, and journals nothing — so only what the entries name still belongs
// to the object, and its next append starts a fresh tail.
func (o *Object) ForgetTail() { o.tailStart, o.tailAlloc, o.tailImg = 0, 0, nil }

// ForgetTailImage drops the remembered partial page and keeps the room: the
// next append into it reads that page back.  It bounds the memory the
// images take (a checkpoint calls it on every object).
func (o *Object) ForgetTailImage() { o.tailImg = nil }

// replacedTo tells the object that bytes up to logical offset end have
// been overwritten in place: the image is stale if they reach its page.
func (o *Object) replacedTo(end int64) {
	if end > o.size-int64(len(o.tailImg)) {
		o.tailImg = nil
	}
}

// trimTail trims when seg is the untrimmed tail segment, ahead of an
// operation that cuts or moves seg's bytes.  Operations elsewhere in the
// object leave the tail's room and image alone.
func (o *Object) trimTail(seg entry) error {
	if o.tailAlloc == 0 || seg.ptr != o.tailStart {
		return nil
	}
	return o.Trim()
}

// tailEntry returns the last leaf entry's start byte offset and length.
func (o *Object) tailEntry() (startByte, length int64, err error) {
	e, start, _, err := o.findSegment(o.size)
	if err != nil {
		return 0, 0, err
	}
	return start, e.bytes, nil
}

// appendBytes appends data, all of it or none.  Everything that can run
// out of space or fail on the device — filling the untrimmed tail's free
// room, allocating and writing new tail segments — happens on pages the
// tree does not name yet; one splice then publishes the lot.  A failure
// gives back what this call allocated and leaves the object, its tail, the
// image of its partial page and its growth schedule as they were.
//
// open > 0 is a plain Append: a new tail segment is asked at least open
// pages, and the partial last page is remembered for the next call.
func (o *Object) appendBytes(data []byte, sizeHint int64, open int) error {
	if len(data) == 0 {
		return nil
	}
	o.bumpVersion()
	o.m.st.appends.Add(1)
	m := o.m
	ps := m.vol.PageSize()
	maxSeg := m.alloc.MaxSegmentPages()

	// repl replaces the last leaf entry: itself, grown by what fits in its
	// untrimmed room, followed by the new segments.
	repl := make([]entry, 0, 2)
	var tailStartByte int64
	var written []byte // the last page run written: it ends with the new last page
	remaining := data
	hasTail := len(o.root.entries) > 0
	if hasTail {
		tail, start, _, err := o.findSegment(o.size)
		if err != nil {
			return err
		}
		tailStartByte = start
		if w := min(int64(o.tailAlloc)*int64(ps)-tail.bytes, int64(len(data))); w > 0 {
			if written, err = o.writeTail(tail.bytes, data[:w]); err != nil {
				return err
			}
			tail.bytes += w
			remaining = data[w:]
		}
		repl = append(repl, tail)
	}

	// New tail segments: hint-sized when the size is known, else the
	// doubling schedule.
	grow := o.nextGrow
	var runBuf [2]PageRun
	runs := runBuf[:0] // what this call allocates, whole
	for len(remaining) > 0 {
		want := grow
		if sizeHint > 0 {
			if hinted := pagesFor(sizeHint-int64(len(data)-len(remaining)), ps); hinted > 0 {
				want = hinted
			}
		}
		start, got, err := m.alloc.AllocUpTo(max(1, min(max(want, open), maxSeg)))
		if err != nil {
			return m.giveBack(runs, err)
		}
		runs = append(runs, PageRun{Start: start, Pages: got})
		grow = min(got*2, maxSeg)
		w := min(int64(got)*int64(ps), int64(len(remaining)))
		written = m.pageImage(remaining[:w])
		if err := m.writeImage(start, written); err != nil {
			return m.giveBack(runs, err)
		}
		repl = append(repl, entry{bytes: w, ptr: start})
		remaining = remaining[w:]
	}

	var err error
	if hasTail {
		err = o.spliceLeafRange(tailStartByte, o.size, repl, true, true)
	} else {
		err = o.spliceLeafRange(0, 0, repl, false, false)
	}
	if err != nil {
		if o.root.size() == o.size {
			return m.giveBack(runs, err) // the root never came to name the new segments
		}
		return err
	}
	if n := len(runs); n > 0 {
		m.st.segmentsAllocated.Add(int64(n))
		o.nextGrow, o.growFixed = grow, false
		o.tailStart, o.tailAlloc = runs[n-1].Start, runs[n-1].Pages
	}
	if partial := repl[len(repl)-1].bytes % int64(ps); open > 0 && partial > 0 && !m.cfg.NoTailImage {
		o.tailImg = append(o.tailImg[:0], written[len(written)-ps:][:partial]...)
	} else {
		o.tailImg = nil
	}
	return nil
}

// writeTail appends data at byte offset tailLen of the tail segment and
// returns the page run it wrote.  The bytes the partial last page (if any)
// already holds come from the image the last append left, or else are read
// back; the affected page run is written in one contiguous request.
func (o *Object) writeTail(tailLen int64, data []byte) ([]byte, error) {
	m := o.m
	ps := m.vol.PageSize()
	head, _, first := disk.Around(o.tailStart, tailLen, int64(len(data)), ps)
	var raw []byte
	if int64(len(o.tailImg)) == head.N {
		raw = make([]byte, pagesFor(head.N+int64(len(data)), ps)*ps)
		copy(raw, o.tailImg)
	} else {
		var err error
		if raw, err = m.gather(head, int64(len(data)), disk.ByteRange{}); err != nil {
			return nil, err
		}
	}
	copy(raw[head.N:], data)
	return raw, m.writeImage(o.tailStart+first, raw)
}

// AppendRewrites reports whether the next Append may rewrite a page p has
// prepared an image of: an untrimmed tail is continued in place, which
// writes its partial last page again, and the adaptive threshold may compact
// any existing segment.  Otherwise an append writes only pages no replace
// can cover.  A nil p covers nothing.
func (o *Object) AppendRewrites(p *ReplacePlan) bool {
	if p == nil {
		return false
	}
	if o.m.cfg.AdaptiveThreshold {
		return true
	}
	if o.tailAlloc == 0 {
		return false
	}
	_, tailLen, err := o.tailEntry()
	if err != nil {
		return true // the append will report it
	}
	return p.end > o.size-tailLen%int64(o.m.vol.PageSize())
}
