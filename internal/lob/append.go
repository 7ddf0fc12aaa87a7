package lob

import (
	"fmt"

	"github.com/eosdb/eos/internal/disk"
)

// Append semantics follow §4.1.  When the eventual object size is known
// in advance it is given as a hint and segments just large enough are
// allocated.  When it is unknown, successive segments double in size
// until the maximum segment size is reached (the Starburst growth scheme
// the paper adopts), and at the end of a multi-append sequence the last
// segment is trimmed — its unused pages at the right end are given back
// to the free space, which is trivial because the buddy system frees with
// one-page precision.
//
// "Unknown" is a property of a stream, which is what an open Appender is.
// A single Append call holds all its bytes: it is an append whose size is
// known, and allocates what it writes.

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
	if err := a.o.appendBytes(p, a.hint); err != nil {
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

// Append appends data in one step (open, write, trim), sizing the segment
// from the bytes in hand — unless SetGrowthHint has fixed the next
// segment's size, which then wins.
func (o *Object) Append(data []byte) error {
	if o.growFixed {
		return o.AppendWithHint(data, 0)
	}
	return o.AppendWithHint(data, int64(len(data)))
}

// AppendWithHint appends data, using sizeHint (total bytes expected to
// follow, including data) to size the allocation when positive.
func (o *Object) AppendWithHint(data []byte, sizeHint int64) error {
	if err := o.appendBytes(data, sizeHint); err != nil {
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
func (o *Object) Trim() error { return o.trim(o.m.alloc.FreeUnpublished) }

// trim gives the tail segment's unused pages to free.
func (o *Object) trim(free func(disk.PageNum, int) error) error {
	if o.tailAlloc == 0 {
		return nil
	}
	_, tailLen, err := o.tailEntry()
	if err != nil {
		return err
	}
	used := pagesFor(tailLen, o.m.vol.PageSize())
	if used < o.tailAlloc {
		if err := free(o.tailStart+disk.PageNum(used), o.tailAlloc-used); err != nil {
			return err
		}
	}
	o.tailAlloc = 0
	o.tailStart = 0
	return nil
}

// ForgetTail makes the object trimmed without freeing anything.  It is for
// a loader that rebuilds the free space from ReachablePages: a durable
// descriptor may say the tail segment is allocated beyond its bytes, but
// the Trim that followed it gave those pages back unpublished — to anyone,
// at once — so only what the entries name still belongs to the object.
func (o *Object) ForgetTail() { o.tailStart, o.tailAlloc = 0, 0 }

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
// gives back what this call allocated and leaves the object, its tail and
// its growth schedule as they were.
func (o *Object) appendBytes(data []byte, sizeHint int64) error {
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
	remaining := data
	hasTail := len(o.root.entries) > 0
	if hasTail {
		tail, start, _, err := o.findSegment(o.size)
		if err != nil {
			return err
		}
		tailStartByte = start
		if w := min(int64(o.tailAlloc)*int64(ps)-tail.bytes, int64(len(data))); w > 0 {
			if err := o.writeTail(tail.bytes, data[:w]); err != nil {
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
		start, got, err := m.alloc.AllocUpTo(max(1, min(want, maxSeg)))
		if err != nil {
			return m.giveBack(runs, err)
		}
		runs = append(runs, PageRun{Start: start, Pages: got})
		grow = min(got*2, maxSeg)
		w := min(int64(got)*int64(ps), int64(len(remaining)))
		if err := m.writeSegment(start, remaining[:w]); err != nil {
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
	return nil
}

// writeTail appends data at byte offset tailLen of the tail segment.
// Only the partial last page (if any) is read back; the affected page run
// is written in one contiguous request.
func (o *Object) writeTail(tailLen int64, data []byte) error {
	m := o.m
	head, _, first := disk.Around(o.tailStart, tailLen, int64(len(data)), m.vol.PageSize())
	raw, err := m.gather(head, int64(len(data)), disk.ByteRange{})
	if err != nil {
		return err
	}
	copy(raw[head.N:], data)
	return m.writeImage(o.tailStart+first, raw)
}

// AppendRewrites reports whether the next append may read or rewrite
// pages the object already owns: an untrimmed tail segment is filled in
// place, and the adaptive threshold may compact existing segments.
// Otherwise an append only writes pages it has just allocated.
func (o *Object) AppendRewrites() bool {
	return o.tailAlloc > 0 || o.m.cfg.AdaptiveThreshold
}
