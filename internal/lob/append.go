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

// Append appends data in one step (open, write, trim).
func (o *Object) Append(data []byte) error {
	return o.AppendWithHint(data, 0)
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
// allocated by an append without a size hint will request the given
// number of pages.  Applications with knowledge of their chunk sizes can
// use this to lay out exact segment patterns.
func (o *Object) SetGrowthHint(pages int) {
	if pages < 1 {
		pages = 1
	}
	if max := o.m.alloc.MaxSegmentPages(); pages > max {
		pages = max
	}
	o.nextGrow = pages
}

// Trim frees the unused pages at the right end of the tail segment.
func (o *Object) Trim() error {
	if o.tailAlloc == 0 {
		return nil
	}
	_, tailLen, err := o.tailEntry()
	if err != nil {
		return err
	}
	used := pagesFor(tailLen, o.m.vol.PageSize())
	if used < o.tailAlloc {
		if err := o.m.alloc.Free(o.tailStart+disk.PageNum(used), o.tailAlloc-used); err != nil {
			return err
		}
	}
	o.tailAlloc = 0
	o.tailStart = 0
	return nil
}

// tailEntry returns the last leaf entry's start byte offset and length.
func (o *Object) tailEntry() (startByte, length int64, err error) {
	e, start, _, err := o.findSegment(o.size)
	if err != nil {
		return 0, 0, err
	}
	return start, e.bytes, nil
}

func (o *Object) appendBytes(data []byte, sizeHint int64) error {
	if len(data) == 0 {
		return nil
	}
	o.bumpVersion()
	o.m.st.appends.Add(1)
	m := o.m
	ps := m.vol.PageSize()
	maxSeg := m.alloc.MaxSegmentPages()

	remaining := data
	for len(remaining) > 0 {
		// Fill free room in the untrimmed tail segment first.
		if o.tailAlloc > 0 {
			tailStartByte, tailLen, err := o.tailEntry()
			if err != nil {
				return err
			}
			room := int64(o.tailAlloc)*int64(ps) - tailLen
			if room > 0 {
				w := room
				if int64(len(remaining)) < w {
					w = int64(len(remaining))
				}
				if err := o.writeTail(tailLen, remaining[:w]); err != nil {
					return err
				}
				repl := []entry{{bytes: tailLen + w, ptr: o.tailStart}}
				if err := o.spliceLeafRange(tailStartByte, o.size, repl, true, true); err != nil {
					return err
				}
				remaining = remaining[w:]
				continue
			}
		}

		// Allocate a new tail segment: hint-sized when the size is known,
		// else the doubling schedule.
		want := o.nextGrow
		if sizeHint > 0 {
			if hinted := pagesFor(sizeHint-int64(len(data)-len(remaining)), ps); hinted > 0 {
				want = hinted
			}
		}
		if want > maxSeg {
			want = maxSeg
		}
		if want < 1 {
			want = 1
		}
		start, got, err := m.alloc.AllocUpTo(want)
		if err != nil {
			return err
		}
		m.st.segmentsAllocated.Add(1)
		o.nextGrow = got * 2
		if o.nextGrow > maxSeg {
			o.nextGrow = maxSeg
		}
		w := int64(got) * int64(ps)
		if int64(len(remaining)) < w {
			w = int64(len(remaining))
		}
		if err := m.writeSegment(start, remaining[:w]); err != nil {
			return err
		}
		newTail := entry{bytes: w, ptr: start}
		if o.size == 0 && len(o.root.entries) == 0 {
			if err := o.spliceLeafRange(0, 0, []entry{newTail}, false, false); err != nil {
				return err
			}
		} else {
			prevTail, tailStartByte, _, err := o.findSegment(o.size)
			if err != nil {
				return err
			}
			repl := []entry{prevTail, newTail}
			if err := o.spliceLeafRange(tailStartByte, o.size, repl, true, true); err != nil {
				return err
			}
		}
		o.tailStart = start
		o.tailAlloc = got
		remaining = remaining[w:]
	}
	return nil
}

// writeTail appends w bytes at byte offset tailLen of the tail segment.
// Only the partial last page (if any) is read back; the affected page run
// is written in one contiguous request.
func (o *Object) writeTail(tailLen int64, data []byte) error {
	m := o.m
	ps := int64(m.vol.PageSize())
	first := tailLen / ps
	last := (tailLen + int64(len(data)) - 1) / ps
	npages := int(last - first + 1)
	raw := make([]byte, npages*int(ps))
	if tailLen%ps != 0 {
		if err := m.vol.ReadPages(o.tailStart+disk.PageNum(first), 1, raw[:ps]); err != nil {
			return err
		}
	}
	copy(raw[tailLen-first*ps:], data)
	if m.cfg.OnDataWrite != nil {
		m.cfg.OnDataWrite(o.tailStart+disk.PageNum(first), npages)
	}
	return m.vol.WritePages(o.tailStart+disk.PageNum(first), npages, raw)
}

// AppendRewrites reports whether the next append may read or rewrite
// pages the object already owns: an untrimmed tail segment is filled in
// place, and the adaptive threshold may compact existing segments.
// Otherwise an append only writes pages it has just allocated.
func (o *Object) AppendRewrites() bool {
	return o.tailAlloc > 0 || o.m.cfg.AdaptiveThreshold
}
