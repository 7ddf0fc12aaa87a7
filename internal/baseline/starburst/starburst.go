// Package starburst implements the Starburst long field manager (Lehman &
// Lindsay, VLDB 1989) as a comparison baseline for the EOS large object
// manager.
//
// A long field is stored in buddy-allocated segments.  When the eventual
// size is unknown, successive segments double in size until the maximum
// segment size is reached; when known, maximum-size segments are used.
// The last segment is trimmed.  The long field descriptor holds pointers
// to all segments.
//
// Reads, appends, and in-place replacement are efficient.  Byte inserts
// and deletes are not: as §2 of the EOS paper puts it, "these operations
// require all segments to the right of and including the segment on which
// the update is performed to be copied into new segments" — Starburst's
// long fields were intended for large, mostly read-only objects.
package starburst

import (
	"errors"
	"fmt"

	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
)

// ErrOutOfBounds is returned for ranges outside the long field.
var ErrOutOfBounds = errors.New("starburst: byte range out of bounds")

// segment is one buddy-allocated run of pages holding bytes of the field.
type segment struct {
	start disk.PageNum
	bytes int64
	pages int // allocated pages (>= ceil(bytes/ps) while untrimmed)
}

// LongField is one Starburst long field.
type LongField struct {
	vol      disk.Device
	alloc    lob.Allocator
	segs     []segment
	size     int64
	nextGrow int
}

// New creates an empty long field over the volume and allocator.
func New(vol disk.Device, alloc lob.Allocator) *LongField {
	return &LongField{vol: vol, alloc: alloc, nextGrow: 1}
}

// Size returns the field length in bytes.
func (f *LongField) Size() int64 { return f.size }

func (f *LongField) checkRange(off, n int64) error {
	if off < 0 || n < 0 || off+n > f.size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBounds, off, off+n, f.size)
	}
	return nil
}

func pagesFor(b int64, ps int) int {
	if b <= 0 {
		return 0
	}
	return int((b + int64(ps) - 1) / int64(ps))
}

// Append appends data; sizeHint > 0 sizes the allocation when the final
// length is known in advance.
func (f *LongField) Append(data []byte) error { return f.AppendWithHint(data, 0) }

// AppendWithHint appends data using the growth policy.
func (f *LongField) AppendWithHint(data []byte, sizeHint int64) error {
	if err := f.appendRaw(data, sizeHint); err != nil {
		return err
	}
	return f.trim()
}

func (f *LongField) appendRaw(data []byte, sizeHint int64) error {
	ps := f.vol.PageSize()
	maxSeg := f.alloc.MaxSegmentPages()
	remaining := data
	for len(remaining) > 0 {
		// Fill free room in the last segment.
		if n := len(f.segs); n > 0 {
			tail := &f.segs[n-1]
			room := int64(tail.pages)*int64(ps) - tail.bytes
			if room > 0 {
				w := room
				if int64(len(remaining)) < w {
					w = int64(len(remaining))
				}
				if err := f.writeAt(tail, tail.bytes, remaining[:w]); err != nil {
					return err
				}
				tail.bytes += w
				f.size += w
				remaining = remaining[w:]
				continue
			}
		}
		want := f.nextGrow
		if sizeHint > 0 {
			// Known size: use maximum-size segments.
			want = maxSeg
		}
		if want > maxSeg {
			want = maxSeg
		}
		start, got, err := f.alloc.AllocUpTo(want)
		if err != nil {
			return err
		}
		f.nextGrow = got * 2
		if f.nextGrow > maxSeg {
			f.nextGrow = maxSeg
		}
		f.segs = append(f.segs, segment{start: start, bytes: 0, pages: got})
	}
	return nil
}

// trim frees the unused pages at the right end of the last segment.
func (f *LongField) trim() error {
	if len(f.segs) == 0 {
		return nil
	}
	tail := &f.segs[len(f.segs)-1]
	used := pagesFor(tail.bytes, f.vol.PageSize())
	if used < tail.pages {
		if err := f.alloc.Free(tail.start+disk.PageNum(used), tail.pages-used); err != nil {
			return err
		}
		tail.pages = used
	}
	if tail.bytes == 0 {
		f.segs = f.segs[:len(f.segs)-1]
	}
	return nil
}

// writeAt writes data at byte offset off within one segment.  The bytes
// the first and last page keep come from disk.Gather, the request-shaping
// rule EOS's own replace uses, so the comparison stays like for like.
func (f *LongField) writeAt(s *segment, off int64, data []byte) error {
	head, tail, first := disk.Around(s.start, off, int64(len(data)), f.vol.PageSize())
	raw, _, err := disk.Gather(f.vol, head, int64(len(data)), tail)
	if err != nil {
		return err
	}
	copy(raw[head.N:], data)
	return f.vol.WritePages(s.start+first, len(raw)/f.vol.PageSize(), raw)
}

// readAt reads n bytes at byte offset off within one segment.
func (f *LongField) readAt(s *segment, off int64, buf []byte) error {
	first, npages, in := disk.PageSpan(off, int64(len(buf)), f.vol.PageSize())
	raw := make([]byte, npages*f.vol.PageSize())
	if err := f.vol.ReadPages(s.start+first, npages, raw); err != nil {
		return err
	}
	copy(buf, raw[in:])
	return nil
}

// locate finds the segment containing byte off and the offset of that
// segment's first byte.
func (f *LongField) locate(off int64) (idx int, segStart int64) {
	var cum int64
	for i := range f.segs {
		if off < cum+f.segs[i].bytes {
			return i, cum
		}
		cum += f.segs[i].bytes
	}
	return len(f.segs) - 1, cum - f.segs[len(f.segs)-1].bytes
}

// Read returns n bytes from byte offset off.
func (f *LongField) Read(off, n int64) ([]byte, error) {
	if err := f.checkRange(off, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	pos := int64(0)
	var cum int64
	for i := range f.segs {
		if pos == n {
			break
		}
		s := &f.segs[i]
		start, end := cum, cum+s.bytes
		cum = end
		if off+pos >= end {
			continue
		}
		take := end - (off + pos)
		if take > n-pos {
			take = n - pos
		}
		if err := f.readAt(s, off+pos-start, out[pos:pos+take]); err != nil {
			return nil, err
		}
		pos += take
	}
	return out, nil
}

// Replace overwrites bytes in place.
func (f *LongField) Replace(off int64, data []byte) error {
	if err := f.checkRange(off, int64(len(data))); err != nil {
		return err
	}
	pos := int64(0)
	var cum int64
	for i := range f.segs {
		if pos == int64(len(data)) {
			break
		}
		s := &f.segs[i]
		start, end := cum, cum+s.bytes
		cum = end
		if off+pos >= end {
			continue
		}
		take := end - (off + pos)
		if take > int64(len(data))-pos {
			take = int64(len(data)) - pos
		}
		if err := f.writeAt(s, off+pos-start, data[pos:pos+take]); err != nil {
			return err
		}
		pos += take
	}
	return nil
}

// Insert inserts data at byte off.  Everything from the segment containing
// off rightward is copied into new segments — the cost the EOS design
// avoids.
func (f *LongField) Insert(off int64, data []byte) error {
	if off < 0 || off > f.size {
		return fmt.Errorf("%w: insert at %d of %d", ErrOutOfBounds, off, f.size)
	}
	if len(data) == 0 {
		return nil
	}
	if off == f.size {
		return f.AppendWithHint(data, 0)
	}
	return f.rewriteTail(off, data, 0)
}

// Delete removes n bytes starting at off, rewriting the tail.
func (f *LongField) Delete(off, n int64) error {
	if err := f.checkRange(off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	return f.rewriteTail(off, nil, n)
}

// rewriteTail rebuilds the field from the segment containing byte off
// (off < size): the prefix of that segment is preserved by copying, ins
// is inserted at off, del bytes are dropped, and the old segments are
// freed.
func (f *LongField) rewriteTail(off int64, ins []byte, del int64) error {
	idx, segStart := f.locate(off)
	// Read the tail from segStart to the end.
	tailLen := f.size - segStart
	tail := make([]byte, tailLen)
	pos := int64(0)
	for i := idx; i < len(f.segs); i++ {
		s := &f.segs[i]
		if err := f.readAt(s, 0, tail[pos:pos+s.bytes]); err != nil {
			return err
		}
		pos += s.bytes
	}
	// Build the new tail.
	cut := off - segStart
	newTail := make([]byte, 0, tailLen+int64(len(ins))-del)
	newTail = append(newTail, tail[:cut]...)
	newTail = append(newTail, ins...)
	newTail = append(newTail, tail[cut+del:]...)

	// Free the old segments from idx on.
	for i := idx; i < len(f.segs); i++ {
		s := &f.segs[i]
		if s.pages > 0 {
			if err := f.alloc.Free(s.start, s.pages); err != nil {
				return err
			}
		}
	}
	f.segs = f.segs[:idx]
	f.size = segStart
	// Reset growth to continue the pattern from the surviving prefix.
	f.nextGrow = 1
	if idx > 0 {
		f.nextGrow = f.segs[idx-1].pages * 2
		if max := f.alloc.MaxSegmentPages(); f.nextGrow > max {
			f.nextGrow = max
		}
	}
	return f.AppendWithHint(newTail, int64(len(newTail)))
}

// Destroy frees every segment.
func (f *LongField) Destroy() error {
	for i := range f.segs {
		s := &f.segs[i]
		if s.pages > 0 {
			if err := f.alloc.Free(s.start, s.pages); err != nil {
				return err
			}
		}
	}
	f.segs = nil
	f.size = 0
	f.nextGrow = 1
	return nil
}

// Usage reports the storage footprint: data bytes, allocated data pages,
// and descriptor (index) pages — the descriptor is assumed to fit one
// page, as in Starburst.
func (f *LongField) Usage() (dataBytes int64, dataPages, indexPages int) {
	for i := range f.segs {
		dataPages += f.segs[i].pages
	}
	return f.size, dataPages, 1
}

// SegmentCount reports the number of segments holding the field.
func (f *LongField) SegmentCount() int { return len(f.segs) }
