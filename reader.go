package eos

import (
	"errors"
	"fmt"
	"io"

	"github.com/eosdb/eos/internal/lob"
)

// Reader adapts a large object to io.Reader, io.ReaderAt, io.Seeker and
// io.WriterTo, so objects plug into the standard streaming ecosystem
// (io.Copy to play the paper's digital sound recordings, bufio.Scanner
// over a stored document, and so on).  A Reader tracks its own position;
// multiple Readers over one object are independent.
//
// Reads observe the object's current content: each Read and ReadAt takes
// the object's size and reads under one latch hold, so a concurrent
// shrink shortens the read rather than failing it.  WriteTo streams the
// rest of the object in 1 MB chunks through Read.
type Reader struct {
	o   *Object
	pos int64
}

// NewReader returns a Reader positioned at byte 0.
func (o *Object) NewReader() *Reader {
	return &Reader{o: o}
}

// readAt fills p from byte off as far as the object's end allows and
// returns how many bytes it read, or 0 and io.EOF when off is at or past
// the end.
func (r *Reader) readAt(p []byte, off int64) (int, error) {
	e := r.o.e
	e.latch.RLock()
	defer e.latch.RUnlock()
	size := e.obj.Size()
	if off >= size {
		return 0, io.EOF
	}
	n := min(int64(len(p)), size-off)
	if err := e.obj.ReadAt(p[:n], off); err != nil {
		return 0, err
	}
	return int(n), nil
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.readAt(p, r.pos)
	r.pos += int64(n)
	return n, err
}

// ReadAt implements io.ReaderAt; it does not move the position.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("eos: negative offset %d", off)
	}
	n, err := r.readAt(p, off)
	if err == nil && n < len(p) {
		err = io.EOF
	}
	return n, err
}

// Seek implements io.Seeker.
func (r *Reader) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = r.pos
	case io.SeekEnd:
		base = r.o.Size()
	default:
		return 0, fmt.Errorf("eos: invalid whence %d", whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("eos: negative seek position %d", pos)
	}
	r.pos = pos
	return pos, nil
}

// WriteTo implements io.WriterTo, streaming the rest of the object in
// 1 MB chunks through Read.
func (r *Reader) WriteTo(w io.Writer) (int64, error) {
	const chunk = 1 << 20
	buf := make([]byte, chunk)
	var total int64
	for {
		n, err := r.Read(buf)
		if n > 0 {
			wn, werr := w.Write(buf[:n])
			total += int64(wn)
			if werr != nil {
				return total, werr
			}
			if wn < n {
				return total, io.ErrShortWrite
			}
		}
		if errors.Is(err, io.EOF) {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// Segments lists the object's physical layout: each leaf segment's
// logical offset, length, first volume page, and page count.
func (o *Object) Segments() ([]lob.SegmentInfo, error) {
	o.e.latch.RLock()
	defer o.e.latch.RUnlock()
	return o.e.obj.Segments()
}
