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
// A Reader is a Snapshot that does not keep its version: every call reads
// the object's newest committed version, as Object.Read does — without the
// object latch, and without the uncommitted bytes of a transaction that
// holds the object.  Each call loads the version once and reads it whole,
// so a concurrent shrink shortens the read rather than failing it.
type Reader struct{ stream }

// NewReader returns a Reader positioned at byte 0.
func (o *Object) NewReader() *Reader { return &Reader{stream{src: o}} }

// versions is where a stream's version comes from: an Object, whose newest
// published version a Reader reads at every call, or a Snapshot, which
// keeps the one it captured.
type versions interface {
	// readAt fills p from byte off of the version (readVersion), whose
	// pages stay pinned while it reads.
	readAt(p []byte, off int64) (int, error)
	// Size is the version's length.
	Size() int64
}

// readAt reads the newest published version under a pin of its own.
func (o *Object) readAt(p []byte, off int64) (n int, err error) {
	err = o.read(func(v *lob.RootVersion) (err error) {
		n, err = readVersion(v, p, off)
		return err
	})
	return n, err
}

// readVersion fills p from byte off of v as far as v's end allows and
// returns how many bytes it read, with io.EOF when p reaches past the end
// (io.ReaderAt).
func readVersion(v *lob.RootVersion, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset %d", lob.ErrOutOfBounds, off)
	}
	size := v.Size()
	if off >= size {
		return 0, io.EOF
	}
	n := min(int64(len(p)), size-off)
	if err := v.ReadAt(p[:n], off); err != nil {
		return 0, err
	}
	if n < int64(len(p)) {
		return int(n), io.EOF
	}
	return int(n), nil
}

// stream is the io.Reader, io.ReaderAt, io.Seeker and io.WriterTo adapter
// Reader and Snapshot share: a cursor over the versions src yields.
type stream struct {
	src versions
	pos int64
}

// Read implements io.Reader.
func (st *stream) Read(p []byte) (int, error) {
	n, err := st.src.readAt(p, st.pos)
	st.pos += int64(n)
	return n, err
}

// ReadAt implements io.ReaderAt; it does not move the cursor.
func (st *stream) ReadAt(p []byte, off int64) (int, error) { return st.src.readAt(p, off) }

// Seek implements io.Seeker.
func (st *stream) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		base = st.pos
	case io.SeekEnd:
		base = st.src.Size()
	default:
		return 0, fmt.Errorf("eos: invalid whence %d", whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("%w: seek to %d", lob.ErrOutOfBounds, pos)
	}
	st.pos = pos
	return pos, nil
}

// WriteTo implements io.WriterTo, streaming the rest of the version from
// the cursor in 1 MB chunks through Read.
func (st *stream) WriteTo(w io.Writer) (int64, error) {
	const chunk = 1 << 20
	buf := make([]byte, chunk)
	var total int64
	for {
		n, err := st.Read(buf)
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
// logical offset, length, first volume page, and page count.  It walks the
// live tree under the shared latch, as the other diagnostics do (Usage).
func (o *Object) Segments() ([]lob.SegmentInfo, error) {
	o.e.latch.RLock()
	defer o.e.latch.RUnlock()
	return o.e.obj.Segments()
}
