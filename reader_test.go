package eos

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

func readerObject(t *testing.T, content []byte) *Object {
	t.Helper()
	s, _, _ := newStore(t, Options{})
	o, err := s.Create("r", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Append(content); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestReaderIOCopy(t *testing.T) {
	content := pat(100, 50000)
	o := readerObject(t, content)
	var buf bytes.Buffer
	n, err := io.Copy(&buf, o.NewReader())
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(content)) || !bytes.Equal(buf.Bytes(), content) {
		t.Errorf("io.Copy moved %d bytes; content match=%v", n, bytes.Equal(buf.Bytes(), content))
	}
}

func TestReaderSmallReads(t *testing.T) {
	content := pat(101, 1000)
	o := readerObject(t, content)
	r := o.NewReader()
	var got []byte
	buf := make([]byte, 7)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, content) {
		t.Error("chunked reads lost data")
	}
}

func TestReaderSeek(t *testing.T) {
	content := pat(102, 1000)
	o := readerObject(t, content)
	r := o.NewReader()

	if pos, err := r.Seek(100, io.SeekStart); err != nil || pos != 100 {
		t.Fatalf("SeekStart = (%d, %v)", pos, err)
	}
	buf := make([]byte, 10)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, content[100:110]) {
		t.Error("read after SeekStart wrong")
	}
	if pos, err := r.Seek(-10, io.SeekCurrent); err != nil || pos != 100 {
		t.Fatalf("SeekCurrent = (%d, %v)", pos, err)
	}
	if pos, err := r.Seek(-50, io.SeekEnd); err != nil || pos != 950 {
		t.Fatalf("SeekEnd = (%d, %v)", pos, err)
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, content[950:]) {
		t.Error("tail read wrong")
	}
	if _, err := r.Seek(-1, io.SeekStart); err == nil {
		t.Error("negative seek accepted")
	}
	if _, err := r.Seek(0, 99); err == nil {
		t.Error("bad whence accepted")
	}
	// Seeking past the end is allowed; reads there return EOF.
	if _, err := r.Seek(5000, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(buf); err != io.EOF {
		t.Errorf("read past end: %v", err)
	}
}

func TestReaderReadAt(t *testing.T) {
	content := pat(103, 500)
	o := readerObject(t, content)
	r := o.NewReader()
	buf := make([]byte, 50)
	if n, err := r.ReadAt(buf, 200); err != nil || n != 50 {
		t.Fatalf("ReadAt = (%d, %v)", n, err)
	}
	if !bytes.Equal(buf, content[200:250]) {
		t.Error("ReadAt content wrong")
	}
	// Short read at the end returns io.EOF with the bytes.
	if n, err := r.ReadAt(buf, 480); err != io.EOF || n != 20 {
		t.Errorf("short ReadAt = (%d, %v)", n, err)
	}
	if _, err := r.ReadAt(buf, 500); err != io.EOF {
		t.Errorf("ReadAt past end: %v", err)
	}
	if _, err := r.ReadAt(buf, -1); err == nil {
		t.Error("negative ReadAt accepted")
	}
	// Position untouched by ReadAt.
	first := make([]byte, 4)
	if _, err := io.ReadFull(r, first); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, content[:4]) {
		t.Error("ReadAt moved the position")
	}
}

// TestReaderConcurrentShrink: Read and ReadAt beside a writer that deletes
// the object's second half and appends it back return a short read or
// io.EOF, never an out-of-bounds error: each takes the size and reads under
// one latch hold.
func TestReaderConcurrentShrink(t *testing.T) {
	content := pat(105, 20000)
	o := readerObject(t, content)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := o.Delete(10000, 10000); err != nil {
				done <- err
				return
			}
			if err := o.Append(content[10000:]); err != nil {
				done <- err
				return
			}
		}
	}()
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Errorf("writer: %v", err)
		}
	}()
	buf := make([]byte, 4096)
	for pass := 0; pass < 1000; pass++ {
		r := o.NewReader()
		var off int
		for {
			n, err := r.Read(buf)
			if !bytes.Equal(buf[:n], content[off:off+n]) {
				t.Fatalf("pass %d: Read at %d returned the wrong bytes", pass, off)
			}
			off += n
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("pass %d: Read at %d: %v", pass, off, err)
			}
		}
		n, err := r.ReadAt(buf, 10000)
		if err != nil && err != io.EOF {
			t.Fatalf("pass %d: ReadAt: %v", pass, err)
		}
		if !bytes.Equal(buf[:n], content[10000:10000+n]) {
			t.Fatalf("pass %d: ReadAt returned the wrong bytes", pass)
		}
	}
}

func TestReaderWriteTo(t *testing.T) {
	content := pat(104, 30000)
	o := readerObject(t, content)
	r := o.NewReader()
	if _, err := r.Seek(10000, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := r.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20000 || !bytes.Equal(buf.Bytes(), content[10000:]) {
		t.Errorf("WriteTo moved %d bytes", n)
	}
}

func TestReaderWithBufioScanner(t *testing.T) {
	// The paper's document-processing use case: line-oriented scanning.
	text := strings.Repeat("line one\nline two\nthe third line\n", 500)
	o := readerObject(t, []byte(text))
	sc := bufio.NewScanner(o.NewReader())
	lines := 0
	for sc.Scan() {
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 1500 {
		t.Errorf("scanned %d lines, want 1500", lines)
	}
}

func TestSegmentsLayout(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	o, err := s.Create("layout", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown-size appends produce the doubling layout.
	a := o.OpenAppender(0)
	total := 0
	for i := 0; i < 12; i++ {
		chunk := pat(i, 700)
		if _, err := a.Write(chunk); err != nil {
			t.Fatal(err)
		}
		total += len(chunk)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := o.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("segments = %d, want several", len(segs))
	}
	var off, bytesSum int64
	for i, sg := range segs {
		if sg.LogicalOff != off {
			t.Errorf("segment %d: logical offset %d, want %d", i, sg.LogicalOff, off)
		}
		if sg.Bytes <= 0 || sg.Pages <= 0 {
			t.Errorf("segment %d: degenerate %+v", i, sg)
		}
		off += sg.Bytes
		bytesSum += sg.Bytes
	}
	if bytesSum != int64(total) {
		t.Errorf("segments cover %d bytes, want %d", bytesSum, total)
	}
}
