package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func testFileVolume(t *testing.T, pageSize int, numPages PageNum, opts FileOptions) *FileVolume {
	t.Helper()
	path := filepath.Join(t.TempDir(), "vol.eos")
	v, err := CreateFileVolume(path, pageSize, numPages, opts)
	if err != nil {
		t.Fatalf("CreateFileVolume: %v", err)
	}
	t.Cleanup(func() { _ = v.Close() })
	return v
}

func TestFileVolumeCreateValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateFileVolume(filepath.Join(dir, "a"), 0, 10, FileOptions{}); err == nil {
		t.Error("zero page size accepted")
	}
	if _, err := CreateFileVolume(filepath.Join(dir, "b"), -4, 10, FileOptions{}); err == nil {
		t.Error("negative page size accepted")
	}
	if _, err := CreateFileVolume(filepath.Join(dir, "c"), 512, 0, FileOptions{}); err == nil {
		t.Error("zero pages accepted")
	}
	if _, err := CreateFileVolume(filepath.Join(dir, "d"), 512, -1, FileOptions{}); err == nil {
		t.Error("negative pages accepted")
	}
	if _, err := CreateFileVolume(filepath.Join(dir, "e"), 500, 10, FileOptions{Direct: true}); err == nil {
		t.Error("O_DIRECT with non-512-multiple page size accepted")
	}
}

func TestFileVolumeReadWriteRoundTrip(t *testing.T) {
	v := testFileVolume(t, 128, 64, FileOptions{})
	want := make([]byte, 3*128)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := v.WritePages(5, 3, want); err != nil {
		t.Fatalf("WritePages: %v", err)
	}
	got, err := v.Read(5, 3)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("read data differs from written data")
	}
	// Unwritten pages read back as zeroes, like a fresh simulator page.
	zero, err := v.Read(60, 2)
	if err != nil {
		t.Fatalf("Read unwritten: %v", err)
	}
	if !bytes.Equal(zero, make([]byte, 2*128)) {
		t.Error("unwritten pages not zero")
	}
}

func TestFileVolumeRangeChecks(t *testing.T) {
	v := testFileVolume(t, 64, 8, FileOptions{})
	buf := make([]byte, 64)
	cases := []struct {
		name  string
		start PageNum
		n     int
	}{
		{"negative start", -1, 1},
		{"past end", 8, 1},
		{"straddles end", 7, 2},
	}
	for _, c := range cases {
		if err := v.ReadPages(c.start, c.n, make([]byte, c.n*64)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("read %s: got %v, want ErrOutOfRange", c.name, err)
		}
		if c.n == 1 {
			if err := v.WritePages(c.start, c.n, buf); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("write %s: got %v, want ErrOutOfRange", c.name, err)
			}
		}
	}
	if err := v.ReadPages(0, 2, buf); !errors.Is(err, ErrBadLength) {
		t.Error("short buffer accepted")
	}
	if err := v.WriteRun(0, [][]byte{make([]byte, 63)}); !errors.Is(err, ErrBadLength) {
		t.Error("short run page accepted")
	}
	if err := v.WriteRun(7, [][]byte{buf, buf}); !errors.Is(err, ErrOutOfRange) {
		t.Error("run straddling end accepted")
	}
}

func TestFileVolumeWriteRun(t *testing.T) {
	v := testFileVolume(t, 64, 32, FileOptions{})
	// An odd page count larger than one exercises the vectored path.
	pages := make([][]byte, 5)
	for i := range pages {
		pages[i] = bytes.Repeat([]byte{byte(0x11 * (i + 1))}, 64)
	}
	if err := v.WriteRun(3, pages); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	got, err := v.Read(3, 5)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i := range pages {
		if !bytes.Equal(got[i*64:(i+1)*64], pages[i]) {
			t.Errorf("run page %d differs", i)
		}
	}
	st := v.Stats()
	if st.RunWrites != 1 || st.CoalescedPages != 4 {
		t.Errorf("run stats = %+v, want RunWrites=1 CoalescedPages=4", st)
	}
	// Empty run is a no-op, not an error.
	if err := v.WriteRun(0, nil); err != nil {
		t.Fatalf("empty WriteRun: %v", err)
	}
}

func TestFileVolumeWriteRunLarge(t *testing.T) {
	// More pages than iovMax would fit in one pwritev batch on Linux
	// would be slow here; instead cover a run big enough to need
	// several pages and verify every byte lands at the right offset.
	const pageSize, numPages = 128, 300
	v := testFileVolume(t, pageSize, numPages, FileOptions{})
	pages := make([][]byte, 256)
	for i := range pages {
		p := make([]byte, pageSize)
		for j := range p {
			p[j] = byte(i ^ j)
		}
		pages[i] = p
	}
	if err := v.WriteRun(10, pages); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	got, err := v.Read(10, len(pages))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i := range pages {
		if !bytes.Equal(got[i*pageSize:(i+1)*pageSize], pages[i]) {
			t.Fatalf("run page %d differs", i)
		}
	}
}

func TestFileVolumeReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.eos")
	v, err := CreateFileVolume(path, 256, 16, FileOptions{})
	if err != nil {
		t.Fatalf("CreateFileVolume: %v", err)
	}
	want := bytes.Repeat([]byte{0xAB}, 256)
	if err := v.WritePages(7, 1, want); err != nil {
		t.Fatalf("WritePages: %v", err)
	}
	if err := v.ForceAll(); err != nil {
		t.Fatalf("ForceAll: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	re, err := OpenFileVolume(path, FileOptions{})
	if err != nil {
		t.Fatalf("OpenFileVolume: %v", err)
	}
	defer re.Close()
	if re.PageSize() != 256 || re.NumPages() != 16 || re.Path() != path {
		t.Fatalf("geometry = %d x %d at %s, want 16 x 256 at %s", re.NumPages(), re.PageSize(), re.Path(), path)
	}
	got, err := re.Read(7, 1)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("page lost across reopen")
	}
}

func TestFileVolumeOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img")
	// A volume image of an older release is not a file volume: different
	// magic.
	img := make([]byte, 20+8*64)
	binary.BigEndian.PutUint32(img, 0xE05F11E1)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileVolume(path, FileOptions{}); err == nil {
		t.Error("image accepted as file volume")
	}
}

func TestFileVolumeCrashShadow(t *testing.T) {
	v := testFileVolume(t, 64, 16, FileOptions{CrashShadow: true})
	forced := bytes.Repeat([]byte{0x01}, 64)
	if err := v.WritePages(3, 1, forced); err != nil {
		t.Fatalf("WritePages: %v", err)
	}
	if err := v.Force(3, 1); err != nil {
		t.Fatalf("Force: %v", err)
	}
	// Overwrite the forced page and write a fresh one; neither forced.
	if err := v.WritePages(3, 1, bytes.Repeat([]byte{0x02}, 64)); err != nil {
		t.Fatalf("WritePages: %v", err)
	}
	if err := v.WritePages(9, 1, bytes.Repeat([]byte{0x03}, 64)); err != nil {
		t.Fatalf("WritePages: %v", err)
	}
	if got := v.DirtyPages(); got != 2 {
		t.Fatalf("DirtyPages = %d, want 2", got)
	}
	if err := v.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if got := v.DirtyPages(); got != 0 {
		t.Fatalf("DirtyPages after crash = %d, want 0", got)
	}
	got, err := v.Read(3, 1)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, forced) {
		t.Error("forced page did not survive crash with its forced image")
	}
	got, err = v.Read(9, 1)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Error("unforced page survived crash")
	}
}

func TestFileVolumeForceAllExcept(t *testing.T) {
	v := testFileVolume(t, 64, 16, FileOptions{CrashShadow: true})
	for p := PageNum(0); p < 4; p++ {
		if err := v.WritePages(p, 1, bytes.Repeat([]byte{byte(p + 1)}, 64)); err != nil {
			t.Fatalf("WritePages: %v", err)
		}
	}
	skip := map[PageNum]bool{2: true}
	if err := v.ForceAllExcept(skip); err != nil {
		t.Fatalf("ForceAllExcept: %v", err)
	}
	if got := v.DirtyPages(); got != 1 {
		t.Fatalf("DirtyPages = %d, want 1 (the skipped page)", got)
	}
	if err := v.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	for p := PageNum(0); p < 4; p++ {
		got, err := v.Read(p, 1)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		want := bytes.Repeat([]byte{byte(p + 1)}, 64)
		if p == 2 {
			want = make([]byte, 64) // skipped page reverts
		}
		if !bytes.Equal(got, want) {
			t.Errorf("page %d wrong after crash", p)
		}
	}
}

func TestFileVolumeFaultInjection(t *testing.T) {
	v := testFileVolume(t, 64, 16, FileOptions{})
	boom := errors.New("boom")
	v.FailAfter(1, boom)
	buf := make([]byte, 64)
	if err := v.WritePages(0, 1, buf); err != nil {
		t.Fatalf("budgeted write failed: %v", err)
	}
	if err := v.WritePages(1, 1, buf); !errors.Is(err, boom) {
		t.Fatalf("fault not injected: %v", err)
	}
	if err := v.ReadPages(0, 1, buf); !errors.Is(err, boom) {
		t.Fatalf("read fault not injected: %v", err)
	}
	v.ClearFault()
	if err := v.ReadPages(0, 1, buf); err != nil {
		t.Fatalf("fault not cleared: %v", err)
	}
}

func TestFileVolumeTornWriteRun(t *testing.T) {
	v := testFileVolume(t, 64, 16, FileOptions{CrashShadow: true})
	boom := errors.New("torn")
	pages := make([][]byte, 4)
	for i := range pages {
		pages[i] = bytes.Repeat([]byte{byte(0x10 + i)}, 64)
	}
	v.FailWriteRun(2, boom)
	if err := v.WriteRun(4, pages); !errors.Is(err, boom) {
		t.Fatalf("torn fault not injected: %v", err)
	}
	// The torn prefix is on disk, the tail never made it.
	got, err := v.Read(4, 4)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got[:64], pages[0]) || !bytes.Equal(got[64:128], pages[1]) {
		t.Error("torn prefix missing")
	}
	if !bytes.Equal(got[128:], make([]byte, 2*64)) {
		t.Error("pages past the tear were written")
	}
	// The shadow covers the whole intended run, so Crash reverts even
	// the torn prefix — the recovery tests depend on this.
	if err := v.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	got, err = v.Read(4, 4)
	if err != nil {
		t.Fatalf("Read after crash: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 4*64)) {
		t.Error("torn prefix survived crash")
	}
	// The injection disarms after firing once.
	if err := v.WriteRun(4, pages); err != nil {
		t.Fatalf("WriteRun after tear: %v", err)
	}
}

func TestFileVolumeStatsAndSeeks(t *testing.T) {
	v := testFileVolume(t, 64, 100, FileOptions{})
	buf := make([]byte, 64)
	for i := 0; i < 10; i++ {
		if err := v.WritePages(PageNum(i), 1, buf); err != nil {
			t.Fatalf("WritePages: %v", err)
		}
	}
	seq := v.Stats()
	if seq.Seeks != 1 {
		t.Errorf("sequential writes: %d seeks, want 1", seq.Seeks)
	}
	if seq.Writes != 10 || seq.PagesWritten != 10 {
		t.Errorf("stats = %+v", seq)
	}
	v.ResetStats()
	for i := 0; i < 10; i++ {
		if err := v.WritePages(PageNum(i*7%100), 1, buf); err != nil {
			t.Fatalf("WritePages: %v", err)
		}
	}
	if got := v.Stats().Seeks; got != 10 {
		t.Errorf("random writes: %d seeks, want 10", got)
	}
	if err := v.ForceAll(); err != nil {
		t.Fatalf("ForceAll: %v", err)
	}
	if got := v.Stats().Syncs; got != 1 {
		t.Errorf("Syncs = %d, want 1", got)
	}
}

func TestFileVolumeTracer(t *testing.T) {
	v := testFileVolume(t, 64, 16, FileOptions{})
	var events []TraceEvent
	v.SetTracer(func(e TraceEvent) { events = append(events, e) })
	buf := make([]byte, 64)
	if err := v.WritePages(2, 1, buf); err != nil {
		t.Fatalf("WritePages: %v", err)
	}
	if err := v.ReadPages(2, 1, buf); err != nil {
		t.Fatalf("ReadPages: %v", err)
	}
	v.SetTracer(nil)
	if err := v.ReadPages(2, 1, buf); err != nil {
		t.Fatalf("ReadPages: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d trace events, want 2", len(events))
	}
	if !events[0].Write || events[0].Start != 2 || events[0].Pages != 1 {
		t.Errorf("write event = %+v", events[0])
	}
	if events[1].Write {
		t.Errorf("read event marked as write: %+v", events[1])
	}
}

func TestFileVolumeDirect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "direct.eos")
	v, err := CreateFileVolume(path, 4096, 32, FileOptions{Direct: true})
	if err != nil {
		// tmpfs and some CI filesystems refuse O_DIRECT; that is the
		// platform's answer, not a bug.
		t.Skipf("O_DIRECT unavailable here: %v", err)
	}
	defer v.Close()
	want := bytes.Repeat([]byte{0x5A}, 4096)
	if err := v.WritePages(3, 1, want); err != nil {
		t.Fatalf("WritePages: %v", err)
	}
	run := [][]byte{bytes.Repeat([]byte{1}, 4096), bytes.Repeat([]byte{2}, 4096)}
	if err := v.WriteRun(10, run); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if err := v.ForceAll(); err != nil {
		t.Fatalf("ForceAll: %v", err)
	}
	got, err := v.Read(3, 1)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("direct round-trip differs")
	}
	got, err = v.Read(10, 2)
	if err != nil {
		t.Fatalf("Read run: %v", err)
	}
	if !bytes.Equal(got[:4096], run[0]) || !bytes.Equal(got[4096:], run[1]) {
		t.Error("direct run round-trip differs")
	}
}

// TestFileVolumeDirectBuffers: in direct mode a buffer that starts on a
// directAlign boundary is transferred in place, one that does not goes
// through a bounce buffer; both round-trip, and an aligned read allocates
// nothing.
func TestFileVolumeDirectBuffers(t *testing.T) {
	const ps, n = 4096, 3
	v, err := CreateFileVolume(filepath.Join(t.TempDir(), "direct.eos"), ps, 32, FileOptions{Direct: true})
	if err != nil {
		t.Skipf("O_DIRECT unavailable here: %v", err)
	}
	defer v.Close()
	for i, c := range []struct {
		name string
		buf  func() []byte
	}{
		{"aligned", func() []byte { return alignedBlock(n * ps) }},
		{"unaligned", func() []byte { return alignedBlock(n*ps + 1)[1:] }},
	} {
		want := c.buf()
		for k := range want {
			want[k] = byte(k*7 + i)
		}
		start := PageNum(4 + i*n)
		if err := v.WritePages(start, n, want); err != nil {
			t.Fatalf("%s: WritePages: %v", c.name, err)
		}
		got := c.buf()
		if err := v.ReadPages(start, n, got); err != nil {
			t.Fatalf("%s: ReadPages: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: round-trip differs", c.name)
		}
	}
	buf := alignedBlock(n * ps)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := v.ReadPages(4, n, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("an aligned direct ReadPages made %.0f allocations, want 0", allocs)
	}
}

func TestAlignedBlock(t *testing.T) {
	for _, n := range []int{1, 511, 512, 4096, 65536} {
		b := alignedBlock(n)
		if len(b) != n {
			t.Fatalf("alignedBlock(%d) has len %d", n, len(b))
		}
	}
}

func TestFileVolumeCrashPreservesHeaderAndSize(t *testing.T) {
	// Crash() reverts unforced data pages from the shadow map — which
	// must never contain the header/geometry block (file offset 0; data
	// page p lives at offset (p+1)*pageSize), and must never shrink or
	// grow the presized file.  A reopen after an unclean run depends on
	// both.
	dir := t.TempDir()
	path := filepath.Join(dir, "vol.eos")
	const ps, np = 512, 64
	v, err := CreateFileVolume(path, ps, np, FileOptions{CrashShadow: true})
	if err != nil {
		t.Fatalf("CreateFileVolume: %v", err)
	}
	wantSize := int64(np+1) * ps

	buf := bytes.Repeat([]byte{0xAB}, ps)
	if err := v.WritePages(0, 1, buf); err != nil { // data page 0: first touch, shadowed
		t.Fatal(err)
	}
	if err := v.Force(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := v.WritePages(0, 1, bytes.Repeat([]byte{0xCD}, ps)); err != nil {
		t.Fatal(err)
	}
	if err := v.WritePages(np-1, 1, buf); err != nil { // last page: growth guard
		t.Fatal(err)
	}
	if err := v.Crash(); err != nil {
		t.Fatal(err)
	}

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != wantSize {
		t.Fatalf("file size after crash = %d, want %d", fi.Size(), wantSize)
	}
	got, err := v.Read(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Error("forced page did not survive the crash intact")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// The header still opens with the right geometry.
	v2, err := OpenFileVolume(path, FileOptions{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer v2.Close()
	if v2.PageSize() != ps || v2.NumPages() != np {
		t.Fatalf("geometry after crash = %dx%d, want %dx%d", v2.NumPages(), v2.PageSize(), np, ps)
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir on a real directory: %v", err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("SyncDir on a missing directory succeeded")
	}
}
