package disk

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
	"unsafe"
)

// FileVolume is the real-I/O Device backend: pages live in an ordinary
// file and every request is a positional system call — pread/pwrite at
// page offsets (os.File.ReadAt/WriteAt), a vectored pwritev for
// WriteRun on Linux (with a portable sequential-write fallback), and
// fdatasync for Force.  The accounting core is the simulator's, with a
// zero cost model: Micros records *measured* wall-clock time instead of
// modelled time, and Syncs counts the fdatasync calls the durability
// boundary actually issued.
//
// The file starts with one page-sized header block (geometry and
// flags); data page p lives at byte offset (p+1)*PageSize, so every
// transfer is page-aligned — the alignment O_DIRECT requires.
//
// Crash simulation: the recovery tests need the simulator's "unforced
// writes are lost" semantics on this backend too.  With
// FileOptions.CrashShadow enabled, the volume snapshots the pre-image
// of every page the first time it is written after a force; Crash
// writes those pre-images back, so the file reverts exactly to its
// last forced state.  The shadow costs one pread per first-touch and
// is meant for tests — benchmarks leave it off.
//
// A FileVolume is safe for concurrent use: reads and writes are
// positional (the kernel serializes overlapping extents), the shadow
// map sits under mu, and the accounting in the embedded core.  No data
// transfer happens under the core's lock, so concurrent requests
// overlap in the kernel.
type FileVolume struct {
	account

	f      *os.File
	path   string
	direct bool

	// mu guards the crash-shadow map, the torn-write injection and the
	// closed flag.  Rank 62 in the lattice: taken after any engine latch,
	// before the accounting core's lock.
	mu       sync.Mutex
	shadowOn bool
	shadow   map[PageNum][]byte // eos:guardedby mu -- pre-images of unforced pages
	closed   bool               // eos:guardedby mu
	// tornPages >= 0 arms torn-write injection: the next WriteRun
	// writes only its first tornPages pages, then fails with tornErr —
	// a partial writev, as a real crash mid-vector would leave it.
	tornPages int   // eos:guardedby mu
	tornErr   error // eos:guardedby mu
}

// FileOptions configures a FileVolume.
type FileOptions struct {
	// Direct opens the file with O_DIRECT, bypassing the OS page cache.
	// Transfers from or into a buffer that does not start on a
	// directAlign boundary then go through an aligned bounce buffer; the
	// page size must be a multiple of 512.  Not every
	// filesystem supports it — Create/Open fail cleanly where the
	// kernel refuses.  Unsupported off Linux.
	Direct bool
	// CrashShadow tracks pre-images of unforced pages so Crash() can
	// revert them (the simulator's durability semantics).  Costs one
	// pread the first time a page is written after a force; enable for
	// crash-recovery tests, leave off for benchmarks.
	CrashShadow bool
}

const (
	fileMagic   = 0xE05D15C1
	fileVersion = 1
	// directAlign is the bounce-buffer alignment used for O_DIRECT:
	// 4096 satisfies every current logical block size.
	directAlign = 4096
	// flagDirectFormatted records in the header that the volume was
	// created for direct I/O (informational).
	flagDirectFormatted = 1 << 0
)

// CreateFileVolume creates (or truncates) a file-backed volume at path
// with the given geometry.  The file is sized up front — (numPages+1)
// pages — so writes never extend it and pwritev needs no append
// handling; unwritten pages read back as zeroes through the hole.
func CreateFileVolume(path string, pageSize int, numPages PageNum, opts FileOptions) (*FileVolume, error) {
	if err := checkGeometry(pageSize, numPages); err != nil {
		return nil, err
	}
	if opts.Direct && pageSize%512 != 0 {
		return nil, fmt.Errorf("disk: O_DIRECT requires a page size that is a multiple of 512, got %d", pageSize)
	}
	f, err := openFileVolume(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, opts.Direct)
	if err != nil {
		return nil, err
	}
	v := newFileVolume(f, path, pageSize, numPages, opts)
	if err := f.Truncate((int64(numPages) + 1) * int64(pageSize)); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("disk: presize %s: %w", path, err)
	}
	hdr := v.buffer(pageSize)
	binary.BigEndian.PutUint32(hdr[0:], fileMagic)
	binary.BigEndian.PutUint32(hdr[4:], fileVersion)
	binary.BigEndian.PutUint32(hdr[8:], uint32(pageSize))
	binary.BigEndian.PutUint64(hdr[12:], uint64(numPages))
	var flags uint32
	if opts.Direct {
		flags |= flagDirectFormatted
	}
	binary.BigEndian.PutUint32(hdr[20:], flags)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("disk: write header %s: %w", path, err)
	}
	// Full sync (not fdatasync): the header and the file size are
	// metadata a reopen depends on.
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("disk: sync %s: %w", path, err)
	}
	// The file's own durability means nothing if its directory entry is
	// lost: a crash right after create would roll the directory back and
	// the volume — log file included — simply would not exist.
	if err := SyncDir(filepath.Dir(path)); err != nil {
		_ = f.Close()
		return nil, err
	}
	return v, nil
}

// SyncDir fsyncs a directory, making the entries it holds (file
// creations and renames) durable.  POSIX durability is two-level:
// fsync(file) persists content and inode, but the name→inode mapping
// lives in the directory, which needs its own fsync.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("disk: open dir %s: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("disk: sync dir %s: %w", dir, err)
	}
	return nil
}

// OpenFileVolume opens an existing file-backed volume, reading its
// geometry from the header block.
func OpenFileVolume(path string, opts FileOptions) (*FileVolume, error) {
	f, err := openFileVolume(path, os.O_RDWR, opts.Direct)
	if err != nil {
		return nil, err
	}
	// The geometry is unknown until the header is read; a 4096-byte
	// aligned probe satisfies O_DIRECT for every supported page size
	// of at least 512 bytes (smaller direct pages are rejected at
	// create time).
	probe := alignedBlock(directAlign)
	if n, err := f.ReadAt(probe, 0); err != nil && n < 24 {
		_ = f.Close()
		return nil, fmt.Errorf("disk: %s: short volume header: %w", path, err)
	}
	if binary.BigEndian.Uint32(probe[0:]) != fileMagic ||
		binary.BigEndian.Uint32(probe[4:]) != fileVersion {
		_ = f.Close()
		return nil, fmt.Errorf("disk: %s is not a file volume", path)
	}
	pageSize := int(binary.BigEndian.Uint32(probe[8:]))
	numPages := PageNum(binary.BigEndian.Uint64(probe[12:]))
	if pageSize <= 0 || numPages <= 0 {
		_ = f.Close()
		return nil, fmt.Errorf("disk: %s: corrupt geometry %d pages x %d bytes", path, numPages, pageSize)
	}
	if opts.Direct && pageSize%512 != 0 {
		_ = f.Close()
		return nil, fmt.Errorf("disk: O_DIRECT requires a page size that is a multiple of 512, got %d", pageSize)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if want := (int64(numPages) + 1) * int64(pageSize); st.Size() < want {
		_ = f.Close()
		return nil, fmt.Errorf("disk: %s truncated: %d bytes, want %d", path, st.Size(), want)
	}
	return newFileVolume(f, path, pageSize, numPages, opts), nil
}

func newFileVolume(f *os.File, path string, pageSize int, numPages PageNum, opts FileOptions) *FileVolume {
	var shadow map[PageNum][]byte
	if opts.CrashShadow {
		shadow = make(map[PageNum][]byte)
	}
	v := &FileVolume{
		account:   account{pageSize: pageSize, numPages: numPages, headPos: -1},
		f:         f,
		path:      path,
		direct:    opts.Direct,
		shadowOn:  opts.CrashShadow,
		shadow:    shadow,
		tornPages: -1,
	}
	v.readPages = v.ReadPages
	return v
}

// Path reports the backing file's path.
func (v *FileVolume) Path() string { return v.path }

// ClearFault disarms fault injection, FailWriteRun's included.
func (v *FileVolume) ClearFault() {
	v.account.ClearFault()
	v.mu.Lock()
	defer v.mu.Unlock()
	v.tornPages, v.tornErr = -1, nil
}

// FailWriteRun arms torn-write injection: the next WriteRun writes only
// its first pages pages to the file, then fails with err — the state a
// crash mid-pwritev leaves behind.  Single-page writes are unaffected.
// Disarmed by ClearFault or by firing once.
func (v *FileVolume) FailWriteRun(pages int, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.tornPages, v.tornErr = pages, err
}

// off returns the byte offset of page p (the header occupies the first
// page-sized block).
func (v *FileVolume) off(p PageNum) int64 {
	return (int64(p) + 1) * int64(v.pageSize)
}

// takeTorn consumes an armed torn-write injection, if any.
func (v *FileVolume) takeTorn() (int, error, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.tornPages < 0 {
		return 0, nil, false
	}
	k, err := v.tornPages, v.tornErr
	v.tornPages, v.tornErr = -1, nil
	return k, err, true
}

// buffer returns a transfer buffer of n bytes: page-cache mode uses an
// ordinary allocation, direct mode an alignedBlock.
func (v *FileVolume) buffer(n int) []byte {
	if v.direct {
		return alignedBlock(n)
	}
	return make([]byte, n)
}

// alignedBlock allocates n bytes whose base address is directAlign-
// aligned, as O_DIRECT transfers require.
func alignedBlock(n int) []byte {
	raw := make([]byte, n+directAlign)
	off := int(directAlign-uintptr(unsafe.Pointer(&raw[0]))%directAlign) % directAlign
	return raw[off : off+n : off+n]
}

// aligned reports whether buf starts on a directAlign boundary, as an
// O_DIRECT transfer needs; Go's large allocations usually do, and a
// transfer through such a buffer needs no bounce.  The length is whole
// pages, which direct mode keeps to multiples of 512.
func aligned(buf []byte) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(buf)))%directAlign == 0
}

// ReadPages reads n physically contiguous pages starting at page start
// into buf (exactly n*PageSize bytes) with one pread.
func (v *FileVolume) ReadPages(start PageNum, n int, buf []byte) error {
	if err := v.check(start, n, buf); err != nil {
		return err
	}
	if _, err := v.begin(start, n, false, false); err != nil || n == 0 {
		return err
	}
	defer v.measured(time.Now(), false)
	if v.direct && !aligned(buf) {
		bounce := alignedBlock(len(buf))
		if _, err := v.f.ReadAt(bounce, v.off(start)); err != nil {
			return fmt.Errorf("disk: pread %s: %w", v.path, err)
		}
		copy(buf, bounce)
		return nil
	}
	if _, err := v.f.ReadAt(buf, v.off(start)); err != nil {
		return fmt.Errorf("disk: pread %s: %w", v.path, err)
	}
	return nil
}

// shadowSave snapshots the pre-image of every not-yet-shadowed page in
// [start, start+n) so Crash can revert the write about to happen.  The
// pread bypasses accounting: it is simulation bookkeeping, not workload
// I/O.
func (v *FileVolume) shadowSave(start PageNum, n int) error {
	if !v.shadowOn {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := 0; i < n; i++ {
		p := start + PageNum(i)
		if _, ok := v.shadow[p]; ok {
			continue
		}
		pre := v.buffer(v.pageSize)
		if _, err := v.f.ReadAt(pre, v.off(p)); err != nil {
			return fmt.Errorf("disk: shadow pread %s: %w", v.path, err)
		}
		v.shadow[p] = pre
	}
	return nil
}

// WritePages writes n physically contiguous pages starting at page
// start with one pwrite.  The write is volatile until a Force covers
// it.
func (v *FileVolume) WritePages(start PageNum, n int, buf []byte) error {
	if err := v.check(start, n, buf); err != nil {
		return err
	}
	if _, err := v.begin(start, n, true, false); err != nil || n == 0 {
		return err
	}
	if err := v.shadowSave(start, n); err != nil {
		return err
	}
	defer v.measured(time.Now(), false)
	if v.direct && !aligned(buf) {
		bounce := alignedBlock(len(buf))
		copy(bounce, buf)
		buf = bounce
	}
	if _, err := v.f.WriteAt(buf, v.off(start)); err != nil {
		return fmt.Errorf("disk: pwrite %s: %w", v.path, err)
	}
	return nil
}

// WriteRun gather-writes len(pages) physically contiguous pages
// starting at page start in a single vectored request (pwritev on
// Linux; a sequential per-page fallback elsewhere).  Each element must
// be exactly one page.
func (v *FileVolume) WriteRun(start PageNum, pages [][]byte) error {
	n := len(pages)
	if err := v.checkRun(start, pages); err != nil {
		return err
	}
	if _, err := v.begin(start, n, true, true); err != nil || n == 0 {
		return err
	}
	if err := v.shadowSave(start, n); err != nil {
		return err
	}
	if k, terr, armed := v.takeTorn(); armed {
		if k > n {
			k = n
		}
		if k > 0 {
			if err := v.writeRunPages(start, pages[:k]); err != nil {
				return err
			}
		}
		return terr
	}
	defer v.measured(time.Now(), false)
	return v.writeRunPages(start, pages)
}

// writeRunPages performs the physical run write.
func (v *FileVolume) writeRunPages(start PageNum, pages [][]byte) error {
	if v.direct {
		// Direct mode coalesces the run into one aligned buffer and a
		// single pwrite: the copy is the price of alignment, and a
		// lone contiguous transfer is what O_DIRECT rewards.
		bounce := alignedBlock(len(pages) * v.pageSize)
		for i, p := range pages {
			copy(bounce[i*v.pageSize:], p)
		}
		if _, err := v.f.WriteAt(bounce, v.off(start)); err != nil {
			return fmt.Errorf("disk: pwrite %s: %w", v.path, err)
		}
		return nil
	}
	if err := pwritevFull(v.f, pages, v.off(start)); err != nil {
		return fmt.Errorf("disk: pwritev %s: %w", v.path, err)
	}
	return nil
}

// Force makes the current contents of n pages starting at start
// durable via fdatasync.  fdatasync has no byte-range form, so the
// whole file's data is synced; the range still bounds which shadow
// pre-images are dropped, preserving the simulator's crash semantics
// for the pages outside it.
func (v *FileVolume) Force(start PageNum, n int) error {
	if err := v.checkRange(start, n); err != nil {
		return err
	}
	v.mu.Lock()
	if v.shadowOn {
		for i := 0; i < n; i++ {
			delete(v.shadow, start+PageNum(i))
		}
	}
	v.mu.Unlock()
	return v.sync()
}

// ForceAll makes every written page durable.
func (v *FileVolume) ForceAll() error {
	v.mu.Lock()
	if v.shadowOn {
		v.shadow = make(map[PageNum][]byte)
	}
	v.mu.Unlock()
	return v.sync()
}

// ForceAllExcept makes every written page durable except those in
// skip, which stay volatile.  Physically fdatasync makes everything
// durable — "volatile" here means the skipped pages' shadow pre-images
// are retained, so a simulated Crash still reverts them.
func (v *FileVolume) ForceAllExcept(skip map[PageNum]bool) error {
	v.mu.Lock()
	if v.shadowOn {
		for p := range v.shadow {
			if !skip[p] {
				delete(v.shadow, p)
			}
		}
	}
	v.mu.Unlock()
	return v.sync()
}

// sync issues the backend's durability barrier (fdatasync on Linux)
// and counts it.
func (v *FileVolume) sync() error {
	began := time.Now()
	err := fdatasyncFile(v.f)
	v.measured(began, true)
	if err != nil {
		return fmt.Errorf("disk: fdatasync %s: %w", v.path, err)
	}
	return nil
}

// DirtyPages reports how many written pages have not been forced.
// Zero when crash shadowing is disabled (nothing is tracked).
func (v *FileVolume) DirtyPages() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.shadow)
}

// Crash simulates a power failure: every unforced page reverts to its
// shadowed pre-image and the statistics reset.  Requires CrashShadow;
// without it the file's current contents simply stand (a crash between
// syncs on a real device may preserve them — or not).
func (v *FileVolume) Crash() error {
	v.mu.Lock()
	for p, pre := range v.shadow {
		if _, err := v.f.WriteAt(pre, v.off(p)); err != nil {
			v.mu.Unlock()
			return fmt.Errorf("disk: crash revert %s: %w", v.path, err)
		}
	}
	if v.shadowOn {
		v.shadow = make(map[PageNum][]byte)
	}
	v.mu.Unlock()
	if err := v.sync(); err != nil {
		return err
	}
	v.ResetStats()
	return nil
}

// Close releases the file handle.  Idempotent.
func (v *FileVolume) Close() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil
	}
	v.closed = true
	v.mu.Unlock()
	return v.f.Close()
}
