package buddy

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
)

// SpaceStats counts directory activity for one buddy space.  The paper's
// performance claim (§3.3) is that every allocation and deallocation is
// served by examining the directory page only; DirAccesses counts those
// directory page fixes, Probes the segment probes of LocateFree's
// reference skip-scan, and ScanProbes those of the scans allocations make.
type SpaceStats struct {
	DirAccesses int64 // directory page fixes
	Probes      int64 // amap segment probes during LocateFree scans
	ScanProbes  int64 // amap segment probes during allocation scans
	Allocs      int64
	Frees       int64
}

// Space is one buddy segment space: a directory page plus capacity
// physically adjacent data pages on a volume.  All allocation state lives
// in the directory page image; a Space holds immutable geometry and, as
// soft state, the hint its allocation scans start from (dirState).
//
// A Space serializes its operations internally and is safe for concurrent
// use.
type Space struct {
	mu       sync.Mutex
	pool     *buffer.Pool
	dirPage  disk.PageNum
	base     disk.PageNum // volume page of space-relative page 0
	capacity int32
	maxType  int32

	st          dirState     // eos:guardedby mu
	lastMaxFree atomic.Int64 // pages; superdirectory feedback
}

// dirState is what a Space keeps beside its directory page: its activity
// counters and the allocation scan's hint.
type dirState struct {
	stats SpaceStats
	// low is the hint, in-memory soft state: low[t] is a lower bound on
	// the start of every free segment of type t.  markFree lowers it, and
	// a scan that finds the first free type-t segment raises it to that
	// segment.  The directory page stays the truth — the hint only tells
	// the skip-scan where it may start, and the scan from there finds the
	// segment a scan from page 0 finds — so it is never written anywhere,
	// and a Space built from its directory page starts it at 0: nil, every
	// hint at page 0, until the first allocation scan.
	low []int32
}

// newSpace is a Space over a directory with the given geometry.
func newSpace(pool *buffer.Pool, dirPage, base disk.PageNum, capacity, maxType int) *Space {
	return &Space{
		pool:     pool,
		dirPage:  dirPage,
		base:     base,
		capacity: int32(capacity),
		maxType:  int32(maxType),
	}
}

// FormatSpace initializes a new buddy space whose directory lives at
// dirPage and whose data pages are the capacity pages starting at base.
// capacity must fit the directory layout for the pool's page size.
func FormatSpace(pool *buffer.Pool, dirPage, base disk.PageNum, capacity int, vol disk.Device) (*Space, error) {
	maxType, maxCap, err := Layout(vol.PageSize())
	if err != nil {
		return nil, err
	}
	if capacity <= 0 || capacity > maxCap {
		return nil, fmt.Errorf("%w: capacity %d (max %d for %d-byte pages)", ErrBadRequest, capacity, maxCap, vol.PageSize())
	}
	if capacity%4 != 0 {
		// Each amap byte describes four pages; a partial final byte would
		// make the all-zero individual encoding ambiguous with the
		// continuation encoding.
		return nil, fmt.Errorf("%w: capacity %d not a multiple of 4", ErrBadRequest, capacity)
	}
	img, err := pool.FixNew(dirPage)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(dirPage)
	initDir(img, maxType, capacity, int64(base))
	if err := pool.MarkDirty(dirPage); err != nil {
		return nil, err
	}
	s := newSpace(pool, dirPage, base, capacity, maxType)
	s.lastMaxFree.Store(int64(1) << uint(maxType))
	return s, nil
}

// OpenSpace loads an existing buddy space from its directory page.
func OpenSpace(pool *buffer.Pool, dirPage disk.PageNum) (*Space, error) {
	img, err := pool.Fix(dirPage)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(dirPage)
	d := dir{img: img}
	if err := d.validate(); err != nil {
		return nil, err
	}
	s := newSpace(pool, dirPage, disk.PageNum(d.base()), d.capacity(), d.maxType())
	mf := d.maxFreeType()
	if mf < 0 {
		s.lastMaxFree.Store(0)
	} else {
		s.lastMaxFree.Store(int64(1) << uint(mf))
	}
	return s, nil
}

// Capacity reports the number of data pages the space controls.
func (s *Space) Capacity() int { return int(s.capacity) }

// Base reports the volume page of space-relative page 0.
func (s *Space) Base() disk.PageNum { return s.base }

// DirPage reports the volume page holding the directory.
func (s *Space) DirPage() disk.PageNum { return s.dirPage }

// MaxSegmentPages reports the largest segment this space can allocate.
func (s *Space) MaxSegmentPages() int { return 1 << uint(s.maxType) }

// Contains reports whether volume page p is one of this space's data
// pages.
func (s *Space) Contains(p disk.PageNum) bool {
	return p >= s.base && p < s.base+disk.PageNum(s.capacity)
}

// LastMaxFree reports the largest free segment size (in pages) observed
// at the most recent directory visit.  This is the feedback the
// superdirectory uses to correct its optimistic estimates (§3.3).
func (s *Space) LastMaxFree() int { return int(s.lastMaxFree.Load()) }

// Stats returns a snapshot of the space's directory activity counters.
func (s *Space) Stats() SpaceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.stats
}

// withDir runs f with the directory page pinned — for writing if mutate
// is set, and then the page is marked dirty.  Exactly one directory page
// access per operation.
func (s *Space) withDir(mutate bool, f func(d dir) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var img []byte
	var err error
	if mutate {
		img, err = s.pool.FixWrite(s.dirPage)
	} else {
		img, err = s.pool.Fix(s.dirPage)
	}
	if err != nil {
		return err
	}
	defer s.pool.Unpin(s.dirPage)
	s.st.stats.DirAccesses++
	d := dir{img: img, st: &s.st}
	ferr := f(d)
	if mutate && ferr == nil {
		if err := s.pool.MarkDirty(s.dirPage); err != nil {
			return err
		}
	}
	s.noteMaxFree(d)
	return ferr
}

// noteMaxFree records d's largest free segment for the superdirectory.
func (s *Space) noteMaxFree(d dir) {
	mf := d.maxFreeType()
	if mf < 0 {
		s.lastMaxFree.Store(0)
	} else {
		s.lastMaxFree.Store(int64(1) << uint(mf))
	}
}

// Alloc allocates n physically contiguous pages and returns the volume
// page number of the first.  n may be any size from one page up to the
// maximum segment size; non-power-of-two requests are carved to the
// precision of one page (§3.2).
func (s *Space) Alloc(n int) (disk.PageNum, error) {
	var start int
	err := s.withDir(true, func(d dir) error {
		var err error
		start, err = d.allocAny(n)
		return err
	})
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.st.stats.Allocs++
	s.mu.Unlock()
	return s.base + disk.PageNum(start), nil
}

// AllocUpTo allocates up to n contiguous pages, returning the first volume
// page and the count actually allocated.
func (s *Space) AllocUpTo(n int) (disk.PageNum, int, error) {
	var start, got int
	err := s.withDir(true, func(d dir) error {
		var err error
		start, got, err = d.allocUpTo(n)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	s.st.stats.Allocs++
	s.mu.Unlock()
	return s.base + disk.PageNum(start), got, nil
}

// Free returns the n pages starting at volume page p to the free space.
// Any sub-range of a previous allocation may be freed.
func (s *Space) Free(p disk.PageNum, n int) error {
	if !s.Contains(p) {
		return fmt.Errorf("%w: page %d outside space", ErrBadRequest, p)
	}
	err := s.withDir(true, func(d dir) error {
		return d.freeRange(int(p-s.base), n)
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.st.stats.Frees++
	s.mu.Unlock()
	return nil
}

// Reserve allocates the exact page range [p, p+n), which must be free.
// Recovery and fsck use it to rebuild allocation state from the set of
// pages reachable from object descriptors.
func (s *Space) Reserve(p disk.PageNum, n int) error {
	if !s.Contains(p) {
		return fmt.Errorf("%w: page %d outside space", ErrBadRequest, p)
	}
	err := s.withDir(true, func(d dir) error {
		return d.reserveRange(int(p-s.base), n)
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.st.stats.Allocs++
	s.mu.Unlock()
	return nil
}

// AllocAt allocates exactly the pages [p, p+n) when every one of them is
// free and the directory page is in the buffer pool already, and reports
// whether it did.  It reads no page, waits for none and leaves the pool's
// replacement order alone (buffer.Pool.ModifyResident), and a probe that
// fails changes nothing: a caller that knows where its run would cost no
// seek (lob's placed segments) asks here before it scans.
func (s *Space) AllocAt(p disk.PageNum, n int) bool {
	if n <= 0 || !s.Contains(p) || !s.Contains(p+disk.PageNum(n-1)) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, rel := &s.st, int(p-s.base) // the probe runs before ModifyResident returns: under s.mu
	return s.pool.ModifyResident(s.dirPage, func(img []byte) bool {
		st.stats.DirAccesses++
		d := dir{img: img, st: st}
		if at, err := d.firstAllocated(rel, n); err != nil || at >= 0 {
			return false
		}
		if d.claim(rel, n) != nil {
			return false
		}
		st.stats.Allocs++
		s.noteMaxFree(d)
		return true
	})
}

// LocateFree performs the §3.1 skip-scan for a free segment of exactly
// 2^t pages without allocating it, returning the volume page where it
// starts and the number of segment probes the scan performed.  The probe
// count is what the allocation-map experiment reports: locating a free
// segment does not require checking every byte of the map.  It is the
// reference scan: it starts at page 0 and ignores the hint allocations
// start from, and it finds the segment they would.
func (s *Space) LocateFree(t int) (disk.PageNum, int, error) {
	var page int
	var probes int
	err := s.withDir(false, func(d dir) error {
		if t < 0 || t > d.maxType() {
			return fmt.Errorf("%w: type %d", ErrBadRequest, t)
		}
		if d.count(t) == 0 {
			return ErrNoSpace
		}
		var err error
		page, probes, err = d.locateFree(t)
		return err
	})
	if err != nil {
		return 0, probes, err
	}
	s.mu.Lock()
	s.st.stats.Probes += int64(probes)
	s.mu.Unlock()
	return s.base + disk.PageNum(page), probes, nil
}

// FreePages reports the total free pages in the space.
func (s *Space) FreePages() (int, error) {
	var total int
	err := s.withDir(false, func(d dir) error {
		total = d.freePages()
		return nil
	})
	return total, err
}

// CountFree reports the number of free segments of type t.
func (s *Space) CountFree(t int) (int, error) {
	var c int
	err := s.withDir(false, func(d dir) error {
		if t < 0 || t > d.maxType() {
			return fmt.Errorf("%w: type %d", ErrBadRequest, t)
		}
		c = d.count(t)
		return nil
	})
	return c, err
}

// Check validates the space's directory invariants (used by tests and
// eosctl fsck).
func (s *Space) Check() error {
	return s.withDir(false, func(d dir) error {
		if err := d.validate(); err != nil {
			return err
		}
		return d.checkInvariants()
	})
}

// Snapshot returns a human-readable listing of every segment in the
// space, in address order, for debugging and the worked-example tests.
func (s *Space) Snapshot() ([]SegmentInfo, error) {
	var out []SegmentInfo
	err := s.withDir(false, func(d dir) error {
		for p := 0; p < d.capacity(); {
			typ, alloc, err := d.displaySegAt(p)
			if err != nil {
				return err
			}
			out = append(out, SegmentInfo{
				Start:     s.base + disk.PageNum(p),
				Pages:     1 << typ,
				Allocated: alloc,
			})
			p += 1 << typ
		}
		return nil
	})
	return out, err
}

// SegmentInfo describes one segment in a space snapshot.
type SegmentInfo struct {
	Start     disk.PageNum
	Pages     int
	Allocated bool
}

func (si SegmentInfo) String() string {
	state := "free"
	if si.Allocated {
		state = "alloc"
	}
	return fmt.Sprintf("%s %d+%d", state, si.Start, si.Pages)
}
