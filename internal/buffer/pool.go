// Package buffer implements a page buffer pool over a disk volume.
//
// The EOS design routes small, hot pages — buddy space directories and
// large-object index nodes — through a conventional pin/unpin buffer pool,
// while leaf segments bypass the pool entirely and are transferred with
// direct multi-page I/O (the whole point of keeping a segment physically
// contiguous is to move it in one request).  The pool implements LRU
// replacement among unpinned frames and write-back of dirty frames.
//
// One mutex guards the frame map and the LRU list, so eviction order is a
// single global LRU and the experiment harness's seek and page counts
// repeat run to run.  Hit/miss/eviction statistics are atomic and never
// take the lock to read.
package buffer

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

// Common pool errors.
var (
	// ErrNoFrames is returned when every frame stayed pinned for the whole
	// pin-wait window and a new page is requested.
	ErrNoFrames = errors.New("buffer: all frames pinned")
	// ErrNotPinned is returned when Unpin is called on a page that has no
	// pinned frame.
	ErrNotPinned = errors.New("buffer: page not pinned")
)

// Stats reports pool effectiveness.
type Stats struct {
	Hits       int64 // fix requests satisfied from memory
	Misses     int64 // fix requests that read from disk
	Evictions  int64 // frames recycled
	Flushes    int64 // dirty frames written back
	FlushSkips int64 // flush requests that issued no write: frame already clean, or write-pinned
}

// HitRate returns the fraction of fix requests satisfied from memory
// (1.0 for an untouched pool).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 1
	}
	return float64(s.Hits) / float64(total)
}

// frame is one buffer slot.  Every field transition happens under the
// pool's mutex; the data *contents* are additionally mutated by write-pin
// holders, which is safe because flushers skip write-pinned frames and pin
// transitions are also under the pool mutex.
type frame struct {
	page disk.PageNum // eos:guardedby Pool.mu
	data []byte
	pins int // eos:guardedby Pool.mu
	// writing marks a frame some pin holder may be mutating: set by FixNew
	// and FixWrite, cleared when the last pin goes.
	writing bool // eos:guardedby Pool.mu
	// dirty marks the frame as needing write-back before eviction.
	dirty bool // eos:guardedby Pool.mu
	// doomed marks a frame Discarded while pinned: its content is
	// abandoned — never written back — but remains readable to the pin
	// holders; the frame leaves the pool at the last Unpin.
	doomed bool // eos:guardedby Pool.mu
	// prev and next link the frame into the pool's LRU ring; next is
	// non-nil iff pins == 0.  The frame is its own list element, so an
	// unpin allocates nothing.
	prev, next *frame // eos:guardedby Pool.mu
}

// Pool is a fixed-capacity page cache.  It is safe for concurrent use.
type Pool struct {
	mu       sync.Mutex
	vol      disk.Device
	capacity int
	pinWait  time.Duration
	frames   map[disk.PageNum]*frame // eos:guardedby mu
	// lru heads the ring of unpinned frames: lru.next is the most recently
	// unpinned, lru.prev the least.
	lru *frame // eos:guardedby mu

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	flushes    atomic.Int64
	flushSkips atomic.Int64
}

// defaultPinWait bounds how long a Fix waits for a pinned frame to be
// released before giving up with ErrNoFrames.
const defaultPinWait = 250 * time.Millisecond

// NewPool creates a pool of capacity frames over vol.
func NewPool(vol disk.Device, capacity int) (*Pool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("buffer: invalid capacity %d", capacity)
	}
	lru := &frame{}
	lru.prev, lru.next = lru, lru
	return &Pool{
		vol:      vol,
		capacity: capacity,
		pinWait:  defaultPinWait,
		frames:   make(map[disk.PageNum]*frame, capacity),
		lru:      lru,
	}, nil
}

// MustNewPool is NewPool that panics on error.
func MustNewPool(vol disk.Device, capacity int) *Pool {
	p, err := NewPool(vol, capacity)
	if err != nil {
		panic(err)
	}
	return p
}

// SetPinWait bounds how long a Fix blocks waiting for a transiently
// pinned frame before returning ErrNoFrames (default 250ms; 0 fails
// immediately, restoring the historical behavior).
func (p *Pool) SetPinWait(d time.Duration) { p.pinWait = d }

// Stats returns a snapshot of the pool statistics without taking the
// pool's lock.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		Evictions:  p.evictions.Load(),
		Flushes:    p.flushes.Load(),
		FlushSkips: p.flushSkips.Load(),
	}
}

// Fix pins page pg for reading and returns its in-memory image.  The
// slice remains valid until Unpin; the caller must not modify it (FixWrite
// pins for that).  A flush may write a frame that only read pins hold.
func (p *Pool) Fix(pg disk.PageNum) ([]byte, error) { return p.fix(pg, false) }

// FixWrite is Fix for a caller that may modify the image: it must mark the
// page dirty before unpinning.  No flush writes the frame until its last
// pin is gone, so no write carries a half-made change.
func (p *Pool) FixWrite(pg disk.PageNum) ([]byte, error) { return p.fix(pg, true) }

func (p *Pool) fix(pg disk.PageNum, write bool) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, hit, err := p.frameLocked(pg)
	if !hit {
		p.misses.Add(1)
		if err != nil {
			return nil, err
		}
		if err := p.vol.ReadPages(pg, 1, f.data); err != nil {
			return nil, err
		}
		f.page = pg
		f.dirty = false
		p.frames[pg] = f
	}
	f.pins++
	f.writing = f.writing || write
	return f.data, nil
}

// ModifyResident runs f on the image of page pg in place, under the pool's
// lock, when pg occupies a frame nobody has pinned, and marks the frame
// dirty when f reports that it changed the image.  It reads nothing, evicts
// nothing, waits for nothing, counts nothing and leaves the replacement
// order as it was, so a caller may look at a page on the chance that it is
// resident without disturbing the pool; it reports false when pg is not
// resident and unpinned, or f changed nothing.  f runs under the pool's
// lock, which is what keeps the frame from being evicted or flushed
// without a pin (and a pin would move it in the replacement order): it
// must be short and must not call the pool.
func (p *Pool) ModifyResident(pg disk.PageNum, f func(img []byte) bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	fr, ok := p.frames[pg]
	if !ok || fr.pins > 0 || !f(fr.data) {
		return false
	}
	fr.dirty = true
	return true
}

// FixNew pins page pg for writing without reading it from disk, returning
// a zeroed image.  Used when a page is about to be fully initialized
// (fresh index nodes, fresh directory pages); it saves the pointless read.
// A resident page counts as a hit and is zeroed in place.
func (p *Pool) FixNew(pg disk.PageNum) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, hit, err := p.frameLocked(pg)
	if err != nil {
		return nil, err
	}
	if !hit {
		f.page = pg
		p.frames[pg] = f
	}
	f.pins++
	clear(f.data)
	f.dirty = true
	f.writing = true
	f.doomed = false // the page is being reinitialized for reuse
	return f.data, nil
}

// frameLocked finds pg's frame.  A resident page is a hit: its frame
// leaves the LRU list, and the second result is true.  Otherwise it
// returns a free frame for the caller to fill and enter, evicting the LRU
// unpinned frame if the pool is full.  When every frame is transiently pinned it releases
// the lock and waits (bounded by the pool pin-wait) for an unpin — or for
// another fix to make pg resident — before giving up with ErrNoFrames.
//
// eos:requires p.mu
func (p *Pool) frameLocked(pg disk.PageNum) (*frame, bool, error) {
	var deadline time.Time
	for {
		if f, ok := p.frames[pg]; ok {
			p.hits.Add(1)
			unlink(f)
			return f, true, nil
		}
		if len(p.frames) < p.capacity {
			return &frame{data: make([]byte, p.vol.PageSize())}, false, nil
		}
		if victim := p.lru.prev; victim != p.lru {
			unlink(victim)
			if victim.dirty {
				if err := p.vol.WritePages(victim.page, 1, victim.data); err != nil {
					return nil, false, err
				}
				p.flushes.Add(1)
			}
			delete(p.frames, victim.page)
			p.evictions.Add(1)
			return victim, false, nil
		}
		// All frames pinned.  Wait briefly for a concurrent Unpin rather
		// than failing outright — under parallel load every frame can be
		// pinned for a few microseconds at a time.
		now := time.Now()
		if deadline.IsZero() {
			if p.pinWait <= 0 {
				return nil, false, ErrNoFrames
			}
			deadline = now.Add(p.pinWait)
		} else if now.After(deadline) {
			return nil, false, ErrNoFrames
		}
		p.mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		//eoslint:ignore pairs -- reacquired for the caller: frameLocked returns holding p.mu by contract
		p.mu.Lock()
	}
}

// MarkDirty records that the pinned image of pg has been modified and must
// be written back before eviction.
func (p *Pool) MarkDirty(pg disk.PageNum) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[pg]
	if !ok || f.pins == 0 {
		return fmt.Errorf("%w: page %d", ErrNotPinned, pg)
	}
	f.dirty = true
	return nil
}

// Unpin releases one pin on pg.  When the pin count reaches zero the frame
// becomes eligible for eviction.
func (p *Pool) Unpin(pg disk.PageNum) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[pg]
	if !ok || f.pins == 0 {
		return fmt.Errorf("%w: page %d", ErrNotPinned, pg)
	}
	f.pins--
	if f.pins == 0 {
		f.writing = false
		if f.doomed {
			delete(p.frames, pg)
			return nil
		}
		f.prev, f.next = p.lru, p.lru.next
		p.lru.next.prev, p.lru.next = f, f
	}
	return nil
}

// unlink takes f off the LRU ring if it is on it.  The caller holds the
// pool's mu.
func unlink(f *frame) {
	if f.next != nil {
		f.prev.next, f.next.prev = f.next, f.prev
		f.prev, f.next = nil, nil
	}
}

// FlushAll writes every dirty frame back to disk, except those under a
// write pin, in ascending page order with physically adjacent pages
// coalesced into a single vectored WriteRun, so the disk sees a few
// sequential sweeps instead of one random seek per page.
//
// The pool mutex is held for the duration: concurrent fixes wait out the
// flush, and so does a second FlushAll.  That is what makes reading the
// frame images safe — a frame's image is only ever mutated under a write
// pin, write-pinned frames are skipped, and pin transitions happen under
// this same mutex.  Dirty bits are cleared only after their run's write
// succeeds, so a failed write-back leaves the frame dirty for the next
// attempt.
//
// A frame pinned only by readers is written: a snapshot reader or a
// transaction's read may hold a page a committed root names, and a
// checkpoint that logs that root must find the page on the device.  A
// write-pinned dirty frame is skipped (counted in Stats.FlushSkips): its
// holder may be mutating the image.  No committed root names such a page:
// index nodes are written only to pages fresh to their transaction, and
// the buddy directories are soft state that every open rebuilds.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var dirty []*frame
	for _, f := range p.frames {
		switch {
		case !f.dirty:
		case f.writing:
			p.flushSkips.Add(1)
		default:
			dirty = append(dirty, f)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].page < dirty[j].page })
	for i := 0; i < len(dirty); {
		j := i + 1
		for j < len(dirty) && dirty[j].page == dirty[j-1].page+1 {
			j++
		}
		run := make([][]byte, 0, j-i)
		for _, f := range dirty[i:j] {
			run = append(run, f.data)
		}
		if err := p.vol.WriteRun(dirty[i].page, run); err != nil {
			return err
		}
		for _, f := range dirty[i:j] {
			f.dirty = false
			p.flushes.Add(1)
		}
		i = j
	}
	return nil
}

// Discard drops pg from the pool without writing it back, regardless of
// dirty state.  Used when a shadowed page is abandoned — in the epoch
// reclamation path, at the moment a retired page actually returns to
// the free space map.  A frame still pinned (a lock-free snapshot
// reader mid-fix) is not yanked out from under its holders: it is
// marked doomed — still readable, never flushed, not reusable — and
// leaves the pool at the last Unpin.
func (p *Pool) Discard(pg disk.PageNum) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[pg]
	if !ok {
		return
	}
	if f.pins > 0 {
		f.doomed = true
		f.dirty = false
		return
	}
	unlink(f)
	delete(p.frames, pg)
}

// DiscardAll drops every frame without writing anything back.  Used to
// model volatile state loss when simulating a crash.
func (p *Pool) DiscardAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.frames = make(map[disk.PageNum]*frame, p.capacity)
	p.lru.prev, p.lru.next = p.lru, p.lru
}

// PinnedFrames reports how many frames are currently pinned — zero at
// any quiescent point; tests use it to detect pin leaks.
func (p *Pool) PinnedFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

// Resident reports whether pg currently occupies a frame.
func (p *Pool) Resident(pg disk.PageNum) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.frames[pg]
	return ok
}
