// Package buffer implements a page buffer pool over a disk volume.
//
// The EOS design routes small, hot pages — buddy space directories and
// large-object index nodes — through a conventional pin/unpin buffer pool,
// while leaf segments bypass the pool entirely and are transferred with
// direct multi-page I/O (the whole point of keeping a segment physically
// contiguous is to move it in one request).  The pool implements LRU
// replacement among unpinned frames and write-back of dirty frames.
//
// The pool is lock-sharded: pages hash to one of N sub-pools, each with
// its own mutex, frame map, and LRU list, so concurrent readers fixing
// index pages of distinct objects do not contend.  Hit/miss/eviction
// statistics are atomic and never take a shard lock to read.  A
// single-shard pool (NewPoolShards with shards = 1) preserves the exact
// global-LRU eviction order of the original design, which the
// deterministic experiment harness depends on.
package buffer

import (
	"container/list"
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

// Add returns the sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:       s.Hits + o.Hits,
		Misses:     s.Misses + o.Misses,
		Evictions:  s.Evictions + o.Evictions,
		Flushes:    s.Flushes + o.Flushes,
		FlushSkips: s.FlushSkips + o.FlushSkips,
	}
}

// frame is one buffer slot.  Frames are owned by exactly one shard and
// every field transition happens under that shard's mutex; the data
// *contents* are additionally mutated by write-pin holders, which is safe
// because flushers skip write-pinned frames and pin transitions are also
// under the shard mutex.
type frame struct {
	page disk.PageNum // eos:guardedby shard.mu
	data []byte
	pins int // eos:guardedby shard.mu
	// writing marks a frame some pin holder may be mutating: set by FixNew
	// and FixWrite, cleared when the last pin goes.
	writing bool // eos:guardedby shard.mu
	// dirty marks the frame as needing write-back before eviction.
	dirty bool // eos:guardedby shard.mu
	// doomed marks a frame Discarded while pinned: its content is
	// abandoned — never written back — but remains readable to the pin
	// holders; the frame leaves the pool at the last Unpin.
	doomed bool // eos:guardedby shard.mu
	// lruElem is non-nil iff pins == 0.
	lruElem *list.Element // eos:guardedby shard.mu
}

// shard is one independently locked sub-pool.
type shard struct {
	mu       sync.Mutex
	capacity int
	frames   map[disk.PageNum]*frame // eos:guardedby mu
	lru      *list.List              // eos:guardedby mu -- of disk.PageNum, front = most recently unpinned

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	flushes    atomic.Int64
	flushSkips atomic.Int64
}

// Pool is a fixed-capacity page cache.  It is safe for concurrent use.
type Pool struct {
	// flushMu serializes whole-pool write-back (FlushAll), so two
	// checkpoints never interleave their per-shard flusher goroutines.
	// Acquired before any shard mutex (rank 38 in the lattice).
	flushMu sync.Mutex

	vol      disk.Device
	capacity int
	shards   []*shard
	shift    uint // 64 - log2(len(shards)); selects high hash bits
	pinWait  time.Duration
}

// defaultPinWait bounds how long a Fix waits for a pinned frame to be
// released before giving up with ErrNoFrames.
const defaultPinWait = 250 * time.Millisecond

// autoShards picks the shard count for NewPool: pools too small to give
// each shard a useful number of frames stay single-sharded (which also
// keeps the historical eviction order for the small pools the tests and
// baseline systems build); larger pools get up to 8 shards.
func autoShards(capacity int) int {
	if capacity < 128 {
		return 1
	}
	n := 1
	for n < 8 && capacity/(n*2) >= 32 {
		n *= 2
	}
	return n
}

// NewPool creates a pool of capacity frames over vol, sharded
// automatically by capacity.
func NewPool(vol disk.Device, capacity int) (*Pool, error) {
	return NewPoolShards(vol, capacity, 0)
}

// NewPoolShards creates a pool of capacity frames split over the given
// number of lock shards (rounded down to a power of two).  shards == 0
// selects automatically; shards == 1 yields the original single-lock,
// global-LRU pool, whose deterministic eviction order the experiment
// harness relies on.
func NewPoolShards(vol disk.Device, capacity, shards int) (*Pool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("buffer: invalid capacity %d", capacity)
	}
	if shards < 0 {
		return nil, fmt.Errorf("buffer: invalid shard count %d", shards)
	}
	if shards == 0 {
		shards = autoShards(capacity)
	}
	// Round down to a power of two so shard selection is a mask.
	n := 1
	for n*2 <= shards {
		n *= 2
	}
	if n > capacity {
		n = 1
	}
	p := &Pool{vol: vol, capacity: capacity, pinWait: defaultPinWait}
	shift := uint(64)
	for s := n; s > 1; s >>= 1 {
		shift--
	}
	p.shift = shift
	for i := 0; i < n; i++ {
		cap := capacity / n
		if i < capacity%n {
			cap++
		}
		p.shards = append(p.shards, &shard{
			capacity: cap,
			frames:   make(map[disk.PageNum]*frame, cap),
			lru:      list.New(),
		})
	}
	return p, nil
}

// MustNewPool is NewPool that panics on error.
func MustNewPool(vol disk.Device, capacity int) *Pool {
	p, err := NewPool(vol, capacity)
	if err != nil {
		panic(err)
	}
	return p
}

// Shards reports the number of lock shards.
func (p *Pool) Shards() int { return len(p.shards) }

// Capacity reports the number of frames.
func (p *Pool) Capacity() int { return p.capacity }

// SetPinWait bounds how long a Fix blocks waiting for a transiently
// pinned frame before returning ErrNoFrames (default 250ms; 0 fails
// immediately, restoring the historical behavior).
func (p *Pool) SetPinWait(d time.Duration) { p.pinWait = d }

// shardFor maps a page to its shard.  The multiplicative hash spreads
// the sequential page numbers of adjacent index nodes across shards.
func (p *Pool) shardFor(pg disk.PageNum) *shard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	h := uint64(pg) * 0x9E3779B97F4A7C15
	return p.shards[h>>p.shift]
}

// Stats returns a snapshot of the pool statistics, summed over shards,
// without taking any shard lock.
func (p *Pool) Stats() Stats {
	var s Stats
	for _, sh := range p.shards {
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Evictions += sh.evictions.Load()
		s.Flushes += sh.flushes.Load()
		s.FlushSkips += sh.flushSkips.Load()
	}
	return s
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
	sh := p.shardFor(pg)
	sh.mu.Lock()
	if f, ok := sh.frames[pg]; ok {
		sh.hits.Add(1)
		if f.lruElem != nil {
			sh.lru.Remove(f.lruElem)
			f.lruElem = nil
		}
		f.pins++
		f.writing = f.writing || write
		data := f.data
		sh.mu.Unlock()
		return data, nil
	}

	sh.misses.Add(1)
	f, err := p.allocFrameLocked(sh, pg)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	if f == nil {
		// A waiting retry found the page resident (another goroutine
		// fixed it while we slept): take the hit path, minus the
		// double-count — the miss above already recorded our intent to
		// read, but no disk read happened, so convert it back.
		sh.misses.Add(-1)
		sh.hits.Add(1)
		rf := sh.frames[pg]
		if rf.lruElem != nil {
			sh.lru.Remove(rf.lruElem)
			rf.lruElem = nil
		}
		rf.pins++
		rf.writing = rf.writing || write
		data := rf.data
		sh.mu.Unlock()
		return data, nil
	}
	if err := p.vol.ReadPages(pg, 1, f.data); err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	f.page = pg
	f.pins = 1
	f.writing = write
	f.dirty = false
	sh.frames[pg] = f
	data := f.data
	sh.mu.Unlock()
	return data, nil
}

// FixNew pins page pg for writing without reading it from disk, returning
// a zeroed image.  Used when a page is about to be fully initialized
// (fresh index nodes, fresh directory pages); it saves the pointless read.
func (p *Pool) FixNew(pg disk.PageNum) ([]byte, error) {
	sh := p.shardFor(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	if f, ok := sh.frames[pg]; ok {
		// Already resident: treat as an ordinary hit but zero the image,
		// matching the "fresh page" contract.
		sh.hits.Add(1)
		if f.lruElem != nil {
			sh.lru.Remove(f.lruElem)
			f.lruElem = nil
		}
		f.pins++
		for i := range f.data {
			f.data[i] = 0
		}
		f.dirty = true
		f.writing = true
		f.doomed = false // the page is being reinitialized for reuse
		return f.data, nil
	}
	f, err := p.allocFrameLocked(sh, pg)
	if err != nil {
		return nil, err
	}
	if f == nil {
		// The page became resident during a pin wait: zero it in place.
		rf := sh.frames[pg]
		sh.hits.Add(1)
		if rf.lruElem != nil {
			sh.lru.Remove(rf.lruElem)
			rf.lruElem = nil
		}
		rf.pins++
		for i := range rf.data {
			rf.data[i] = 0
		}
		rf.dirty = true
		rf.writing = true
		rf.doomed = false
		return rf.data, nil
	}
	for i := range f.data {
		f.data[i] = 0
	}
	f.page = pg
	f.pins = 1
	f.dirty = true
	f.writing = true
	sh.frames[pg] = f
	return f.data, nil
}

// allocFrameLocked returns a free frame, evicting the shard's LRU
// unpinned frame if the shard is full.  When every frame is transiently
// pinned it releases the lock and waits (bounded by the pool pin-wait)
// for an unpin before giving up with ErrNoFrames.  Caller holds sh.mu.
//
// A nil, nil return means the wanted page became resident while waiting;
// the caller must take its hit path instead.
//
// eos:requires sh.mu
func (p *Pool) allocFrameLocked(sh *shard, want disk.PageNum) (*frame, error) {
	var deadline time.Time
	for {
		if len(sh.frames) < sh.capacity {
			return &frame{data: make([]byte, p.vol.PageSize())}, nil
		}
		if back := sh.lru.Back(); back != nil {
			victimPage := back.Value.(disk.PageNum)
			victim := sh.frames[victimPage]
			sh.lru.Remove(back)
			victim.lruElem = nil
			if victim.dirty {
				if err := p.vol.WritePages(victim.page, 1, victim.data); err != nil {
					return nil, err
				}
				sh.flushes.Add(1)
			}
			delete(sh.frames, victimPage)
			sh.evictions.Add(1)
			return victim, nil
		}
		// All frames pinned.  Wait briefly for a concurrent Unpin rather
		// than failing outright — under parallel load every frame can be
		// pinned for a few microseconds at a time.
		now := time.Now()
		if deadline.IsZero() {
			if p.pinWait <= 0 {
				return nil, ErrNoFrames
			}
			deadline = now.Add(p.pinWait)
		} else if now.After(deadline) {
			return nil, ErrNoFrames
		}
		sh.mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		//eoslint:ignore pairs -- reacquired for the caller: allocFrameLocked returns holding sh.mu by contract
		sh.mu.Lock()
		if _, ok := sh.frames[want]; ok {
			return nil, nil
		}
	}
}

// MarkDirty records that the pinned image of pg has been modified and must
// be written back before eviction.
func (p *Pool) MarkDirty(pg disk.PageNum) error {
	sh := p.shardFor(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[pg]
	if !ok || f.pins == 0 {
		return fmt.Errorf("%w: page %d", ErrNotPinned, pg)
	}
	f.dirty = true
	return nil
}

// Unpin releases one pin on pg.  When the pin count reaches zero the frame
// becomes eligible for eviction.
func (p *Pool) Unpin(pg disk.PageNum) error {
	sh := p.shardFor(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[pg]
	if !ok || f.pins == 0 {
		return fmt.Errorf("%w: page %d", ErrNotPinned, pg)
	}
	f.pins--
	if f.pins == 0 {
		f.writing = false
		if f.doomed {
			delete(sh.frames, pg)
			return nil
		}
		f.lruElem = sh.lru.PushFront(f.page)
	}
	return nil
}

// FlushAll writes every dirty frame back to disk, except those under a
// write pin.  Shards flush in parallel — one goroutine per shard, each
// holding only its own shard mutex — and within a shard the dirty pages
// are written in ascending page order with physically adjacent pages
// coalesced into a single vectored WriteRun, so the simulated disk sees a
// few sequential sweeps instead of one random seek per page.
//
// A frame pinned only by readers is written: a snapshot reader or a
// transaction's read may hold a page a committed root names, and a
// checkpoint that logs that root must find the page on the device.  A
// write-pinned dirty frame is skipped (counted in Stats.FlushSkips): its
// holder may be mutating the image.  No committed root names such a page:
// index nodes are written only to pages fresh to their transaction, and
// the buddy directories are soft state that every open rebuilds.
func (p *Pool) FlushAll() error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	if len(p.shards) == 1 {
		return p.flushShard(p.shards[0])
	}
	errs := make([]error, len(p.shards))
	var wg sync.WaitGroup
	for i, sh := range p.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			errs[i] = p.flushShard(sh)
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// flushShard writes back every dirty frame of one shard that no write pin
// holds, in page order, coalescing adjacent pages into vectored runs.  The
// shard mutex is held for the duration: concurrent fixes of this shard's
// pages wait out the flush, which is what makes reading the frame images
// safe — a frame's image is only ever mutated under a write pin,
// write-pinned frames are skipped, and pin transitions happen under this
// same mutex.  Dirty bits are cleared only after their run's write
// succeeds, so a failed write-back leaves the frame dirty for the next
// attempt.
func (p *Pool) flushShard(sh *shard) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var dirty []*frame
	for _, f := range sh.frames {
		switch {
		case !f.dirty:
		case f.writing:
			sh.flushSkips.Add(1)
		default:
			dirty = append(dirty, f)
		}
	}
	if len(dirty) == 0 {
		return nil
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
			sh.flushes.Add(1)
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
	sh := p.shardFor(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[pg]
	if !ok {
		return
	}
	if f.pins > 0 {
		f.doomed = true
		f.dirty = false
		return
	}
	if f.lruElem != nil {
		sh.lru.Remove(f.lruElem)
	}
	delete(sh.frames, pg)
}

// DiscardAll drops every frame without writing anything back.  Used to
// model volatile state loss when simulating a crash.
func (p *Pool) DiscardAll() {
	for _, sh := range p.shards {
		sh.mu.Lock()
		sh.frames = make(map[disk.PageNum]*frame, sh.capacity)
		sh.lru.Init()
		sh.mu.Unlock()
	}
}

// PinnedFrames reports how many frames are currently pinned — zero at
// any quiescent point; tests use it to detect pin leaks.
func (p *Pool) PinnedFrames() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.pins > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Resident reports whether pg currently occupies a frame.
func (p *Pool) Resident(pg disk.PageNum) bool {
	sh := p.shardFor(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.frames[pg]
	return ok
}
