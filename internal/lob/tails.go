package lob

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
)

// Write-behind tails.
//
// A plain Append leaves its tail segment open for the next one (append.go),
// and the pages of that tail it has filled since they were last written stay
// in memory as the object's pending run: whole page images from the page
// holding the first unwritten byte to the page holding the object's last
// byte.  The run reaches the device as one request, and only when
//
//   - the segment fills, or the tail closes any other way (trim, Destroy,
//     a delete, insert or compaction that reaches the tail segment);
//   - an operation reads pages of the run to rewrite them, or writes them
//     (replace: see Object.settle);
//   - the runs of every object over the volume together exceed their bound;
//   - the store takes a checkpoint (Tails.Flush), whose image may name the
//     run's bytes.
//
// Until then nothing on the device needs the bytes: a transactional append
// is durable in the log, whose record carries them, and recovery redoes it
// from the roots the last checkpoint image names — recovery forgets open
// tails, so redo never continues one.  Reads serve a pending page from
// memory (Manager.readSegRange), snapshot readers too: a published version
// shares the object's tailBuf.
//
// Invariant: every page a root names is on the device or in the pending run
// of its object's tailBuf.  So whoever drops a run writes it first, and does
// both under Tails.mu; whoever writes a page a run holds, or installs a run,
// holds Tails.mu too, so that a run is never written over a newer image of
// its pages.

// Tails is the write-behind set of the objects over one volume: every pending
// run and the bound on the pages they hold together.  Managers over one
// volume share one (Config.Tails).  It is safe for concurrent use.
type Tails struct {
	vol   disk.Device
	limit int // pages

	mu   sync.Mutex
	held map[*tailBuf]int // eos:guardedby mu -- pages of each pending run; nil when there is none

	pages     atomic.Int64 // pages pending now; changed under mu
	high      atomic.Int64 // most pages ever pending at once
	evictions atomic.Int64 // runs written because the set exceeded its bound
}

// NewTails makes an empty write-behind set over vol, bounded by the pool the
// managers over vol share: its runs may hold twice as many pages as the pool
// has frames.  The bound is there for memory only — a run written early
// costs a request, and the append that continues it a read of its partial
// page — so it leaves the open tails of the objects in use room beside an
// index working set the pool was sized for.
func NewTails(vol disk.Device, pool *buffer.Pool) *Tails {
	return &Tails{vol: vol, limit: 2 * pool.Capacity()}
}

// tailBuf holds an object's pending run, nil when it has none.  The object
// and every version it published share it, so that a reader finds the run the
// object has now — or none, once the run is on the device — and no published
// version keeps a written run's memory alive.
type tailBuf struct {
	run atomic.Pointer[pendingRun]
}

// pendingRun is whole-page images of pages start, start+1, … of a tail
// segment.  It is never changed: an append installs a new one.
type pendingRun struct {
	start disk.PageNum
	raw   []byte
}

func (r *pendingRun) pages(ps int) int { return len(r.raw) / ps }

// end is the page after the run's last.
func (r *pendingRun) end(ps int) disk.PageNum { return r.start + disk.PageNum(r.pages(ps)) }

// load returns b's pending run; a nil b has none.
func (b *tailBuf) load() *pendingRun {
	if b == nil {
		return nil
	}
	return b.run.Load()
}

// Flush writes every pending run, one request each in page order, and drops
// them.  A checkpoint calls it before it forces the data volume, so that its
// image names no byte that is only in memory.  A nil set has nothing to
// write.
func (t *Tails) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	bufs := make([]*tailBuf, 0, len(t.held))
	for b := range t.held {
		bufs = append(bufs, b)
	}
	sort.Slice(bufs, func(i, j int) bool { return bufs[i].load().start < bufs[j].load().start })
	for _, b := range bufs {
		if err := t.writeLocked(b); err != nil {
			return err
		}
	}
	t.held = nil // an emptied map keeps its buckets
	return nil
}

// write writes b's pending run, if it has one, and drops it.  A manager that
// writes through (nil Tails) has none.
func (t *Tails) write(b *tailBuf) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.writeLocked(b)
}

// writeOver writes img, whose pages include every page of b's pending run
// with the run's bytes in them, and drops the run.
func (t *Tails) writeOver(b *tailBuf, img *pendingRun) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.vol.WritePages(img.start, img.pages(t.vol.PageSize()), img.raw); err != nil {
		return err
	}
	t.setLocked(b, nil)
	return nil
}

// install makes r b's pending run (nil: none), then writes the largest runs
// back until the set is within its bound.  A failed write-back leaves its run
// pending: the bound is on memory, and the next flush meets the error again.
func (t *Tails) install(b *tailBuf, r *pendingRun) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setLocked(b, r)
	for t.pages.Load() > int64(t.limit) {
		var victim *tailBuf
		for c, n := range t.held {
			if v := t.held[victim]; victim == nil || n > v || n == v && c.load().start < victim.load().start {
				victim = c
			}
		}
		if t.writeLocked(victim) != nil {
			return
		}
		t.evictions.Add(1)
	}
}

// writeLocked writes b's pending run, if it has one, and drops it.
//
// eos:requires t.mu
func (t *Tails) writeLocked(b *tailBuf) error {
	if r := b.load(); r != nil {
		if err := t.vol.WritePages(r.start, r.pages(t.vol.PageSize()), r.raw); err != nil {
			return err
		}
	}
	t.setLocked(b, nil)
	return nil
}

// setLocked makes r b's pending run and keeps the count of pages held.
//
// eos:requires t.mu
func (t *Tails) setLocked(b *tailBuf, r *pendingRun) {
	n := 0
	if r != nil {
		n = r.pages(t.vol.PageSize())
	}
	total := t.pages.Add(int64(n - t.held[b]))
	switch {
	case n == 0:
		delete(t.held, b)
	case t.held == nil:
		t.held = map[*tailBuf]int{b: n}
	default:
		t.held[b] = n
	}
	b.run.Store(r)
	if total > t.high.Load() {
		t.high.Store(total)
	}
}
