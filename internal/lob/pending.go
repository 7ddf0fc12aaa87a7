package lob

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
)

// The write-behind set.
//
// Two kinds of data page wait in memory, keyed by page number, with bytes a
// committed root names that the device does not hold yet:
//
//   - the pages of an open tail that plain Appends filled (append.go): the
//     tail segment stays open for the next append, which continues in the
//     pages it left;
//   - the pages a committed transaction's replaces rewrote
//     (Manager.PendHeld): they wait here instead of being written home
//     behind the commit force, and a later replace of a pending page only
//     overwrites its image.
//
// Nothing on the device needs them yet: a transactional append's record
// carries the bytes it left here by value, a replace's its bytes, and recovery
// rebuilds the pages from them on the roots the last checkpoint image names.
// Every read of a data page looks here,
// after its manager's held set (Manager.readPages): object and snapshot
// reads, PrepareReplace, and the old bytes an insert, delete, replace or tail
// fill gathers.  A request to the device covers only the pages from the first
// to the last one of its range that neither set holds, and none when they
// hold all.
//
// The pages reach the device through one sorted pass — each maximal run of
// contiguous pending pages is one WriteRun — when
//
//   - the store takes a checkpoint (Pending.Flush), whose image may name
//     their bytes;
//   - the set is over its budget after an install (replaced pages go before
//     open tails: a tail written early costs the append that continues it a
//     read);
//   - a tail closes (trim, Destroy, a delete, insert or compaction that
//     reaches the tail segment) or fills;
//   - their pages are freed (Manager.freeData): a snapshot may still read
//     them, and they must not outlive their owner.
//
// Invariant: every page a committed root names holds its newest committed
// bytes in the set if it is pending, else on the device.  So whoever drops a
// page writes it first — unless no root but an aborted one names its bytes:
// pages an aborted transaction allocated (Manager.Forget), and the room of a
// tail its abort reinstates (Object.Reinstate) — and whoever writes a
// pending page from outside the set (a non-transactional replace, a tail
// that fills) drops its image in the same critical section under
// Pending.mu, so that the image is never written over the newer page later.  A transaction's
// uncommitted replaced pages are not here: they wait in its held set
// (held.go) until its commit record is forced.

// Pending is the write-behind set of one volume: its pending pages, the
// budget they share with the buffer pool, and their writes.  Managers over
// one volume share one (Config.Pending).  It is safe for concurrent use;
// readers take no lock.
type Pending struct {
	vol    disk.Device
	pool   *buffer.Pool
	budget int // pages: pending pages plus resident pool frames, after every install

	mu  sync.Mutex
	set atomic.Pointer[[]pendingPage] // sorted by page; replaced whole under mu, never changed in place; nil when empty

	high         atomic.Int64 // most pages ever pending at once
	evictions    atomic.Int64 // runs written because the set was over its budget
	reads        atomic.Int64 // pages reads took from the set
	replaced     atomic.Int64 // pages committed replaces left in the set
	absorbed     atomic.Int64 // of those, pages that were pending already
	checkpointed atomic.Int64 // replaced pages a checkpoint wrote
	evicted      atomic.Int64 // replaced pages written because the set was over its budget
}

// NewPending makes an empty write-behind set over vol, sharing one memory
// budget with pool: after every install its pages and the pool's resident
// frames together number at most three times the pool's frames — the most
// a full pool and the tails' bound of twice its frames could hold before.
// The pool never gives up an index frame for a pending page; the set writes
// its own pages back instead.
func NewPending(vol disk.Device, pool *buffer.Pool) *Pending {
	return &Pending{vol: vol, pool: pool, budget: 3 * pool.Capacity()}
}

// pendingPage is the image of one pending page.
type pendingPage struct {
	page disk.PageNum
	img  []byte // one page; nobody writes to it once it is in the set
	tail bool   // an open tail's page, else a committed replace's
}

// load returns the pages pending now, sorted; a nil set has none.  The slice
// is never changed: it is the set as it was, whatever happens to it later.
func (t *Pending) load() []pendingPage {
	if t == nil {
		return nil
	}
	if p := t.set.Load(); p != nil {
		return *p
	}
	return nil
}

func (p pendingPage) pageNum() disk.PageNum { return p.page }

// paged is a page image of the write-behind set or of a held set.
type paged interface{ pageNum() disk.PageNum }

// span returns the index range [lo, hi) of sorted pages that holds [start,
// start+n).
func span[P paged](pages []P, start disk.PageNum, n int) (lo, hi int) {
	lo = sort.Search(len(pages), func(i int) bool { return pages[i].pageNum() >= start })
	hi = lo + sort.Search(len(pages)-lo, func(i int) bool { return pages[lo+i].pageNum() >= start+disk.PageNum(n) })
	return lo, hi
}

// has reports whether sorted pages holds page p.
func has[P paged](pages []P, p disk.PageNum) bool {
	lo, hi := span(pages, p, 1)
	return lo < hi
}

// runEnd returns the end of the run of contiguous pages that starts at
// pages[i]; sameKind stops it where the kind changes.
func runEnd(pages []pendingPage, i int, sameKind bool) int {
	j := i + 1
	for j < len(pages) && pages[j].page == pages[j-1].page+1 && (!sameKind || pages[j].tail == pages[i].tail) {
		j++
	}
	return j
}

// Flush writes every pending page, one request per run of contiguous pages
// in address order, and empties the set.  A checkpoint calls it before it
// forces the data volume, so that its image names no byte that is only in
// memory.  A nil set has nothing to write.
func (t *Pending) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	replaced, err := t.writeRunsLocked(0, len(t.load()))
	t.checkpointed.Add(int64(replaced))
	return err
}

// writeRange writes the pending pages among [start, start+n), one request per
// run of contiguous ones, and drops them.  A nil set has none.
func (t *Pending) writeRange(start disk.PageNum, n int) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_, err := t.writeRunsLocked(span(t.load(), start, n))
	return err
}

// writeOver writes raw, whole-page images of the pages from start on, and
// drops the images of the pages it covers: raw holds their newest bytes.
// Pending pages right before and after it go in the same request.
func (t *Pending) writeOver(start disk.PageNum, raw []byte) error {
	ps := t.vol.PageSize()
	n := len(raw) / ps
	t.mu.Lock()
	defer t.mu.Unlock()
	pages := t.load()
	lo, hi := span(pages, start, n)
	first, end := start, start+disk.PageNum(n)
	l, h := lo, hi
	for l > 0 && pages[l-1].page == first-1 {
		l, first = l-1, first-1
	}
	for h < len(pages) && pages[h].page == end {
		h, end = h+1, end+1
	}
	if l == lo && h == hi {
		if err := t.vol.WritePages(start, n, raw); err != nil {
			return err
		}
	} else {
		imgs := make([][]byte, 0, int(end-first))
		for _, p := range pages[l:lo] {
			imgs = append(imgs, p.img)
		}
		for i := 0; i < n; i++ {
			imgs = append(imgs, raw[i*ps:(i+1)*ps])
		}
		for _, p := range pages[hi:h] {
			imgs = append(imgs, p.img)
		}
		if err := t.vol.WriteRun(first, imgs); err != nil {
			return err
		}
	}
	t.cutLocked(l, h)
	return nil
}

// drop forgets the pending pages among [start, start+n) unwritten: no root
// but the caller's names their bytes.
func (t *Pending) drop(start disk.PageNum, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cutLocked(span(t.load(), start, n))
}

// install puts pages into the set over the images it holds of them,
// then writes runs back until the set is within its budget.  An open tail's
// pages become tail pages; a replace leaves a page it finds pending of the
// kind it was.  A failed write-back leaves its run pending: the budget is on
// memory, and the next flush meets the error again.
func (t *Pending) install(add []pendingPage) {
	sort.Slice(add, func(i, j int) bool { return add[i].page < add[j].page })
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.load()
	out := make([]pendingPage, 0, len(old)+len(add))
	i := 0
	for _, a := range add {
		for i < len(old) && old[i].page < a.page {
			out = append(out, old[i])
			i++
		}
		found := i < len(old) && old[i].page == a.page
		if !a.tail {
			t.replaced.Add(1)
			if found {
				a.tail = old[i].tail
				t.absorbed.Add(1)
			}
		}
		if found {
			i++
		}
		out = append(out, a)
	}
	t.storeLocked(append(out, old[i:]...))
	for {
		pages := t.load()
		if len(pages) == 0 || len(pages)+t.pool.Frames() <= t.budget {
			return
		}
		if t.evictLocked(pages) != nil {
			return
		}
	}
}

// evictLocked writes the largest run of contiguous pending pages of one
// kind, the lowest on a tie — a committed replace's pages before an open
// tail's — and drops it.
//
// eos:requires t.mu
func (t *Pending) evictLocked(pages []pendingPage) error {
	lo, hi := 0, 0
	for _, tail := range []bool{false, true} {
		for i := 0; i < len(pages); {
			j := runEnd(pages, i, true)
			if pages[i].tail == tail && j-i > hi-lo {
				lo, hi = i, j
			}
			i = j
		}
		if hi > lo {
			break
		}
	}
	if err := t.writeRunLocked(pages[lo:hi]); err != nil {
		return err
	}
	t.evictions.Add(1)
	t.evicted.Add(int64(replacedIn(pages[lo:hi])))
	t.cutLocked(lo, hi)
	return nil
}

// writeRunsLocked writes the pages at indices [lo, hi) of the set, one
// request per run of contiguous ones in address order, and drops them; it
// returns how many of them a committed replace left.  After a failed write
// the set still holds them all: writing a page again is harmless.
//
// eos:requires t.mu
func (t *Pending) writeRunsLocked(lo, hi int) (replaced int, err error) {
	pages := t.load()
	for i := lo; i < hi; {
		j := runEnd(pages[:hi], i, false)
		if err := t.writeRunLocked(pages[i:j]); err != nil {
			return 0, err
		}
		i = j
	}
	t.cutLocked(lo, hi)
	return replacedIn(pages[lo:hi]), nil
}

// writeRunLocked writes a run of contiguous pending pages in one request.
//
// eos:requires t.mu
func (t *Pending) writeRunLocked(run []pendingPage) error {
	imgs := make([][]byte, len(run))
	for i, p := range run {
		imgs[i] = p.img
	}
	return t.vol.WriteRun(run[0].page, imgs)
}

// cutLocked drops the pages at indices [lo, hi) of the set.
//
// eos:requires t.mu
func (t *Pending) cutLocked(lo, hi int) {
	if lo == hi {
		return
	}
	pages := t.load()
	t.storeLocked(append(append(make([]pendingPage, 0, len(pages)-(hi-lo)), pages[:lo]...), pages[hi:]...))
}

// storeLocked makes pages the set.  An emptied set holds no memory.
//
// eos:requires t.mu
func (t *Pending) storeLocked(pages []pendingPage) {
	if len(pages) == 0 {
		t.set.Store(nil)
		return
	}
	t.set.Store(&pages)
	if n := int64(len(pages)); n > t.high.Load() {
		t.high.Store(n)
	}
}

// replacedIn counts the pages of a committed replace among pages.
func replacedIn(pages []pendingPage) int {
	n := 0
	for _, p := range pages {
		if !p.tail {
			n++
		}
	}
	return n
}

// pageImages splits raw, whole-page images of the pages from start on, into
// pending pages of the given kind.  They share raw's memory.
func pageImages(start disk.PageNum, raw []byte, ps int, tail bool) []pendingPage {
	out := make([]pendingPage, len(raw)/ps)
	for i := range out {
		out[i] = pendingPage{page: start + disk.PageNum(i), img: raw[i*ps : (i+1)*ps], tail: tail}
	}
	return out
}
