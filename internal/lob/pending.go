package lob

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/eosdb/eos/internal/disk"
)

// The write-behind set.
//
// Three kinds of data page wait in memory, keyed by page number, with bytes a
// committed root names that the device does not hold yet:
//
//   - the pages appends filled in a tail segment (append.go): a plain
//     Append's while the tail is open, where the next append continues in
//     the pages it left, and once an append has filled its room; a hinted
//     append's at once.  A closed tail's pages stay for the checkpoint;
//   - the pages a replace rewrote, once its write scope is past its commit
//     point — a committed transaction's, or an Object Replace's
//     (Manager.PendHeld): they wait here instead of being written home,
//     and a later replace of a pending page only overwrites its image;
//   - the new segment N an Object insert or delete writes (insert.go), when
//     it could not go right after the pages the update read: its pages wait
//     as a closed tail's do, allocated at the set's next-fit point — the
//     page after the last N that waited — so that consecutive ones are one
//     run of pages, which one request writes.  Their images are built in
//     the set's fill memory (Hold).
//
// Nothing on the device needs them yet: a transactional append's record
// carries the bytes it left here by value, a replace's its bytes, and recovery
// rebuilds the pages from them on the roots the last checkpoint image names.
// An Object Replace, append, insert or delete logs nothing: its pages reach
// recovery only through the next checkpoint's image.  A transaction's insert
// or delete writes its N through: its record names N by reference.
// Every read of a data page looks here,
// after its manager's held set (Manager.readPages): object and snapshot
// reads, PrepareReplace, and the old bytes an insert, delete, replace or tail
// fill gathers.  A request to the device covers only the pages from the first
// to the last one of its range that neither set holds, and none when they
// hold all.
//
// The pages reach the device in address order — each maximal run of
// contiguous pending pages is one WriteRun — when
//
//   - the store takes a checkpoint, whose image may name their bytes: it
//     captures the set (Capture) with the image's descriptors and writes
//     what it captured (Write) without holding the store's lock;
//   - the set is over its limit after an install (replaced pages, closed
//     tails' and new segments' go before open tails: they are no longer an
//     open tail's, which no append continues, and an open tail written early
//     costs the append that continues it a read; freed pages go last).  The
//     limit bounds the set's pages, and so its memory — but for a new
//     segment's page, which keeps its whole fill memory (fillPages pages)
//     alive: a fill memory that is not built in again (Hold) stays with the
//     pages that still wait in it, such as freed ones a checkpoint skips or
//     ones whose write failed.  The store sets the limit to its log's
//     capacity in data pages: a transaction's pending bytes are also redo
//     the log has carried since the last checkpoint, while an Object write's
//     are in no record.  A hinted append, insert or delete whose pages would
//     not fit in the limit writes through instead;
//   - a tail is trimmed (Trim, Destroy, a delete, insert or compaction that
//     reaches the tail segment), or an append that fills it writes it
//     through (append.go says when);
//   - the fill memory is full: the new segments' pages still pending in it
//     are written once the update that found it full has read, and the
//     memory is kept as the spare, which takes the images after the next
//     fill memory's while it is fresh in the processor's caches.
//
// Freed pages keep their images (Manager.freeData): a snapshot may still
// read them, and a checkpoint that captured a root naming them before the
// free was published still writes them.  The allocator's owner, who puts
// the pages back into the free space, ends them: the store marks them dead
// when their run is retired, behind the publish (Retire) — no checkpoint
// begun after that writes them — and drops them when the run is released,
// before the free space can hand the pages out again (Release); recovery
// drops them with the pages no recovered root reaches (Manager.Forget).
//
// Invariant: every page a committed root names holds its newest committed
// bytes in the set if it is pending, else on the device.  So whoever drops a
// page writes it first — unless no root but an aborted one names its bytes:
// pages an aborted transaction allocated (Manager.Forget), the room of a
// tail its abort reinstates (Object.Reinstate), and a released run —
// and whoever writes a
// pending page from outside the set (recovery's redo of a replace, a fill
// that writes through) drops its image in the same critical section under
// Pending.mu, so that the image is never written over the newer page later.
// The one write made outside Pending.mu, a captured run's, marks its pages
// in flight first: nobody else writes or drops them until it is done, and
// it drops only the pages whose image is still the one it captured.  A
// write scope's replaced pages are not here before its commit point: they
// wait in its held set (held.go).

// Pending is the write-behind set of one volume: its pending pages, their
// limit, and their writes.  Managers over one volume share one
// (Config.Pending).  It is safe for concurrent use; readers take no lock.
type Pending struct {
	vol   disk.Device
	limit int // pages pending at most after every install
	// next is the next-fit point: the page after the last new segment of an
	// insert or a delete that waits here, 0 before the first.
	next atomic.Uint64
	// fill is the memory the images of waiting new segments are built in
	// (Hold), nil until the first since the last checkpoint began; spare is
	// a fill memory whose pages all went out, which the next full one gives
	// way to.
	fill  *fillBuf // eos:guardedby mu
	spare *fillBuf // eos:guardedby mu
	// copying is held shared by every read that copies images out of a
	// version of the set (Manager.readPages): fill memory is built in again
	// only when no read holds it.
	copying sync.RWMutex

	mu  sync.Mutex
	set atomic.Pointer[pendingSet] // replaced whole under mu, never changed in place; nil when empty
	// flying is the run a captured write (Write) has in flight without mu;
	// done is signalled when it lands.
	flying pageRange // eos:guardedby mu
	done   sync.Cond

	high         atomic.Int64 // most pages ever pending at once
	evictions    atomic.Int64 // runs written because the set was over its limit
	reads        atomic.Int64 // pages reads took from the set
	replaced     atomic.Int64 // pages committed replaces left in the set
	absorbed     atomic.Int64 // of those, pages that were pending already
	checkpointed atomic.Int64 // replaced pages a captured write wrote and dropped
	evicted      atomic.Int64 // replaced pages written because the set was over its limit
}

// NewPending makes an empty write-behind set over vol that holds at most
// limit pages after every install.
func NewPending(vol disk.Device, limit int) *Pending {
	t := &Pending{vol: vol, limit: limit}
	t.done.L = &t.mu
	return t
}

// pendingPage is the image of one pending page.
type pendingPage struct {
	page disk.PageNum
	img  []byte // one page; nobody writes to it once it is in the set
	kind pageKind
	// freed is 0 while a published root may name the page, and once the
	// write that freed it has retired its run, 1 + the barrier stamp of that
	// retire (Retire): no checkpoint numbered above the stamp names it.
	freed uint64
}

// deadFor reports whether the image of checkpoint barrier names p's page
// nowhere: it was freed, and the free retired before that checkpoint began.
func (p pendingPage) deadFor(barrier uint64) bool { return p.freed != 0 && p.freed <= barrier }

// pageKind says what left a page in the set.
type pageKind uint8

const (
	replacedPage pageKind = iota // a committed replace
	openTail                     // an append into the tail an append continues next
	closedTail                   // an append into a tail that has closed since, or an insert's or a delete's new segment
)

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
// pages[i].
func runEnd(pages []pendingPage, i int) int {
	j := i + 1
	for j < len(pages) && pages[j].page == pages[j-1].page+1 {
		j++
	}
	return j
}

// sameImage reports whether a and b are one image, not equal bytes: an
// install always brings new memory.
func sameImage(a, b []byte) bool { return &a[0] == &b[0] }

// pageRange is the pages [start, end).
type pageRange struct{ start, end disk.PageNum }

func (r pageRange) overlaps(start disk.PageNum, n int) bool {
	return start < r.end && r.start < start+disk.PageNum(n)
}

// chunkPages is the most pages one chunk of a version holds.
const chunkPages = 64

// pendingSet is one version of the write-behind set: its pages sorted by
// page number, in chunks of at most chunkPages.  A version is never changed
// once it is stored: a change builds a new one that shares every chunk it
// does not touch, so that it costs the chunks it changes and a copy of the
// chunk list, not a copy of the set.  A nil version is an empty set.
type pendingSet struct {
	chunks   [][]pendingPage // each sorted and non-empty; a chunk's pages all below the next one's
	n        int             // pages
	replaced int             // of them, a committed replace's
}

func (s *pendingSet) len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// chunk returns the index of the first chunk whose last page is p or above:
// the chunk p is in or would go in, len(s.chunks) above them all.
func (s *pendingSet) chunk(p disk.PageNum) int {
	return sort.Search(len(s.chunks), func(i int) bool {
		c := s.chunks[i]
		return c[len(c)-1].page >= p
	})
}

// between returns the pages among [start, start+n), sorted: part of one
// chunk when they are in one, else a copy.
func (s *pendingSet) between(start disk.PageNum, n int) []pendingPage {
	if s == nil || n <= 0 {
		return nil
	}
	end := start + disk.PageNum(n)
	ci := s.chunk(start)
	if ci == len(s.chunks) {
		return nil
	}
	c := s.chunks[ci]
	lo, hi := span(c, start, n)
	if hi < len(c) || ci+1 == len(s.chunks) || s.chunks[ci+1][0].page >= end {
		return c[lo:hi]
	}
	out := append([]pendingPage(nil), c[lo:hi]...)
	for _, c := range s.chunks[ci+1:] {
		_, hi := span(c, start, n)
		out = append(out, c[:hi]...)
		if hi < len(c) {
			break
		}
	}
	return out
}

// get returns the image of page p, if it is pending.
func (s *pendingSet) get(p disk.PageNum) (pendingPage, bool) {
	if pages := s.between(p, 1); len(pages) == 1 {
		return pages[0], true
	}
	return pendingPage{}, false
}

// each calls f on every page in address order until f returns false.
func (s *pendingSet) each(f func(pendingPage) bool) {
	if s == nil {
		return
	}
	for _, c := range s.chunks {
		for _, p := range c {
			if !f(p) {
				return
			}
		}
	}
}

// with returns s with add's images over the ones it holds of their pages
// (add is sorted, one image per page), and how many of add's replaced pages
// were pending already.  A tail's page is of the kind add gives it; a
// replace leaves a page it finds pending of the kind it was.  Only the
// chunks add falls in are copied: the ones before and after them go to the
// new chunk list in two bulk copies.
func (s *pendingSet) with(add []pendingPage) (*pendingSet, int) {
	if len(add) == 0 {
		return s, 0
	}
	if s.len() == 0 {
		return &pendingSet{chunks: appendChunks(nil, add), n: len(add), replaced: replacedIn(add)}, 0
	}
	old := s.chunks
	out := &pendingSet{n: s.n, replaced: s.replaced}
	// add falls in chunks first to last: each takes the pages up to its last
	// one, and the last chunk every page above.
	first := min(s.chunk(add[0].page), len(old)-1)
	last := min(s.chunk(add[len(add)-1].page), len(old)-1)
	chunks := make([][]pendingPage, first, len(old)+len(add)/chunkPages+2)
	copy(chunks, old[:first])
	absorbed, i := 0, 0
	for ci := first; ci <= last; ci++ {
		c := old[ci]
		j := i
		for j < len(add) && (ci == len(old)-1 || add[j].page <= c[len(c)-1].page) {
			j++
		}
		if j == i {
			chunks = append(chunks, c)
			continue
		}
		merged := make([]pendingPage, 0, len(c)+j-i)
		k := 0
		for _, a := range add[i:j] {
			for k < len(c) && c[k].page < a.page {
				merged = append(merged, c[k])
				k++
			}
			if k < len(c) && c[k].page == a.page {
				if a.kind == replacedPage {
					a.kind = c[k].kind
					absorbed++
				}
				out.n--
				if c[k].kind == replacedPage {
					out.replaced--
				}
				k++
			}
			out.n++
			if a.kind == replacedPage {
				out.replaced++
			}
			merged = append(merged, a)
		}
		chunks = appendChunks(chunks, append(merged, c[k:]...))
		i = j
	}
	out.chunks = append(chunks, old[last+1:]...)
	return out, absorbed
}

// without returns s without the pages among [start, start+n) that drop
// reports, and how many of a committed replace's it dropped.  Only the
// chunks the range falls in are copied — with the next one when what is
// left of them is small enough to share it.
func (s *pendingSet) without(start disk.PageNum, n int, drop func(pendingPage) bool) (*pendingSet, int) {
	if s.len() == 0 || n <= 0 {
		return s, 0
	}
	end := start + disk.PageNum(n)
	ci := s.chunk(start)
	cj := ci
	for cj < len(s.chunks) && s.chunks[cj][0].page < end {
		cj++
	}
	var kept []pendingPage
	dropped, replaced := 0, 0
	for _, c := range s.chunks[ci:cj] {
		for _, p := range c {
			if p.page >= start && p.page < end && drop(p) {
				dropped++
				if p.kind == replacedPage {
					replaced++
				}
				continue
			}
			kept = append(kept, p)
		}
	}
	if dropped == 0 {
		return s, 0
	}
	if s.n == dropped {
		return nil, replaced
	}
	if cj < len(s.chunks) && len(kept)+len(s.chunks[cj]) <= chunkPages {
		kept = append(kept, s.chunks[cj]...)
		cj++
	}
	chunks := make([][]pendingPage, 0, len(s.chunks)+1)
	chunks = append(chunks, s.chunks[:ci]...)
	chunks = appendChunks(chunks, kept)
	chunks = append(chunks, s.chunks[cj:]...)
	return &pendingSet{chunks: chunks, n: s.n - dropped, replaced: s.replaced - replaced}, replaced
}

// appendChunks appends sorted pages to chunks, cut into as few chunks of
// near-equal size as hold them.
func appendChunks(chunks [][]pendingPage, pages []pendingPage) [][]pendingPage {
	k := (len(pages) + chunkPages - 1) / chunkPages
	for i := 0; i < k; i++ {
		chunks = append(chunks, pages[i*len(pages)/k:(i+1)*len(pages)/k:(i+1)*len(pages)/k])
	}
	return chunks
}

// Eviction classes, in the order evictLocked writes them.
const (
	evictFirst = iota // a committed replace's page, a closed tail's or a new segment's
	evictOpen         // an open tail's: the append that continues it reads it back
	evictDead         // a freed page: a write that nobody needs
	evictClasses
)

// evictClass is the eviction class of p.
func (p pendingPage) evictClass() int {
	switch {
	case p.freed != 0:
		return evictDead
	case p.kind == openTail:
		return evictOpen
	}
	return evictFirst
}

// largestRun returns the largest run of contiguous pending pages all of
// eviction class class, the lowest on a tie.
func (s *pendingSet) largestRun(class int) (best pageRange) {
	var cur pageRange
	s.each(func(p pendingPage) bool {
		if p.evictClass() != class {
			cur = pageRange{}
			return true
		}
		if cur.end != p.page || cur.end == cur.start {
			cur = pageRange{start: p.page}
		}
		cur.end = p.page + 1
		if cur.end-cur.start > best.end-best.start {
			best = cur
		}
		return true
	})
	return best
}

// load returns the pages pending now; a nil set has none.  The version is
// never changed: it is the set as it was, whatever happens to it later.
func (t *Pending) load() *pendingSet {
	if t == nil {
		return nil
	}
	return t.set.Load()
}

// Captured is the write-behind set as it was at one moment (Capture).
type Captured struct {
	set     *pendingSet
	barrier uint64
}

// Capture returns the set as it is now, for Write by the checkpoint numbered
// barrier, whose image was taken before it (0: a write of every page).
func (t *Pending) Capture(barrier uint64) Captured { return Captured{t.load(), barrier} }

// Write writes the pages c holds that are still pending, but the ones dead
// for its checkpoint (deadFor), one request per run of contiguous ones in
// address order, with each page's image as it is
// when its run goes out — the newest committed bytes.  It takes the set's
// lock per run, and not over the request: commits install, and readers
// read, while a run is written; nobody writes or drops a page of it
// meanwhile.  Behind the request it drops the pages whose image is still
// the one c holds: a page a later install gave a newer image stays pending
// with it, and a page another writer wrote and dropped since c was taken is
// not written again.  A checkpoint calls it before it forces the data
// volume, so that its image, whose descriptors were taken with c, names no
// byte that is only in memory.  One Write runs at a time, as checkpoints
// do: flying holds a single run.
func (t *Pending) Write(c Captured) error {
	if t == nil {
		return nil
	}
	// The images copied from now on go into fresh memory: what the old fill
	// memory holds goes out with this checkpoint, and the memory with it.
	t.mu.Lock()
	t.fill, t.spare = nil, nil
	t.mu.Unlock()
	var run []pendingPage
	var err error
	c.set.each(func(p pendingPage) bool {
		if p.deadFor(c.barrier) {
			return true
		}
		if len(run) > 0 && p.page != run[len(run)-1].page+1 {
			if err = t.writeCaptured(run); err != nil {
				return false
			}
			run = run[:0]
		}
		run = append(run, p)
		return true
	})
	if err == nil && len(run) > 0 {
		err = t.writeCaptured(run)
	}
	return err
}

// writeCaptured writes one run of contiguous captured pages: the ones still
// pending, with their images now, in one request per run of them.
func (t *Pending) writeCaptured(run []pendingPage) error {
	r := pageRange{start: run[0].page, end: run[len(run)-1].page + 1}
	n := int(r.end - r.start)
	t.mu.Lock()
	cur := t.load().between(r.start, n)
	if len(cur) == 0 {
		t.mu.Unlock()
		return nil
	}
	t.flying = r
	t.mu.Unlock()
	var err error
	for i := 0; i < len(cur) && err == nil; {
		j := runEnd(cur, i)
		err = t.writeRun(cur[i:j])
		i = j
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flying = pageRange{}
	t.done.Broadcast()
	if err != nil {
		return err // the pages stay pending: writing one again is harmless
	}
	next, replaced := t.load().without(r.start, n, func(p pendingPage) bool {
		return sameImage(p.img, run[p.page-r.start].img)
	})
	t.storeLocked(next)
	t.checkpointed.Add(int64(replaced))
	return nil
}

// awaitLocked waits until no captured write has a page among [start,
// start+n) in flight.
//
// eos:requires t.mu
func (t *Pending) awaitLocked(start disk.PageNum, n int) {
	for t.flying.overlaps(start, n) {
		t.done.Wait()
	}
}

// writeRange writes the pending pages among [start, start+n), one request per
// run of contiguous ones, and drops them.  A nil set has none.  After a
// failed write the set still holds them all.
func (t *Pending) writeRange(start disk.PageNum, n int) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.awaitLocked(start, n)
	pages := t.load().between(start, n)
	for i := 0; i < len(pages); {
		j := runEnd(pages, i)
		if err := t.writeRun(pages[i:j]); err != nil {
			return err
		}
		i = j
	}
	t.cutLocked(start, n)
	return nil
}

// writeOver writes raw, whole-page images of the pages from start on, and
// drops the images of the pages it covers: raw holds their newest bytes.
// Pending pages right before and after it go in the same request, unless a
// captured write has them in flight or they are freed.
func (t *Pending) writeOver(start disk.PageNum, raw []byte) error {
	ps := t.vol.PageSize()
	n := len(raw) / ps
	t.mu.Lock()
	defer t.mu.Unlock()
	t.awaitLocked(start, n)
	set, flying := t.load(), t.flying
	adjacent := func(p disk.PageNum) bool {
		pp, ok := set.get(p)
		return ok && pp.freed == 0 && !flying.overlaps(p, 1)
	}
	first, end := start, start+disk.PageNum(n)
	for first > 0 && adjacent(first-1) {
		first--
	}
	for adjacent(end) {
		end++
	}
	if first == start && end == start+disk.PageNum(n) {
		if err := t.vol.WritePages(start, n, raw); err != nil {
			return err
		}
	} else {
		imgs := make([][]byte, 0, int(end-first))
		for _, p := range set.between(first, int(start-first)) {
			imgs = append(imgs, p.img)
		}
		for i := 0; i < n; i++ {
			imgs = append(imgs, raw[i*ps:(i+1)*ps])
		}
		for _, p := range set.between(start+disk.PageNum(n), int(end-start)-n) {
			imgs = append(imgs, p.img)
		}
		if err := t.vol.WriteRun(first, imgs); err != nil {
			return err
		}
	}
	t.cutLocked(first, int(end-first))
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
	t.awaitLocked(start, n)
	t.cutLocked(start, n)
}

// Retire marks the pending pages among [start, start+n) dead for every
// checkpoint numbered above barrier: the write that freed them has published
// the roots that stop naming them, and has retired their run with that
// barrier stamp.  Their images stay readable until Release.
func (t *Pending) Retire(start disk.PageNum, n int, barrier uint64) {
	if t == nil || len(t.load().between(start, n)) == 0 {
		return // nothing installs into a run nobody owns
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pages := t.load().between(start, n)
	add := make([]pendingPage, len(pages))
	for i, p := range pages {
		p.freed = barrier + 1
		add[i] = p
	}
	next, _ := t.load().with(add)
	t.storeLocked(next)
}

// Release drops the pending pages among [start, start+n) unwritten: their
// run leaves the reclamation queue for the free space, and no root can name
// them any more.
func (t *Pending) Release(start disk.PageNum, n int) {
	if t == nil || len(t.load().between(start, n)) == 0 {
		return
	}
	t.drop(start, n)
}

// mark makes the tail pages pending among [start, start+n) the given kind of
// tail page: a tail that closes or is reinstated open.  The images stay.
func (t *Pending) mark(start disk.PageNum, n int, kind pageKind) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var add []pendingPage
	for _, p := range t.load().between(start, n) {
		if p.kind != replacedPage && p.kind != kind {
			p.kind = kind
			add = append(add, p)
		}
	}
	if len(add) > 0 {
		next, _ := t.load().with(add)
		t.storeLocked(next)
	}
}

// install puts pages into the set over the images it holds of them, then
// writes runs back until the set is within its limit.  A failed write-back
// leaves its run pending: the limit is on memory, and the next flush meets
// the error again.  from is the fill memory the images are in (Hold), if
// they are a new segment's.
func (t *Pending) install(add []pendingPage, from *fillBuf) {
	slices.SortFunc(add, func(a, b pendingPage) int { return cmp.Compare(a.page, b.page) })
	t.mu.Lock()
	defer t.mu.Unlock()
	if from != nil {
		from.unplaced--
	}
	next, absorbed := t.load().with(add)
	t.storeLocked(next)
	t.replaced.Add(int64(replacedIn(add)))
	t.absorbed.Add(int64(absorbed))
	for t.load().len() > t.limit {
		if t.evictLocked() != nil {
			return
		}
	}
}

// evictLocked writes the largest run of contiguous pending pages of the
// first eviction class the set holds — a committed replace's, a closed
// tail's or a new segment's, else an open tail's, else freed ones —, the
// lowest on a tie, and drops it.  A run a captured write has in flight is
// waited for, and the choice made again.
//
// eos:requires t.mu
func (t *Pending) evictLocked() error {
	set := t.load()
	var r pageRange
	for class := 0; class < evictClasses && r.end == r.start; class++ {
		r = set.largestRun(class)
	}
	n := int(r.end - r.start)
	if t.flying.overlaps(r.start, n) {
		t.done.Wait()
		return nil
	}
	run := set.between(r.start, n)
	if err := t.writeRun(run); err != nil {
		return err
	}
	t.evictions.Add(1)
	t.evicted.Add(int64(replacedIn(run)))
	t.cutLocked(r.start, n)
	return nil
}

// writeRun writes a run of contiguous pending pages in one request.
func (t *Pending) writeRun(run []pendingPage) error {
	imgs := make([][]byte, len(run))
	for i, p := range run {
		imgs[i] = p.img
	}
	return t.vol.WriteRun(run[0].page, imgs)
}

// cutLocked drops the pending pages among [start, start+n).
//
// eos:requires t.mu
func (t *Pending) cutLocked(start disk.PageNum, n int) {
	next, _ := t.load().without(start, n, func(pendingPage) bool { return true })
	t.storeLocked(next)
}

// storeLocked makes s the set.  An emptied set holds no memory.
//
// eos:requires t.mu
func (t *Pending) storeLocked(s *pendingSet) {
	if s.len() == 0 {
		t.set.Store(nil)
		return
	}
	t.set.Store(s)
	if n := int64(s.n); n > t.high.Load() {
		t.high.Store(n)
	}
}

// replacedIn counts the pages of a committed replace among pages.
func replacedIn(pages []pendingPage) int {
	n := 0
	for _, p := range pages {
		if p.kind == replacedPage {
			n++
		}
	}
	return n
}

// appendPageImages splits raw, whole-page images of the pages from start on,
// into pending pages of the given kind, and appends them to pages.  They
// share raw's memory.
func appendPageImages(pages []pendingPage, start disk.PageNum, raw []byte, ps int, kind pageKind) []pendingPage {
	for i := 0; i < len(raw)/ps; i++ {
		pages = append(pages, pendingPage{page: start + disk.PageNum(i), img: raw[i*ps : (i+1)*ps], kind: kind})
	}
	return pages
}

// fillPages is the most pages of waiting new segments one fill memory holds
// before they are written: a run that long already spreads its request's
// repositioning over as many pages, and written while the images are fresh
// in the processor's caches, the memory takes the next ones.  Measured
// against 16 to 256 (EXPERIMENTS.md §P63): fewer cost edit_mix seeks, more
// cost read_under_write's set-up time in colder memory.
const fillPages = 128

// fillBuf is memory that images of waiting new segments are built in, one
// behind the other, the page runs that hold them, and how much of the room
// handed out (Hold) no update has installed or given back yet.
type fillBuf struct {
	mem      []byte
	used     int
	runs     []fillRun
	unplaced int
}

// fillRun is a run of pages whose images are at mem[off:].
type fillRun struct {
	start disk.PageNum
	pages int
	off   int
}

// fillRoom is room for one image in a fill memory (Hold); none when f is
// nil.  full is the fill memory the room's Hold found full, which its update
// writes once it has read (writeFull).
type fillRoom struct {
	f    *fillBuf
	off  int
	mem  []byte
	full *fillBuf
}

// Hold returns room for the n-byte image of a new segment that may wait in
// the set, in the set's fill memory behind the images before it, for its
// update to build the image in.  When the memory is full, the room is taken
// in the spare fill memory instead, or in fresh memory when there is none or
// a read is copying from the set (copying); the full memory's pending pages
// are written by the room's update once it has read (writeFull): until then
// the update reads them from memory.  An image larger than the fill memory
// gets no room.  Room is held until its image is kept (keep) and installed,
// or the room is given back (unhold).
func (t *Pending) Hold(n int) fillRoom {
	if n > fillPages*t.vol.PageSize() {
		return fillRoom{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.fill
	var full *fillBuf
	if f != nil && f.used+n > len(f.mem) {
		full, f = f, nil
		if t.spare != nil && t.copying.TryLock() {
			t.copying.Unlock()
			f, t.spare = t.spare, nil
			f.used, f.runs = 0, f.runs[:0]
		}
	}
	if f == nil {
		f = &fillBuf{mem: make([]byte, fillPages*t.vol.PageSize())}
	}
	t.fill = f
	r := fillRoom{f: f, off: f.used, mem: f.mem[f.used : f.used+n : f.used+n], full: full}
	f.used += n
	f.unplaced++
	return r
}

// writeFull writes the fill memory r's Hold found full, if it did: the pages
// still pending with images in it, contiguous ones in one request, which it
// drops.  The memory is then the spare, unless a write failed — pages still
// wait with their images in it — or room in it is still held.
func (t *Pending) writeFull(r fillRoom) {
	if r.full == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.writeFillLocked(r.full) && r.full.unplaced == 0 {
		t.spare = r.full
	}
}

// keep makes img, whole-page images of the given runs of fresh pages one
// behind the other, the images the runs wait with: the room r holds them,
// copied there unless img was built there, and fresh memory when r is none.
// It returns them and the fill memory they are in, which install is told
// of.
func (t *Pending) keep(r fillRoom, img []byte, runs []PageRun) ([]byte, *fillBuf) {
	if r.f == nil {
		return append([]byte(nil), img...), nil
	}
	if !sameImage(r.mem, img) {
		copy(r.mem, img)
	}
	ps := t.vol.PageSize()
	t.mu.Lock()
	defer t.mu.Unlock()
	off := r.off
	for _, run := range runs {
		r.f.runs = append(r.f.runs, fillRun{start: run.Start, pages: run.Pages, off: off})
		off += run.Pages * ps
	}
	return r.mem, r.f
}

// unhold gives back room no image was kept in: the next Hold takes it again
// when none was handed out behind it.
func (t *Pending) unhold(r fillRoom) {
	if r.f == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.f.used == r.off+len(r.mem) {
		r.f.used = r.off
	}
	r.f.unplaced--
}

// writeFillLocked writes the pages still pending whose images are in f's
// memory, one request per run of contiguous ones, and drops them: whoever
// else wrote and dropped one of them, or installed a newer image, had its
// reasons.  Freed ones go too: written, a snapshot reads them from the
// device.  It first waits until a captured write has none of f's runs in
// flight, and then finds and writes the pages without letting go of the
// lock.  It reports whether every page went out: after a failed write, pages
// still wait with their images in f's memory.
//
// eos:requires t.mu
func (t *Pending) writeFillLocked(f *fillBuf) bool {
	for i := 0; i < len(f.runs); i++ {
		if r := f.runs[i]; t.flying.overlaps(r.start, r.pages) {
			t.done.Wait()
			i = -1 // the lock was let go: look at every run again
		}
	}
	ps := t.vol.PageSize()
	out := make([]pendingPage, 0, f.used/ps)
	for _, r := range f.runs {
		for _, p := range t.load().between(r.start, r.pages) {
			if sameImage(p.img, f.mem[r.off+int(p.page-r.start)*ps:]) {
				out = append(out, p)
			}
		}
	}
	slices.SortFunc(out, func(a, b pendingPage) int { return cmp.Compare(a.page, b.page) })
	all := true
	for i := 0; i < len(out); {
		j := runEnd(out, i)
		if t.writeRun(out[i:j]) != nil {
			all = false
		} else {
			t.evictions.Add(1)
			t.evicted.Add(int64(replacedIn(out[i:j])))
			t.cutLocked(out[i].page, j-i)
		}
		i = j
	}
	return all
}
