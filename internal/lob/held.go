package lob

import (
	"sort"
	"sync/atomic"

	"github.com/eosdb/eos/internal/disk"
)

// The held set: an open transaction's replaced pages.
//
// A transactional replace writes nothing (ReplacePlan.Hold): the images of
// the pages it rewrote stay with the transaction's manager, which reads them
// before the write-behind set and the device (readPages).  So the
// transaction's own later operations see its bytes — a read, another replace,
// the old bytes an insert, delete or compaction copies into fresh pages —
// while snapshots, which read through the store's manager, do not.  Once the
// commit record is forced the images enter the write-behind set (PendHeld);
// an abort forgets them (DropHeld).  No uncommitted byte ever reaches a page
// a committed root names, on the device or in the write-behind set, so
// recovery has nothing to undo.
//
// One other writer keeps to that: an append that continues a tail whose
// partial last page is held puts that page's new image in the held set, not
// in place (appendBytes).  A held page a later operation of the transaction
// frees leaves the set: no image may outlive its page's owner.

// heldPage is the image of one held page.
type heldPage struct {
	page disk.PageNum
	img  []byte // one page; nobody writes to it once it is held
}

func (p heldPage) pageNum() disk.PageNum { return p.page }

// held is a manager's held set.  Its transaction changes it, replacing it
// whole; a non-transactional reader of an object the transaction has bound
// may load it at any time.
type held struct {
	set atomic.Pointer[[]heldPage] // sorted by page; nil when empty
}

// load returns the pages held now, sorted.
func (h *held) load() []heldPage {
	if p := h.set.Load(); p != nil {
		return *p
	}
	return nil
}

// hold puts pages into the set over the images it holds of them.
func (h *held) hold(add []heldPage) {
	if len(add) == 0 {
		return
	}
	sort.Slice(add, func(i, j int) bool { return add[i].page < add[j].page })
	old := h.load()
	out := make([]heldPage, 0, len(old)+len(add))
	i := 0
	for _, a := range add {
		for i < len(old) && old[i].page < a.page {
			out = append(out, old[i])
			i++
		}
		if i < len(old) && old[i].page == a.page {
			i++
		}
		out = append(out, a)
	}
	out = append(out, old[i:]...)
	h.set.Store(&out)
}

// free drops the held pages among [start, start+n).
func (h *held) free(start disk.PageNum, n int) {
	pages := h.load()
	lo, hi := span(pages, start, n)
	if lo == hi {
		return
	}
	out := append(append(make([]heldPage, 0, len(pages)-(hi-lo)), pages[:lo]...), pages[hi:]...)
	h.set.Store(&out)
}

// heldImages splits raw, whole-page images of the pages from start on, into
// held pages.  They share raw's memory.
func heldImages(start disk.PageNum, raw []byte, ps int) []heldPage {
	out := make([]heldPage, len(raw)/ps)
	for i := range out {
		out[i] = heldPage{page: start + disk.PageNum(i), img: raw[i*ps : (i+1)*ps]}
	}
	return out
}

// PendHeld hands the held pages to the write-behind set and empties the
// held set: the transaction's commit record is durable, and the images may
// reach the device from now on.  With no set (Config.Pending nil) they are
// written.
func (m *Manager) PendHeld() error {
	held := m.held.load()
	m.DropHeld()
	pages := make([]pendingPage, len(held))
	for i, h := range held {
		pages[i] = pendingPage{page: h.page, img: h.img}
	}
	if t := m.cfg.Pending; t != nil && len(pages) > 0 {
		t.install(pages)
		return nil
	}
	for _, p := range pages {
		if err := m.writeImage(p.page, p.img); err != nil {
			return err
		}
	}
	return nil
}

// DropHeld forgets the held pages unwritten: their transaction aborted.
func (m *Manager) DropHeld() { m.held.set.Store(nil) }
