package lob

import (
	"slices"
	"sort"

	"github.com/eosdb/eos/internal/disk"
)

// The held set: an open write scope's replaced pages.
//
// A replace in a write scope writes nothing (ReplacePlan.Hold): the images of
// the pages it rewrote stay with the scope's manager, which reads them
// before the write-behind set and the device (readPages).  So a
// transaction's own later operations see its bytes — a read, another replace,
// the old bytes an insert, delete or compaction copies into fresh pages —
// while snapshots, which read through the store's manager, do not.  At the
// scope's commit point — a transaction's once its commit record is forced,
// an Object Replace's at once — the images enter the write-behind set
// (PendHeld); a scope that goes back forgets them (DropHeld).  No
// uncommitted byte ever reaches a page a committed root names, on the device
// or in the write-behind set, so recovery has nothing to undo.
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

// held is a manager's held set.  Only the write scope the manager serves
// reads and changes it: every reader outside the scope reads a published
// version, which reads through the store's manager.
type held struct {
	set []heldPage // sorted by page
}

// hold puts pages into the set over the images it holds of them.
func (h *held) hold(add []heldPage) {
	if len(add) == 0 {
		return
	}
	sort.Slice(add, func(i, j int) bool { return add[i].page < add[j].page })
	old := h.set
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
	h.set = append(out, old[i:]...)
}

// free drops the held pages among [start, start+n).
func (h *held) free(start disk.PageNum, n int) {
	lo, hi := span(h.set, start, n)
	h.set = slices.Delete(h.set, lo, hi)
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
// held set: the scope is at its commit point — a transaction's commit record
// is durable —, and the images may reach the device from now on.  With no
// set (Config.Pending nil) they are written.
func (m *Manager) PendHeld() error {
	held := m.held.set
	m.DropHeld()
	pages := make([]pendingPage, len(held))
	for i, h := range held {
		pages[i] = pendingPage{page: h.page, img: h.img}
	}
	if t := m.cfg.Pending; t != nil && len(pages) > 0 {
		t.install(pages, nil)
		return nil
	}
	for _, p := range pages {
		if err := m.writeImage(p.page, p.img); err != nil {
			return err
		}
	}
	return nil
}

// DropHeld forgets the held pages unwritten: their scope went back.
func (m *Manager) DropHeld() { m.held.set = nil }
