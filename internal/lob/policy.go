package lob

import (
	"sync/atomic"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

// An object's segment size threshold T follows its traffic unless its
// creator or SetThreshold pinned it.
//
// §4.4's T buys read clustering with reshuffle transfers: a larger T moves
// more pages into an insert's or a delete's new segment, and leaves fewer
// segment boundaries for a read to cross.  Each object prices both sides of
// that trade with the store's cost model (disk.DefaultCostModel, the model
// BridgePages reads):
//
//   - W, the reshuffle side: the pages its inserts and deletes moved, each
//     read once and written once;
//   - R, the boundary side: the device requests its operations issued
//     beyond the first because their bytes spanned another segment, and
//     that repositioned the head — object, snapshot and transaction reads,
//     replace plans, and a delete's gather whose two ranges lie in
//     different segments —, each a seek and a rotational delay.  A segment
//     whose pages follow the last request's, or that the write-behind set
//     holds, costs no seek, and counts nothing.
//
// Both are counted per window; the store starts a new one at every
// checkpoint (Manager.NewWindow).  The object's first insert or delete in the
// next window, under the object's latch, weighs the counts and starts them
// again (adapt): when W exceeds R by more than a margin T drops one page,
// never below 1; when R exceeds W by more than it T rises one page, never
// above the manager's T; a window where either side is 0 moves nothing, so
// append-only and read-only objects, and objects only inserted into that
// nobody reads, keep the manager's T.

// marginShift sets the margin by which one side must exceed the other to
// move T: 1/2^marginShift of the other side, so half.  A window's counts are
// noisy — a few hundred operations an object —, and a wide margin lets T
// settle where a narrow one keeps it wandering: edit_mix's model I/O time
// per operation read 47.23, 47.28, 47.34 and 47.32 ms at margins of 1/2,
// 1/4, 1/8 and 1/16 (seed 1, before reads carried their window;
// EXPERIMENTS.md §P64).
const marginShift = 1

// traffic is what an object's operations cost, by window.
type traffic struct {
	window uint64 // eos:guardedby catEntry.latch -- the manager's window moved belongs to
	moved  int64  // eos:guardedby catEntry.latch -- pages inserts and deletes reshuffled
	// split counts, by window, the requests beyond an operation's first that
	// crossed into another segment and repositioned.  Reads add to it beside
	// the window's edge and without the object's latch — snapshot reads
	// through the versions the object published —, so each count carries
	// its window, and a window's reads stay apart from the next one's.
	split windowReads
}

// windowReads holds the split counts of two windows, each in the slot of its
// window's parity, tagged with the window's low bits.
type windowReads [2]atomic.Uint64

const (
	countBits = 40
	countMask = 1<<countBits - 1
	tagMask   = 1<<(64-countBits) - 1
)

// add counts n in window w.  A slot still holding the count of an earlier
// window of w's parity starts again.
func (r *windowReads) add(w uint64, n int64) {
	slot, tag := &r[w&1], w&tagMask
	for {
		v := slot.Load()
		next := tag<<countBits | uint64(n)
		if v>>countBits == tag {
			next = v + uint64(n)
		}
		if slot.CompareAndSwap(v, next) {
			return
		}
	}
}

// of returns the count of window w.
func (r *windowReads) of(w uint64) int64 {
	if v := r[w&1].Load(); v>>countBits == w&tagMask {
		return int64(v & countMask)
	}
	return 0
}

// newTraffic starts an object's counts in m's current window.
func (m *Manager) newTraffic() *traffic { return &traffic{window: m.st.window.Load()} }

// NewWindow starts a new pricing window: each object whose T is not pinned
// weighs the traffic it counted in the last one at its next insert or
// delete.  It takes no object latch.
func (m *Manager) NewWindow() { m.st.window.Add(1) }

// seeks follows one operation's device requests, and counts each one past
// the first that repositions the head — that does not start at the page
// after the last one's — in its object's split for the window it began in.
// It is also the data volume as m's sets show it (readPages), for a gather
// that notes its requests.
type seeks struct {
	split  *windowReads
	window uint64
	last   pageRange // the last request
	m      *Manager
}

// seeking returns the seeks of an operation of m's that counts in split.
func (m *Manager) seeking(split *windowReads) seeks {
	return seeks{split: split, window: m.st.window.Load(), m: m}
}

func (s *seeks) PageSize() int { return s.m.vol.PageSize() }
func (s *seeks) ReadPages(start disk.PageNum, n int, buf []byte) error {
	dev, err := s.m.readPages(start, n, buf)
	s.add(dev)
	return err
}

// add notes a request for the pages dev; none when dev is empty.
func (s *seeks) add(dev pageRange) {
	if dev.end == dev.start {
		return
	}
	if s.last.end != s.last.start && dev.start != s.last.end {
		s.split.add(s.window, 1)
	}
	s.last = dev
}

// price returns the modelled cost of moving moved pages and of split
// requests beyond the first: W and R.
func price(moved, split int64) (w, r time.Duration) {
	c := disk.DefaultCostModel()
	return time.Duration(moved*2*c.TransferMicrosPerPage) * time.Microsecond,
		time.Duration(split*(c.SeekMicros+c.RotationalMicros)) * time.Microsecond
}

// adapt weighs the window moved belongs to once the manager has started
// another, moves an unpinned T by at most one page, and starts the counts
// again.  An insert or a delete calls it first, under the object's latch.
func (o *Object) adapt() {
	window := o.m.st.window.Load()
	if o.window == window {
		return
	}
	w, r := price(o.moved, o.split.of(o.window))
	o.window, o.moved = window, 0
	if o.pinned || w == 0 || r == 0 {
		return
	}
	t := o.threshold
	switch {
	case w > r+r>>marginShift:
		t = max(t-1, 1)
	case r > w+w>>marginShift:
		t = min(t+1, o.m.cfg.Threshold)
	}
	if t != o.threshold {
		o.threshold = t
		o.m.st.thresholdMoves.Add(1)
	}
}

// Policy is an object's segment size threshold T and what chooses it.
type Policy struct {
	Threshold int
	// Pinned: the object's creator or SetThreshold chose T.  Otherwise T
	// follows the traffic Reshuffle and Boundary price.
	Pinned bool
	// Reshuffle and Boundary are W and R of the current window, modelled:
	// the reshuffled pages' transfers, and the seeks of the reads beyond an
	// operation's first that crossed a segment boundary.
	Reshuffle, Boundary time.Duration
}

// Policy returns the object's T, whether it is pinned, and the current
// window's W and R.  The caller holds the object's latch.
func (o *Object) Policy() Policy {
	window := o.m.st.window.Load()
	moved := o.moved
	if o.window != window {
		moved = 0
	}
	w, r := price(moved, o.split.of(window))
	return Policy{Threshold: o.threshold, Pinned: o.pinned, Reshuffle: w, Boundary: r}
}
