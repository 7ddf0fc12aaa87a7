package lob

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/buddy"
	"github.com/eosdb/eos/internal/disk"
)

func TestAppenderIsAWriter(t *testing.T) {
	e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	var w io.Writer = o.OpenAppender(0)
	data := pattern(40, 777)
	n, err := w.Write(data)
	if err != nil || n != len(data) {
		t.Fatalf("Write = (%d, %v)", n, err)
	}
	if err := w.(*Appender).Close(); err != nil {
		t.Fatal(err)
	}
	mustContent(t, o, data)
}

func TestAppenderClosedRejectsWrites(t *testing.T) {
	e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	a := o.OpenAppender(0)
	if _, err := a.Write(pattern(41, 10)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // double close is fine
		t.Fatal(err)
	}
	if _, err := a.Write([]byte{1}); err == nil {
		t.Error("write after close succeeded")
	}
}

func TestAppenderKeepsTailUntrimmedUntilClose(t *testing.T) {
	e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	a := o.OpenAppender(0)
	// Two sub-page writes share the same doubling segment.
	if _, err := a.Write(pattern(42, 60)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(pattern(43, 60)); err != nil {
		t.Fatal(err)
	}
	// Before Close the tail may hold extra allocated pages.
	u, _ := o.Usage()
	preClosePages := u.SegmentPages
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	u, _ = o.Usage()
	if u.SegmentPages > preClosePages {
		t.Errorf("trim grew the object: %d -> %d pages", preClosePages, u.SegmentPages)
	}
	if u.SegmentPages != 2 { // 120 bytes on 100-byte pages
		t.Errorf("pages after trim = %d, want 2", u.SegmentPages)
	}
	mustContent(t, o, append(pattern(42, 60), pattern(43, 60)...))
}

func TestSetGrowthHintShapesSegments(t *testing.T) {
	e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	for _, g := range []int{3, 5, 2} {
		o.SetGrowthHint(g)
		if err := o.Append(pattern(g, g*100)); err != nil {
			t.Fatal(err)
		}
	}
	pages, err := o.SegmentPageCounts()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(pages) != "[3 5 2]" {
		t.Errorf("segment pages = %v, want [3 5 2]", pages)
	}
	// Out-of-range hints are clamped.
	o.SetGrowthHint(0)
	o.SetGrowthHint(1 << 30)
	if o.nextGrow != e.m.alloc.MaxSegmentPages() {
		t.Errorf("oversized hint not clamped: %d", o.nextGrow)
	}
}

func TestAppendSpillsAcrossSpaces(t *testing.T) {
	// An object larger than one buddy space must spread its segments
	// over several spaces.
	e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	data := pattern(44, 60000) // 600 pages over 256-page spaces
	if err := o.AppendWithHint(data, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	mustContent(t, o, data)
	mustCheck(t, o)
	u, _ := o.Usage()
	if u.SegmentCount < 3 {
		t.Errorf("segments = %d, want >= 3 (spread over spaces)", u.SegmentCount)
	}
	if err := o.Destroy(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendOutOfSpace(t *testing.T) {
	e := newEnv(t, 100, 1, 64, Config{Threshold: 1})
	base := e.freePages(t)
	o := e.m.NewObject(0)
	// 64 data pages available; ask for far more.
	err := o.AppendWithHint(pattern(45, 20000), 20000)
	if !errors.Is(err, buddy.ErrNoSpace) {
		t.Fatalf("append beyond volume capacity: err = %v, want ErrNoSpace", err)
	}
	// Nothing of it was applied, nothing of it is still allocated.
	mustContent(t, o, nil)
	mustCheck(t, o)
	if free := e.freePages(t); free != base {
		t.Errorf("free pages %d after the failed append, %d before", free, base)
	}
}

// reachablePlusFree is every page the object owns plus every free page:
// constant unless something leaked or was freed twice.
func reachablePlusFree(t *testing.T, e *env, o *Object) int {
	t.Helper()
	runs, err := o.ReachablePages()
	if err != nil {
		t.Fatal(err)
	}
	total := e.freePages(t)
	for _, r := range runs {
		total += r.Pages
	}
	return total
}

// TestFailedAppendIsAtomic: an append that fails in a later step — the
// tail's free room already filled, some segments already written — leaves
// the object's size, bytes, tail room and growth schedule and the free
// space as they were, and the next append carries on from there.
func TestFailedAppendIsAtomic(t *testing.T) {
	boom := errors.New("boom")
	// An open append sequence: segments of 1, 2 and 4 pages, the last
	// holding 10 of its 400 bytes.
	open := func(t *testing.T) (*env, *Object, []byte, *Appender) {
		e := newEnv(t, 100, 1, 64, Config{Threshold: 1})
		o := e.m.NewObject(0)
		model := pattern(60, 310)
		a := o.OpenAppender(0)
		if _, err := a.Write(model); err != nil {
			t.Fatal(err)
		}
		return e, o, model, a
	}
	check := func(t *testing.T, e *env, o *Object, model []byte, a *Appender, pages int) {
		t.Helper()
		mustContent(t, o, model)
		mustCheck(t, o)
		if got := reachablePlusFree(t, e, o); got != pages {
			t.Errorf("reachable + free = %d pages, %d before the failed append", got, pages)
		}
		// The sequence continues where it was: the room is still there and
		// the next new segment is still the 8-page one.
		more := pattern(61, 1000)
		if _, err := a.Write(more); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		mustContent(t, o, append(model, more...))
		if got, _ := o.SegmentPageCounts(); fmt.Sprint(got) != "[1 2 4 7]" {
			t.Errorf("segments %v after resuming, want [1 2 4 7]", got)
		}
		if got := reachablePlusFree(t, e, o); got != pages {
			t.Errorf("reachable + free = %d pages at the end, want %d", got, pages)
		}
	}

	t.Run("out of space", func(t *testing.T) {
		e, o, model, a := open(t)
		pages := reachablePlusFree(t, e, o)
		// Fills the room, takes the 8-, 16- and 32-page segments, then
		// finds the space exhausted.
		if _, err := a.Write(pattern(62, 9000)); !errors.Is(err, buddy.ErrNoSpace) {
			t.Fatalf("err = %v, want ErrNoSpace", err)
		}
		check(t, e, o, model, a, pages)
	})
	for after := int64(0); after < 4; after++ {
		t.Run(fmt.Sprintf("device error after %d requests", after), func(t *testing.T) {
			e, o, model, a := open(t)
			pages := reachablePlusFree(t, e, o)
			// Requests: read the tail's partial page, write its room, write
			// the 8-page segment, write the 16-page segment.
			e.vol.FailAfter(after, boom)
			_, err := a.Write(pattern(63, 390+800+1))
			e.vol.ClearFault()
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the injected error", err)
			}
			check(t, e, o, model, a, pages)
		})
	}

	// The same for a plain Append into the tail the one before left open
	// (T = 4: 130 bytes in a 4-page segment, both their pages pending): the
	// failure leaves size, tail and room alone, and the run's bytes — still
	// pending, or written with the filled room before the failure (written),
	// which happens only when the bytes behind the room go through.  The
	// next append continues the run, reading and writing nothing, or reads
	// the partial page back.
	reserved := func(t *testing.T) (*env, *Object, []byte) {
		e := newEnv(t, 100, 1, 64, Config{Threshold: 4})
		o := e.m.NewObject(0)
		model := pattern(64, 130)
		if err := o.Append(model); err != nil {
			t.Fatal(err)
		}
		return e, o, model
	}
	type tailState struct {
		size        int64
		start       disk.PageNum
		alloc, grow int
	}
	state := func(o *Object) tailState {
		return tailState{o.size, o.tailStart, o.tailAlloc, o.nextGrow}
	}
	checkReserved := func(t *testing.T, e *env, o *Object, model []byte, before tailState, pages int, written bool) {
		t.Helper()
		mustContent(t, o, model)
		mustCheck(t, o)
		if got := state(o); got != before {
			t.Errorf("after the failed append the tail is %+v, was %+v", got, before)
		}
		if _, n := tailRun(o); (n > 0) == written {
			t.Errorf("after the failed append %d tail pages are pending, want some: %v", n, !written)
		}
		if got := reachablePlusFree(t, e, o); got != pages {
			t.Errorf("reachable + free = %d pages, %d before the failed append", got, pages)
		}
		more := pattern(65, 50)
		evs := traced(t, e, func() error { return o.Append(more) })
		from, want := before.start, 0 // continuing the pending run
		if written {
			from, want = before.start+1, 1 // the partial page read back
		}
		if n, _ := reads(evs); len(evs) != want || n != want {
			t.Errorf("the next append issued %+v, want %d reads and nothing else", evs, want)
		}
		if first, n := tailRun(o); n == 0 || first != from || first+disk.PageNum(n) != before.start+2 {
			t.Errorf("%d pages pending from %d after the next append, want pages %d..%d", n, first, from, before.start+1)
		}
		mustContent(t, o, append(model, more...))
		if got := reachablePlusFree(t, e, o); got != pages {
			t.Errorf("reachable + free = %d pages at the end, want %d", got, pages)
		}
	}
	t.Run("reserved tail, out of space", func(t *testing.T) {
		e, o, model := reserved(t)
		before, pages := state(o), reachablePlusFree(t, e, o)
		if err := o.Append(pattern(66, 9000)); !errors.Is(err, buddy.ErrNoSpace) {
			t.Fatalf("err = %v, want ErrNoSpace", err)
		}
		checkReserved(t, e, o, model, before, pages, true)
	})
	t.Run("reserved tail, out of space behind a pending fill", func(t *testing.T) {
		e, o, model := reserved(t)
		before, pages := state(o), reachablePlusFree(t, e, o)
		set := e.m.cfg.Pending.load()
		// With every free page taken, 350 bytes fill the room — 270, kept in
		// memory, as the 80 behind them would be — and find no page for the
		// rest.  Nothing was written, and the set is the version it was.
		var hog []PageRun
		for {
			p, n, err := e.bm.AllocUpTo(64)
			if err != nil {
				break
			}
			hog = append(hog, PageRun{Start: p, Pages: n})
		}
		var evs []disk.TraceEvent
		e.vol.SetTracer(func(ev disk.TraceEvent) { evs = append(evs, ev) })
		err := o.Append(pattern(66, 350))
		e.vol.SetTracer(nil)
		if !errors.Is(err, buddy.ErrNoSpace) {
			t.Fatalf("err = %v, want ErrNoSpace", err)
		}
		if len(evs) != 0 || e.m.cfg.Pending.load() != set {
			t.Fatalf("the failed append issued %+v and changed the pending set: want neither", evs)
		}
		for _, r := range hog {
			if err := e.bm.Free(r.Start, r.Pages); err != nil {
				t.Fatal(err)
			}
		}
		checkReserved(t, e, o, model, before, pages, false)
	})
	for after := int64(0); after < 2; after++ {
		t.Run(fmt.Sprintf("reserved tail, device error after %d requests", after), func(t *testing.T) {
			e, o, model := reserved(t)
			before, pages := state(o), reachablePlusFree(t, e, o)
			// Requests: write the filled 4-page segment, pending pages and
			// all, then the new 6-page one (520 bytes: it does not stay
			// open).  Nothing is read: the bytes already there are pending.
			e.vol.FailAfter(after, boom)
			err := o.Append(pattern(67, 270+520))
			e.vol.ClearFault()
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the injected error", err)
			}
			checkReserved(t, e, o, model, before, pages, after > 0)
		})
	}
}

// traced runs op and returns the requests the data volume saw.
func traced(t *testing.T, e *env, op func() error) []disk.TraceEvent {
	t.Helper()
	var evs []disk.TraceEvent
	e.vol.SetTracer(func(ev disk.TraceEvent) { evs = append(evs, ev) })
	err := op()
	e.vol.SetTracer(nil)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func reads(evs []disk.TraceEvent) (n, pages int) {
	for _, ev := range evs {
		if !ev.Write {
			n++
			pages += ev.Pages
		}
	}
	return n, pages
}

// TestAppendContinuesItsTail: a plain Append leaves its tail segment open
// to T pages, and the next one goes on in that room — nothing read, nothing
// written, no new segment: the pages stay pending.  One that needs more than
// the room fills it and starts the next T-page run, and writes nothing
// either while that run stays open: the filled segment waits in the set, a
// closed tail's, for a checkpoint.  One whose bytes behind the room go
// through — more than T pages of them — writes the filled room with the
// pending pages around it in one request, then its new segment.
func TestAppendContinuesItsTail(t *testing.T) {
	e := newEnv(t, 100, 2, 256, Config{Threshold: 4})
	base := e.freePages(t)
	o := e.m.NewObject(0)
	pending := func() (disk.PageNum, int) { return tailRun(o) }
	model := pattern(70, 130)
	if evs := traced(t, e, func() error { return o.Append(model) }); len(evs) != 0 {
		t.Fatalf("first append issued %+v, want nothing: its 2 pages pending", evs)
	}
	tail := o.tailStart
	if u, _ := o.Usage(); u.SegmentCount != 1 || u.SegmentPages != 4 {
		t.Fatalf("after the first append: %d segments, %d pages; want 1 segment allocated to T = 4 pages", u.SegmentCount, u.SegmentPages)
	}
	if start, n := pending(); start != tail || n != 2 {
		t.Fatalf("pending pages %d..+%d, want %d..+2", start, n, tail)
	}

	more := pattern(71, 150) // 30 + 150 bytes: pages 1 and 2
	if evs := traced(t, e, func() error { return o.Append(more) }); len(evs) != 0 {
		t.Fatalf("second append issued %+v, want nothing", evs)
	}
	model = append(model, more...)
	if u, _ := o.Usage(); u.SegmentCount != 1 || u.SegmentPages != 4 {
		t.Fatalf("after the second append: %d segments, %d pages; want 1, 4", u.SegmentCount, u.SegmentPages)
	}
	if start, n := pending(); start != tail || n != 3 {
		t.Fatalf("pending pages %d..+%d, want %d..+3", start, n, tail)
	}
	mustContent(t, o, model) // from memory

	// 280 bytes in, 120 of room: 200 more fill it in place and put 80 in a
	// new segment of T pages.  Nothing is read or written: the full segment's
	// 4 pages stay pending, no longer an open tail's, and the new one's page
	// beside them.
	more = pattern(72, 200)
	if evs := traced(t, e, func() error { return o.Append(more) }); len(evs) != 0 {
		t.Fatalf("third append issued %+v, want nothing: the filled segment stays pending", evs)
	}
	model = append(model, more...)
	u, _ := o.Usage()
	if got, _ := o.SegmentPageCounts(); fmt.Sprint(got) != "[4 1]" || u.SegmentPages != 8 {
		t.Fatalf("segments %v on %d pages, want [4 1] on 8: the new tail is open to T pages too", got, u.SegmentPages)
	}
	if start, n := pending(); start != o.tailStart || start == tail || n != 1 {
		t.Fatalf("pending pages %d..+%d, want the new tail's first page %d", start, n, o.tailStart)
	}
	closed := e.m.cfg.Pending.load().between(tail, 4)
	if len(closed) != 4 || closed[0].page != tail {
		t.Fatalf("%d of the filled segment's pages pending, want its 4", len(closed))
	}
	for _, p := range closed {
		if p.kind != closedTail {
			t.Fatalf("page %d pending as kind %d, want a closed tail's", p.page, p.kind)
		}
	}
	if o.tailStart != tail+4 {
		t.Fatalf("the new tail starts at page %d, want %d: right behind the filled one", o.tailStart, tail+4)
	}
	mustContent(t, o, model)
	mustCheck(t, o)

	// A segment that holds T pages of bytes or more is closed like any
	// other: 320 bytes fill the room, the 840 behind them get 9 pages,
	// written through, and nothing stays reserved or pending.  The filled
	// room goes first, in one request with the pending pages before it —
	// both segments, 8 pages —, then the new segment.
	more = pattern(73, 320+840)
	evs := traced(t, e, func() error { return o.Append(more) })
	if len(evs) != 2 || !evs[0].Write || evs[0].Start != tail || evs[0].Pages != 8 || !evs[1].Write || evs[1].Pages != 9 {
		t.Fatalf("fourth append issued %+v, want one write of pages %d..%d, then the new 9-page segment", evs, tail, tail+7)
	}
	model = append(model, more...)
	u, _ = o.Usage()
	if got, _ := o.SegmentPageCounts(); fmt.Sprint(got) != "[4 4 9]" || u.WastedBytes >= 100 || o.tailAlloc != 0 {
		t.Fatalf("after growing past T: segments %v, %d bytes unused, tail %d pages; want [4 4 9], trimmed",
			got, u.WastedBytes, o.tailAlloc)
	}
	if n := e.m.cfg.Pending.load().len(); n != 0 {
		t.Fatalf("%d pages pending in the set, want 0", n)
	}
	mustContent(t, o, model)
	if err := o.Destroy(); err != nil {
		t.Fatal(err)
	}
	if free := e.freePages(t); free != base {
		t.Errorf("%d pages free after destroy, %d at the start", free, base)
	}
}

// TestTailImageFollowsThePage: the pending pages stand in for the device's
// bytes until something writes one of them.  A replace elsewhere leaves them;
// a replace into them reads nothing and writes its page with the pending one
// beside it, in one request, and the next append reads the partial page back
// once.  A held plan over them reads and writes nothing, and the next append
// keeps the continued page held rather than pending.
func TestTailImageFollowsThePage(t *testing.T) {
	e := newEnv(t, 100, 2, 256, Config{Threshold: 4})
	o := e.m.NewObject(0)
	model := pattern(74, 100) // a written segment of its own, then an open tail
	if err := o.AppendWithHint(model, 100); err != nil {
		t.Fatal(err)
	}
	more := pattern(74, 130)
	if err := o.Append(more); err != nil {
		t.Fatal(err)
	}
	model = append(model, more...)
	repl := pattern(75, 20)
	if err := o.Replace(40, repl); err != nil { // the written segment
		t.Fatal(err)
	}
	copy(model[40:], repl)
	more = pattern(76, 20)
	if evs := traced(t, e, func() error { return o.Append(more) }); len(evs) != 0 {
		t.Fatalf("append after a replace elsewhere issued %+v, want nothing", evs)
	}
	model = append(model, more...)

	// Bytes 220..239: the tail's partial page, pending.  The replace takes
	// it from the set and writes it with the tail's other pending page.
	evs := traced(t, e, func() error { return o.Replace(220, repl) })
	if len(evs) != 1 || !evs[0].Write || evs[0].Pages != 2 {
		t.Fatalf("replace into the pending pages issued %+v, want both written in one request", evs)
	}
	if _, n := tailRun(o); n != 0 {
		t.Fatalf("%d tail pages pending after the replace wrote them", n)
	}
	copy(model[220:], repl)
	evs = traced(t, e, func() error { return o.Append(more) })
	if n, pages := reads(evs); n != 1 || pages != 1 || len(evs) != 1 {
		t.Fatalf("append after a replace into the last page issued %+v, want one read of one page", evs)
	}
	model = append(model, more...)
	// The same through a held plan, as a transaction replaces: the plan
	// reads and writes nothing, and the append that continues the tail over
	// the held partial page leaves that page's new image held, not pending:
	// a checkpoint's flush must not write it before PendHeld.
	var plan *ReplacePlan
	if evs := traced(t, e, func() (err error) { plan, err = o.PrepareReplace(250, repl, nil); return err }); len(evs) != 0 {
		t.Fatalf("a plan over the pending pages issued %+v, want nothing", evs)
	}
	plan.Hold()
	if !o.tailHeld() {
		t.Fatal("tailHeld: a plan over the partial last page is not reported")
	}
	committed := append([]byte{}, model...)
	if evs := traced(t, e, func() error { return o.Append(more) }); len(evs) != 0 {
		t.Fatalf("append after a held plan over the last page issued %+v, want nothing", evs)
	}
	copy(model[250:], repl)
	model = append(model, more...)
	mustContent(t, o, model)
	if err := flush(e.m.cfg.Pending); err != nil {
		t.Fatal(err)
	}
	other, err := NewManager(e.vol, e.pool, e.m.alloc, e.m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen, err := other.OpenDescriptor(o.EncodeDescriptor())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := seen.Read(0, int64(len(committed))); err != nil || !bytes.Equal(got, committed) {
		t.Fatalf("the device holds the held replace's bytes before PendHeld (err %v)", err)
	}
	if err := e.m.PendHeld(); err != nil {
		t.Fatal(err)
	}
	mustContent(t, o, model)
	plan, err = o.PrepareReplace(0, repl, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan.Hold()
	if o.tailHeld() {
		t.Fatal("tailHeld: a plan over page 0 does not hold the page an append rewrites")
	}
	e.m.DropHeld()
	mustContent(t, o, model)

	// Writing through — no write-behind set, as in the eosbench stacks —
	// every continuation reads the partial page and writes.
	e = newEnv(t, 100, 2, 256, Config{Threshold: 4})
	m, err := NewManager(e.vol, e.pool, e.bm, Config{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	o = m.NewObject(0)
	if err := o.Append(pattern(77, 130)); err != nil {
		t.Fatal(err)
	}
	evs = traced(t, e, func() error { return o.Append(more) })
	if n, _ := reads(evs); n != 1 || len(evs) != 2 {
		t.Fatalf("writing through, the append into the open tail issued %+v, want one read and one write", evs)
	}
}

// TestNoInPlaceWriteAfterTheTailWasCut: only room no root has ever named is
// written in place.  Once a delete or truncate has cut the tail segment
// (its old bytes may still be named by a durable or snapshot root), and
// after a reopen (the room is soft state), the next append writes nothing
// but pages it has just allocated.
func TestNoInPlaceWriteAfterTheTailWasCut(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(e *env, o *Object) (*Object, error)
		size int64
	}{
		{"delete inside the tail", func(e *env, o *Object) (*Object, error) { return o, o.Delete(840, 20) }, 910},
		{"truncate", func(e *env, o *Object) (*Object, error) { return o, o.Truncate(850) }, 850},
		{"reopen", func(e *env, o *Object) (*Object, error) {
			// A durable descriptor names no page only the set holds.
			if err := flush(e.m.cfg.Pending); err != nil {
				return nil, err
			}
			re, err := e.m.OpenDescriptor(o.EncodeDescriptor())
			if err == nil {
				re.ForgetTail()
				// What the loader does with the room: it is nobody's.
				err = e.bm.Free(o.tailStart+2, 2)
			}
			return re, err
		}, 930},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, 100, 2, 256, Config{Threshold: 4})
			base := e.freePages(t)
			o := e.m.NewObject(0)
			if err := o.AppendWithHint(pattern(80, 800), 800); err != nil {
				t.Fatal(err)
			}
			if err := flush(e.m.cfg.Pending); err != nil { // the hinted append's pages wait for a checkpoint
				t.Fatal(err)
			}
			if err := o.Append(pattern(81, 130)); err != nil {
				t.Fatal(err)
			}
			o, err := tc.cut(e, o)
			if err != nil {
				t.Fatal(err)
			}
			if o.Size() != tc.size {
				t.Fatalf("size %d after the cut, want %d", o.Size(), tc.size)
			}
			if _, n := pendingIn(o.m, 0, int(e.vol.NumPages())); o.tailAlloc != 0 || n != 0 {
				t.Fatalf("after the cut the tail is still open: %d pages, %d pending", o.tailAlloc, n)
			}
			named := map[disk.PageNum]bool{}
			segs, _ := o.Segments()
			for _, s := range segs {
				for i := 0; i < s.Pages; i++ {
					named[s.StartPage+disk.PageNum(i)] = true
				}
			}
			model, _ := o.Read(0, o.Size())
			more := pattern(82, 60)
			for _, ev := range traced(t, e, func() error { return o.Append(more) }) {
				for i := 0; i < ev.Pages; i++ {
					if named[ev.Start+disk.PageNum(i)] {
						t.Errorf("the append after the cut touched page %d, which a root names (%+v)", ev.Start+disk.PageNum(i), ev)
					}
				}
			}
			mustContent(t, o, append(model, more...))
			mustCheck(t, o)
			if err := o.Destroy(); err != nil {
				t.Fatal(err)
			}
			if free := e.freePages(t); free != base {
				t.Errorf("%d pages free after destroy, %d at the start", free, base)
			}
		})
	}
}

func TestReachablePagesCoversEverything(t *testing.T) {
	e := newEnv(t, 100, 8, 256, Config{Threshold: 1, MaxRootEntries: 3})
	base := e.freePages(t)
	o := e.m.NewObject(0)
	for i := 0; i < 40; i++ {
		o.SetGrowthHint(1 + i%3)
		if err := o.Append(pattern(i, 150)); err != nil {
			t.Fatal(err)
		}
	}
	mustCheck(t, o)
	runs, err := o.ReachablePages()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := make(map[int64]bool)
	for _, r := range runs {
		total += r.Pages
		for i := 0; i < r.Pages; i++ {
			p := int64(r.Start) + int64(i)
			if seen[p] {
				t.Fatalf("page %d reported twice", p)
			}
			seen[p] = true
		}
	}
	free := e.freePages(t)
	if free+total != base {
		t.Errorf("reachable %d + free %d != initial %d", total, free, base)
	}
}

func TestZeroLengthOpsAreNoOps(t *testing.T) {
	e := newEnv(t, 100, 2, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	if err := o.Append(pattern(46, 500)); err != nil {
		t.Fatal(err)
	}
	u1, _ := o.Usage()
	if err := o.Append(nil); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(250, nil); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(250, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Replace(250, nil); err != nil {
		t.Fatal(err)
	}
	u2, _ := o.Usage()
	if u1 != u2 {
		t.Errorf("zero-length ops changed usage: %+v -> %+v", u1, u2)
	}
	mustContent(t, o, pattern(46, 500))
}

func TestFaultDuringInsertSurfacesError(t *testing.T) {
	e := newEnv(t, 100, 4, 256, Config{Threshold: 4})
	o := e.m.NewObject(0)
	if err := o.Append(pattern(47, 3000)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for after := int64(0); after < 5; after++ {
		e.vol.FailAfter(after, boom)
		err := o.Insert(1500, pattern(48, 50))
		e.vol.ClearFault()
		if err != nil && !errors.Is(err, boom) {
			t.Errorf("after %d: unexpected error %v", after, err)
		}
	}
	// Reads still work once faults clear.
	if _, err := o.Read(0, 100); err != nil {
		t.Fatal(err)
	}
}

func TestRebindSwitchesManager(t *testing.T) {
	e := newEnv(t, 100, 4, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	if err := o.Append(pattern(49, 500)); err != nil {
		t.Fatal(err)
	}
	// A second manager over the same stack.
	m2, err := NewManager(e.vol, e.pool, e.bm, Config{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	o.Rebind(m2)
	if err := o.Insert(100, pattern(50, 30)); err != nil {
		t.Fatal(err)
	}
	if m2.Stats().Inserts != 1 {
		t.Error("operation not routed through the rebound manager")
	}
	want := append(pattern(49, 500)[:100:100], append(pattern(50, 30), pattern(49, 500)[100:]...)...)
	got, _ := o.Read(0, o.Size())
	if !bytes.Equal(got, want) {
		t.Error("content wrong after rebind")
	}
}

// TestWrittenRunIsNotPinnedByVersions: a published version reads pending
// pages from the write-behind set; once they are written, the version reads
// the device, and nothing it holds keeps their memory alive.
func TestWrittenRunIsNotPinnedByVersions(t *testing.T) {
	e := newEnv(t, 100, 2, 256, Config{Threshold: 4})
	o := e.m.NewObject(0)
	model := pattern(1, 130)
	if err := o.Append(model); err != nil {
		t.Fatal(err)
	}
	o.Publish()
	v := o.Published()
	if err := o.Append(pattern(2, 50)); err != nil {
		t.Fatal(err)
	}
	o.Publish()
	set := e.m.cfg.Pending.set.Load()
	if set == nil {
		t.Fatal("nothing pending after two appends")
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(set, func(*pendingSet) { close(freed) })
	set = nil
	if evs := traced(t, e, func() error {
		got, err := v.Read(0, 130)
		if err == nil && !bytes.Equal(got, model) {
			err = fmt.Errorf("version read %q", got)
		}
		return err
	}); len(evs) != 0 {
		t.Fatalf("version read of pending pages issued %+v, want nothing", evs)
	}
	if err := flush(e.m.cfg.Pending); err != nil {
		t.Fatal(err)
	}
	if _, n := tailRun(o); n != 0 {
		t.Fatal("the pages are still pending after the flush")
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(10 * time.Millisecond):
			if time.Now().Before(deadline) {
				continue
			}
			t.Fatal("a published version keeps the written pages' memory alive")
		}
		break
	}
	if got, err := v.Read(0, 130); err != nil || !bytes.Equal(got, model) {
		t.Fatalf("version read from the device: %v", err)
	}
	runtime.KeepAlive(v)
}

// TestPendingBudget: after every install the pending pages stay within the
// set's limit — what a store derives from its log's capacity, here 12 pages
// — whatever the pool holds.  The install that goes over writes back a
// committed replace's pages before any open tail's, though the tails' runs
// are longer; then the largest tail run, the lowest on a tie, in one
// request; and the object whose tail was written goes on from the device.
func TestPendingBudget(t *testing.T) {
	e := newEnvFrames(t, 100, 2, 256, 4, Config{Threshold: 4}) // a limit of 3 × 4 pages
	within := func() {
		t.Helper()
		if n := e.m.cfg.Pending.load().len(); n > e.m.cfg.Pending.limit || e.m.cfg.Pending.limit != 12 {
			t.Fatalf("%d pages pending, over the limit of %d (want 12)", n, e.m.cfg.Pending.limit)
		}
	}
	w := e.m.NewObject(0)
	wm := pattern(9, 800)
	if err := w.AppendWithHint(wm, 800); err != nil { // 8 pages, pending
		t.Fatal(err)
	}
	if err := flush(e.m.cfg.Pending); err != nil { // and written, as a checkpoint does
		t.Fatal(err)
	}
	repl := pattern(8, 100)
	plan, err := w.PrepareReplace(50, repl, nil) // pages 0 and 1
	if err != nil {
		t.Fatal(err)
	}
	plan.Hold()
	if evs := traced(t, e, e.m.PendHeld); len(evs) != 0 {
		t.Fatalf("the committed replace issued %+v, want nothing: its pages pending", evs)
	}
	copy(wm[50:], repl)
	within()
	wStart := w.root.entries[0].ptr
	var objs []*Object
	var models [][]byte
	var evictions [][]disk.TraceEvent
	for len(evictions) < 2 && len(objs) < 8 {
		o := e.m.NewObject(0)
		objs, models = append(objs, o), append(models, pattern(10+len(objs), 250)) // 3 pages pending each
		if evs := traced(t, e, func() error { return o.Append(models[len(models)-1]) }); len(evs) > 0 {
			evictions = append(evictions, evs)
		}
		within()
	}
	if len(evictions) < 2 {
		t.Fatalf("%d tails pending and %d installs went over the budget, want 2", len(objs), len(evictions))
	}
	if evs := evictions[0]; len(evs) != 1 || !evs[0].Write || evs[0].Start != wStart || evs[0].Pages != 2 {
		t.Fatalf("the first install over the budget issued %+v, want the replaced pages %d..%d written in one request", evs, wStart, wStart+1)
	}
	if evs := evictions[1]; len(evs) != 1 || !evs[0].Write || evs[0].Start != objs[0].tailStart || evs[0].Pages != 3 {
		t.Fatalf("the second install over the budget issued %+v, want the first object's 3 tail pages written in one request", evs)
	}
	if st := e.m.Stats(); st.PendingEvictions != 2 || st.ReplacedPages != 2 || st.ReplacedEvicted != 2 || st.ReplacedPending != 0 {
		t.Fatalf("%d runs written early, %d replaced pages in, %d evicted, %d pending; want 2, 2, 2, 0",
			st.PendingEvictions, st.ReplacedPages, st.ReplacedEvicted, st.ReplacedPending)
	}
	more := pattern(20, 30)
	if n, _ := reads(traced(t, e, func() error { return objs[0].Append(more) })); n != 1 {
		t.Fatalf("the written-back object's next append read %d times, want its partial page once", n)
	}
	within()
	models[0] = append(models[0], more...)
	mustContent(t, w, wm)
	for i, o := range objs {
		mustContent(t, o, models[i])
	}
}

// TestPendingBudgetClosedTailsFirst: a tail an append filled stays pending,
// but no append continues it any more, so over the limit its pages go before
// any open tail's, though an open tail's run is as long: all 4 of them — the
// ones the earlier append left and the ones the fill rewrote — in one
// request.  The open tails stay.
func TestPendingBudgetClosedTailsFirst(t *testing.T) {
	e := newEnvFrames(t, 100, 2, 256, 4, Config{Threshold: 4}) // a limit of 12 pages
	a := e.m.NewObject(0)
	am := append(pattern(30, 130), pattern(31, 300)...)
	if err := a.Append(am[:130]); err != nil {
		t.Fatal(err)
	}
	closed := a.tailStart
	if evs := traced(t, e, func() error { return a.Append(am[130:]) }); len(evs) != 0 { // 270 fill the room, 30 open the next tail
		t.Fatalf("the fill issued %+v, want nothing", evs)
	}
	var objs []*Object
	var models [][]byte
	var evs []disk.TraceEvent
	for len(evs) == 0 && len(objs) < 4 {
		o := e.m.NewObject(0)
		objs, models = append(objs, o), append(models, pattern(40+len(objs), 350)) // 4 pages pending each, open
		evs = traced(t, e, func() error { return o.Append(models[len(models)-1]) })
	}
	if len(evs) != 1 || !evs[0].Write || evs[0].Start != closed || evs[0].Pages != 4 {
		t.Fatalf("the install over the budget issued %+v, want the closed tail's 4 pages from %d written in one request", evs, closed)
	}
	for i, o := range objs {
		if _, n := tailRun(o); n != 4 {
			t.Fatalf("object %d has %d tail pages pending, want its 4", i, n)
		}
		mustContent(t, o, models[i])
	}
	if _, n := tailRun(a); n != 1 {
		t.Fatalf("a's new tail has %d pages pending, want 1", n)
	}
	mustContent(t, a, am)
}

// TestHintedAppendOverTheLimit: a hinted append waits in the write-behind
// set only while the pages it fills — its bytes' and one more for a fill —
// fit in the set's limit.  One of 12 pages against a limit of 12 is written
// at once from the caller's bytes, in one request, still right after the
// object's last segment, and leaves nothing pending; one of 11 pages is
// placed behind it and issues no request.
func TestHintedAppendOverTheLimit(t *testing.T) {
	e := newEnvFrames(t, 100, 2, 256, 4, Config{Threshold: 4}) // a limit of 12 pages
	o := e.m.NewObject(0)
	model := pattern(35, 300)
	if err := o.AppendWithHint(model, 300); err != nil {
		t.Fatal(err)
	}
	if err := flush(e.m.cfg.Pending); err != nil {
		t.Fatal(err)
	}
	segs, err := o.Segments()
	if err != nil {
		t.Fatal(err)
	}
	after := segs[0].StartPage + 3
	big := pattern(36, 1200)
	evs := traced(t, e, func() error { return o.AppendWithHint(big, 1200) })
	if len(evs) != 1 || !evs[0].Write || evs[0].Start != after || evs[0].Pages != 12 {
		t.Fatalf("the append over the limit issued %+v, want its 12 pages written at %d in one request", evs, after)
	}
	if n := e.m.cfg.Pending.load().len(); n != 0 {
		t.Fatalf("%d pages pending after the append over the limit, want none", n)
	}
	model = append(model, big...)
	small := pattern(37, 1100)
	if evs := traced(t, e, func() error { return o.AppendWithHint(small, 1100) }); len(evs) != 0 {
		t.Fatalf("the append within the limit issued %+v, want nothing", evs)
	}
	if p, n := pendingIn(e.m, after+12, 11); p != after+12 || n != 11 {
		t.Fatalf("%d pages pending from %d, want the 11 from %d", n, p, after+12)
	}
	model = append(model, small...)
	mustContent(t, o, model)
	mustCheck(t, o)
}

// TestReinstateReopensAFilledTail: an abort of an append that filled the
// tail reinstates the tail open, and its pages in the set with it: the room
// the append filled leaves the set, and the pages before it are an open
// tail's again, whose images hold the committed bytes.
func TestReinstateReopensAFilledTail(t *testing.T) {
	e := newEnv(t, 100, 2, 256, Config{Threshold: 4})
	o := e.m.NewObject(0)
	model := pattern(32, 130)
	if err := o.Append(model); err != nil {
		t.Fatal(err)
	}
	desc, tail := o.PublishDescriptor(), o.tailStart
	if err := o.Append(pattern(33, 300)); err != nil { // fills the room, opens a new tail
		t.Fatal(err)
	}
	next := o.tailStart
	if err := o.Reinstate(desc); err != nil {
		t.Fatal(err)
	}
	e.m.Forget(next, 4) // what the aborted append allocated, as the abort's caller does
	if err := e.m.alloc.FreeUnpublished(next, 4); err != nil {
		t.Fatal(err)
	}
	pages := e.m.cfg.Pending.load().between(tail, 4)
	if len(pages) != 2 || pages[0].page != tail {
		t.Fatalf("%d of the tail's pages pending after the abort, want its first 2", len(pages))
	}
	for _, p := range pages {
		if p.kind != openTail {
			t.Fatalf("page %d pending as kind %d after the abort, want an open tail's", p.page, p.kind)
		}
	}
	mustContent(t, o, model)
	more := pattern(34, 50)
	if evs := traced(t, e, func() error { return o.Append(more) }); len(evs) != 0 {
		t.Fatalf("the append behind the abort issued %+v, want nothing", evs)
	}
	mustContent(t, o, append(model, more...))
}

// TestPendingSetMatchesAMap drives the write-behind set's chunked versions
// with random installs and drops over a few hundred pages — runs that cross
// chunk boundaries, replaces over tail pages and tail pages over replaced
// ones — against a map, and checks every version's shape: chunks sorted,
// non-empty and at most chunkPages long, and its counts right.  Every range
// read and every single page agree with the map.
func TestPendingSetMatchesAMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var set *pendingSet
	model := map[disk.PageNum]pendingPage{}
	check := func(step int) {
		t.Helper()
		n, replaced, last := 0, 0, disk.PageNum(0)
		if set != nil {
			for ci, c := range set.chunks {
				if len(c) == 0 || len(c) > chunkPages {
					t.Fatalf("step %d: chunk %d holds %d pages", step, ci, len(c))
				}
				for _, p := range c {
					if n > 0 && p.page <= last {
						t.Fatalf("step %d: page %d after %d", step, p.page, last)
					}
					if m, ok := model[p.page]; !ok || !sameImage(m.img, p.img) || m.kind != p.kind {
						t.Fatalf("step %d: page %d is not the model's", step, p.page)
					}
					n, last = n+1, p.page
					if p.kind == replacedPage {
						replaced++
					}
				}
			}
		}
		if n != len(model) || set.len() != n || (set != nil && set.replaced != replaced) {
			t.Fatalf("step %d: %d pages (%d replaced) counted %d, model %d", step, n, replaced, set.len(), len(model))
		}
		start, k := disk.PageNum(rng.Intn(400)), 1+rng.Intn(150)
		got := set.between(start, k)
		want := 0
		for p := start; p < start+disk.PageNum(k); p++ {
			if _, ok := model[p]; ok {
				want++
			}
			if m, ok := model[p]; ok {
				if g, gok := set.get(p); !gok || !sameImage(g.img, m.img) {
					t.Fatalf("step %d: get(%d) is not the model's", step, p)
				}
			} else if _, gok := set.get(p); gok {
				t.Fatalf("step %d: get(%d) found a page the model lacks", step, p)
			}
		}
		if len(got) != want {
			t.Fatalf("step %d: between(%d, %d) holds %d pages, want %d", step, start, k, len(got), want)
		}
	}
	for step := 0; step < 3000; step++ {
		start, k := disk.PageNum(rng.Intn(400)), 1+rng.Intn(100)
		if rng.Intn(3) > 0 {
			kind := pageKind(rng.Intn(3))
			var add []pendingPage
			for p := start; p < start+disk.PageNum(k); p++ {
				if rng.Intn(3) > 0 {
					add = append(add, pendingPage{page: p, img: make([]byte, 1), kind: kind})
				}
			}
			for _, a := range add {
				if old, ok := model[a.page]; ok && a.kind == replacedPage {
					a.kind = old.kind
				}
				model[a.page] = a
			}
			set, _ = set.with(add)
		} else {
			keepTails := rng.Intn(2) == 0
			set, _ = set.without(start, k, func(p pendingPage) bool { return !(keepTails && p.kind != replacedPage) })
			for p := start; p < start+disk.PageNum(k); p++ {
				if m, ok := model[p]; ok && !(keepTails && m.kind != replacedPage) {
					delete(model, p)
				}
			}
			if len(model) == 0 && set != nil {
				t.Fatalf("step %d: an emptied set is not nil", step)
			}
		}
		check(step)
	}
}
