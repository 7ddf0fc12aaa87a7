package lob

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

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
	// (T = 4: 130 bytes in a 4-page segment, the last 30 remembered): the
	// failure leaves size, tail, room and image alone, and the next append
	// still continues the page without reading it.
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
		img         string
	}
	state := func(o *Object) tailState {
		return tailState{o.size, o.tailStart, o.tailAlloc, o.nextGrow, string(o.tailImg)}
	}
	checkReserved := func(t *testing.T, e *env, o *Object, model []byte, before tailState, pages int) {
		t.Helper()
		mustContent(t, o, model)
		mustCheck(t, o)
		if got := state(o); got != before {
			t.Errorf("after the failed append the tail is %+v, was %+v", got, before)
		}
		if got := reachablePlusFree(t, e, o); got != pages {
			t.Errorf("reachable + free = %d pages, %d before the failed append", got, pages)
		}
		more := pattern(65, 50)
		evs := traced(t, e, func() error { return o.Append(more) })
		if len(evs) != 1 || !evs[0].Write || evs[0].Start != before.start+1 || evs[0].Pages != 1 {
			t.Errorf("the next append issued %+v, want one write of the remembered page", evs)
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
		checkReserved(t, e, o, model, before, pages)
	})
	for after := int64(0); after < 2; after++ {
		t.Run(fmt.Sprintf("reserved tail, device error after %d requests", after), func(t *testing.T) {
			e, o, model := reserved(t)
			before, pages := state(o), reachablePlusFree(t, e, o)
			// Requests: write the room (nothing is read: the image), write
			// the new 4-page segment.
			e.vol.FailAfter(after, boom)
			err := o.Append(pattern(67, 270+120))
			e.vol.ClearFault()
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the injected error", err)
			}
			checkReserved(t, e, o, model, before, pages)
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
// to T pages, and the next one goes on in that room — one write covering
// the partial page and the pages behind it, nothing read, no new segment.
// One that needs more than the room fills it and starts the next T-page run.
func TestAppendContinuesItsTail(t *testing.T) {
	e := newEnv(t, 100, 2, 256, Config{Threshold: 4})
	base := e.freePages(t)
	o := e.m.NewObject(0)
	model := pattern(70, 130)
	evs := traced(t, e, func() error { return o.Append(model) })
	if len(evs) != 1 || !evs[0].Write || evs[0].Pages != 2 {
		t.Fatalf("first append issued %+v, want one write of 2 pages", evs)
	}
	tail := evs[0].Start
	if u, _ := o.Usage(); u.SegmentCount != 1 || u.SegmentPages != 4 {
		t.Fatalf("after the first append: %d segments, %d pages; want 1 segment allocated to T = 4 pages", u.SegmentCount, u.SegmentPages)
	}

	more := pattern(71, 150) // 30 + 150 bytes: pages 1 and 2
	evs = traced(t, e, func() error { return o.Append(more) })
	if len(evs) != 1 || !evs[0].Write || evs[0].Start != tail+1 || evs[0].Pages != 2 {
		t.Fatalf("second append issued %+v, want one write of pages %d..%d", evs, tail+1, tail+2)
	}
	model = append(model, more...)
	if u, _ := o.Usage(); u.SegmentCount != 1 || u.SegmentPages != 4 {
		t.Fatalf("after the second append: %d segments, %d pages; want 1, 4", u.SegmentCount, u.SegmentPages)
	}

	// 280 bytes in, 120 of room: 200 more fill it in place (pages 2 and 3)
	// and put 80 in a new run of T pages.
	more = pattern(72, 200)
	evs = traced(t, e, func() error { return o.Append(more) })
	if len(evs) != 2 || !evs[0].Write || evs[0].Start != tail+2 || evs[0].Pages != 2 ||
		!evs[1].Write || evs[1].Pages != 1 || (evs[1].Start >= tail && evs[1].Start < tail+4) {
		t.Fatalf("third append issued %+v, want a write of pages %d..%d and one page of a new segment", evs, tail+2, tail+3)
	}
	model = append(model, more...)
	u, _ := o.Usage()
	if got, _ := o.SegmentPageCounts(); fmt.Sprint(got) != "[4 1]" || u.SegmentPages != 8 {
		t.Fatalf("segments %v on %d pages, want [4 1] on 8: the new tail is open to T pages too", got, u.SegmentPages)
	}
	mustContent(t, o, model)
	mustCheck(t, o)

	// A segment that holds T pages of bytes or more is closed like any
	// other: 320 bytes fill the room, the 840 behind them get 9 pages and
	// nothing stays reserved or remembered.
	more = pattern(73, 320+840)
	if err := o.Append(more); err != nil {
		t.Fatal(err)
	}
	model = append(model, more...)
	u, _ = o.Usage()
	if got, _ := o.SegmentPageCounts(); fmt.Sprint(got) != "[4 4 9]" || u.WastedBytes >= 100 || o.tailAlloc != 0 || o.tailImg != nil {
		t.Fatalf("after growing past T: segments %v, %d bytes unused, tail %d pages, image %d bytes; want [4 4 9], trimmed",
			got, u.WastedBytes, o.tailAlloc, len(o.tailImg))
	}
	mustContent(t, o, model)
	if err := o.Destroy(); err != nil {
		t.Fatal(err)
	}
	if free := e.freePages(t); free != base {
		t.Errorf("%d pages free after destroy, %d at the start", free, base)
	}
}

// TestTailImageFollowsThePage: the image stands for the device's bytes of
// the partial page only until something else writes that page.  A replace
// elsewhere leaves it; a replace into the page drops it, and the next
// append reads that one page once.
func TestTailImageFollowsThePage(t *testing.T) {
	e := newEnv(t, 100, 2, 256, Config{Threshold: 4})
	o := e.m.NewObject(0)
	model := pattern(74, 130)
	if err := o.Append(model); err != nil {
		t.Fatal(err)
	}
	repl := pattern(75, 20)
	if err := o.Replace(40, repl); err != nil { // page 0
		t.Fatal(err)
	}
	copy(model[40:], repl)
	more := pattern(76, 20)
	if n, _ := reads(traced(t, e, func() error { return o.Append(more) })); n != 0 {
		t.Fatalf("append after a replace elsewhere read %d times, want 0", n)
	}
	model = append(model, more...)

	if err := o.Replace(120, repl); err != nil { // page 1, the partial one
		t.Fatal(err)
	}
	copy(model[120:], repl)
	evs := traced(t, e, func() error { return o.Append(more) })
	if n, pages := reads(evs); n != 1 || pages != 1 || len(evs) != 2 {
		t.Fatalf("append after a replace into the last page issued %+v, want one read of one page and one write", evs)
	}
	model = append(model, more...)
	// The same through a prepared plan, applied after the append that
	// followed its preparation would have been settled by the caller.
	plan, err := o.PrepareReplace(150, repl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !o.AppendRewrites(plan) {
		t.Fatal("AppendRewrites: a plan over the partial last page is not reported")
	}
	if err := plan.Apply(); err != nil {
		t.Fatal(err)
	}
	copy(model[150:], repl)
	if n, _ := reads(traced(t, e, func() error { return o.Append(more) })); n != 1 {
		t.Fatalf("append after an applied plan over the last page read %d times, want 1", n)
	}
	model = append(model, more...)
	if plan, err = o.PrepareReplace(0, repl, nil); err != nil {
		t.Fatal(err)
	}
	if o.AppendRewrites(plan) || o.AppendRewrites(nil) {
		t.Fatal("AppendRewrites: a plan over page 0 does not cover the page an append rewrites")
	}
	mustContent(t, o, model)

	// Without images (byte-range locking) every continuation reads.
	e = newEnv(t, 100, 2, 256, Config{Threshold: 4, NoTailImage: true})
	o = e.m.NewObject(0)
	if err := o.Append(pattern(77, 130)); err != nil {
		t.Fatal(err)
	}
	if n, _ := reads(traced(t, e, func() error { return o.Append(more) })); n != 1 {
		t.Fatalf("NoTailImage: append into the open tail read %d times, want 1", n)
	}
}

// TestNoInPlaceWriteAfterTheTailWasCut: only room no root has ever named is
// written in place.  Once a delete or truncate has cut the tail segment
// (its old bytes may still be named by a durable or snapshot root), after
// an abort's truncate, and after a reopen (the room is soft state), the
// next append writes nothing but pages it has just allocated.
func TestNoInPlaceWriteAfterTheTailWasCut(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(e *env, o *Object) (*Object, error)
		size int64
	}{
		{"delete inside the tail", func(e *env, o *Object) (*Object, error) { return o, o.Delete(840, 20) }, 910},
		{"truncate", func(e *env, o *Object) (*Object, error) { return o, o.Truncate(850) }, 850},
		{"abort of the last append", func(e *env, o *Object) (*Object, error) { return o, o.Truncate(800) }, 800},
		{"reopen", func(e *env, o *Object) (*Object, error) {
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
			if o.tailAlloc != 0 || o.tailImg != nil {
				t.Fatalf("after the cut the tail is still open: %d pages, image of %d bytes", o.tailAlloc, len(o.tailImg))
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
