package lob

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"github.com/eosdb/eos/internal/buddy"
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
