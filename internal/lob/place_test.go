package lob

import (
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// TestPlacedSegmentFallsBack: an insert's new segment goes right after the
// pages it read when that run is free, in one space, and the space's
// directory page is in the pool; otherwise §3's scan places it, and the
// probe reads no directory page.  Space 0 holds one 60-page segment S, so
// 4 pages are free behind it and the fifth is space 1's directory; T is 1,
// so that no reshuffling grows N.
func TestPlacedSegmentFallsBack(t *testing.T) {
	for _, c := range []struct {
		name     string
		n        int64 // bytes inserted into S's last page, which keeps 50 after the point
		evict    bool  // space 0's directory is not in the pool
		placed   bool
		wantPage int // where N starts, relative to space 0's first data page; -1: in space 1
	}{
		{"the free run behind S", 350, false, true, 60},
		{"a run across two spaces", 450, false, false, -1},
		{"a directory not in the pool", 350, true, false, -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, 100, 2, 64, Config{Threshold: 1})
			o := e.m.NewObject(0)
			model := pattern(1, 6000)
			if err := o.AppendWithHint(model, int64(len(model))); err != nil {
				t.Fatal(err)
			}
			spaces := e.bm.Spaces()
			if segs, err := o.Segments(); err != nil || len(segs) != 1 || segs[0].StartPage != spaces[0].Base() {
				t.Fatalf("layout %+v, %v: want one segment at space 0's first page", segs, err)
			}
			if c.evict {
				if err := e.pool.FlushAll(); err != nil {
					t.Fatal(err)
				}
				e.pool.Discard(spaces[0].DirPage())
			}
			placed, misses := e.m.Stats().SegmentsPlaced, e.pool.Stats().Misses
			data := pattern(2, int(c.n))
			if err := o.Insert(5950, data); err != nil {
				t.Fatal(err)
			}
			model = append(model[:5950:5950], append(data, model[5950:]...)...)
			mustContent(t, o, model)
			mustCheck(t, o)
			if got := e.m.Stats().SegmentsPlaced - placed; got != map[bool]int64{true: 1}[c.placed] {
				t.Errorf("%d segments placed, want placed = %v", got, c.placed)
			}
			if got := e.pool.Stats().Misses - misses; got != 0 {
				t.Errorf("the insert missed the pool %d times, want 0", got)
			}
			segs, err := o.Segments()
			if err != nil || len(segs) != 2 {
				t.Fatalf("layout %+v, %v: want L and N", segs, err)
			}
			want := spaces[0].Base() + disk.PageNum(c.wantPage)
			if c.wantPage < 0 {
				want = spaces[1].Base()
			}
			if segs[1].StartPage != want {
				t.Errorf("N starts at page %d, want %d", segs[1].StartPage, want)
			}
			if err := e.bm.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFullFillMemoryIsWrittenAfterTheReads: each insert goes into the
// middle of the last one's new segment N, which waits in the write-behind
// set with its image in the fill memory, so its reads are all of pending
// pages.  The insert that finds the fill memory full builds its N in other
// memory and writes the full one only once it has read: it reads none of
// the waiting pages from the device.
func TestFullFillMemoryIsWrittenAfterTheReads(t *testing.T) {
	e := newEnv(t, 512, 2, 1024, Config{Threshold: 1})
	e.m.cfg.Pending.limit = 1 << 20 // no eviction
	o := e.m.NewObject(0)
	model := pattern(1, 100*512)
	if err := o.AppendWithHint(model, int64(len(model))); err != nil {
		t.Fatal(err)
	}
	if err := flush(e.m.cfg.Pending); err != nil {
		t.Fatal(err)
	}
	p := e.m.cfg.Pending
	off, full := int64(20*512), 0
	for i := 0; i < 60; i++ {
		data := pattern(10+i, 2000)
		fill, evictions := p.fill, p.evictions.Load()
		before := e.vol.Stats()
		if err := o.Insert(off, data); err != nil {
			t.Fatal(err)
		}
		model = append(model[:off:off], append(data, model[off:]...)...)
		if reads := e.vol.Stats().Sub(before).PagesRead; i > 0 && reads != 0 {
			t.Fatalf("insert %d read %d pages from the device, want every one from the set", i, reads)
		}
		if fill != nil && p.fill != fill {
			full++
			if p.evictions.Load() == evictions {
				t.Fatalf("insert %d found the fill memory full and wrote none of it", i)
			}
		}
		off += 600
	}
	if full == 0 {
		t.Fatal("no insert found the fill memory full")
	}
	mustContent(t, o, model)
	mustCheck(t, o)
}
