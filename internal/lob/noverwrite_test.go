package lob

import (
	"math/rand"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// TestInsertDeleteNeverOverwriteLeafPages pins down the core §4.5 design
// property: "the last three kinds of updates [insert, delete, append] ...
// modify only the internal nodes of the large object tree without
// overwriting existing leaf pages".  The volume tracer records every
// data write during an operation; none may land on a data page the
// object owned before the operation (appends are exempt for their tail
// segment, which the paper fills in place before trimming).
func TestInsertDeleteNeverOverwriteLeafPages(t *testing.T) {
	e := newEnv(t, 100, 16, 256, Config{Threshold: 4})
	o := e.m.NewObject(0)
	model := pattern(1, 12000)
	if err := o.AppendWithHint(model, 12000); err != nil {
		t.Fatal(err)
	}
	// Its pages wait for a checkpoint; the ones the object owns from here
	// on are on the device.
	if err := flush(e.m.cfg.Pending); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		// Snapshot the pages the object owns now.
		runs, err := o.ReachablePages()
		if err != nil {
			t.Fatal(err)
		}
		owned := map[disk.PageNum]bool{}
		for _, r := range runs {
			for k := 0; k < r.Pages; k++ {
				owned[r.Start+disk.PageNum(k)] = true
			}
		}
		// Index pages travel through the pool and are flushed later; the
		// tracer below therefore observes only direct data-segment I/O.
		var overwrites []disk.PageNum
		e.vol.SetTracer(func(ev disk.TraceEvent) {
			if !ev.Write {
				return
			}
			for k := 0; k < ev.Pages; k++ {
				if p := ev.Start + disk.PageNum(k); owned[p] {
					overwrites = append(overwrites, p)
				}
			}
		})
		off := int64(rng.Intn(int(o.Size())))
		if i%2 == 0 {
			if err := o.Insert(off, pattern(i, 1+rng.Intn(300))); err != nil {
				t.Fatal(err)
			}
		} else {
			n := int64(1 + rng.Intn(400))
			if off+n > o.Size() {
				n = o.Size() - off
			}
			if n > 0 {
				if err := o.Delete(off, n); err != nil {
					t.Fatal(err)
				}
			}
		}
		e.vol.SetTracer(nil)
		if len(overwrites) > 0 {
			t.Fatalf("op %d overwrote %d pre-existing data pages (e.g. %d)",
				i, len(overwrites), overwrites[0])
		}
		// The new segment may wait in the write-behind set; a checkpoint
		// puts it on the device before the next operation.
		if err := flush(e.m.cfg.Pending); err != nil {
			t.Fatal(err)
		}
	}
	mustCheck(t, o)
}

// TestPaperScaleGeometry exercises the paper's real numbers: 4 KB pages,
// 2^13-page (32 MB) maximum segments, buddy spaces of ~16k pages, and an
// object spanning several maximum-size segments.
func TestPaperScaleGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("80 MB volume")
	}
	const ps = 4096
	// Three spaces of 16000 pages each: ~196 MB of addressable data.
	e := newEnv(t, ps, 3, 16000, Config{Threshold: 16})
	if got := e.m.alloc.MaxSegmentPages(); got != 1<<13 {
		t.Fatalf("max segment = %d pages, want %d", got, 1<<13)
	}
	o := e.m.NewObject(0)
	const size = 40 << 20 // spans two 32 MB max segments
	data := pattern(3, size)
	if err := o.AppendWithHint(data, size); err != nil {
		t.Fatal(err)
	}
	u, err := o.Usage()
	if err != nil {
		t.Fatal(err)
	}
	if u.MaxSegmentPgs != 1<<13 {
		t.Errorf("largest segment = %d pages, want a maximum-size segment", u.MaxSegmentPgs)
	}
	if u.SegmentCount > 4 {
		t.Errorf("segments = %d, want few maximal segments", u.SegmentCount)
	}

	// Spot-check content at far offsets.
	for _, off := range []int64{0, 31 << 20, size - 4096} {
		got, err := o.Read(off, 4096)
		if err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if got[k] != data[off+int64(k)] {
				t.Fatalf("content mismatch at %d+%d", off, k)
			}
		}
	}

	// A middle insert and delete at this scale stay cheap.
	e.vol.ResetStats()
	if err := o.Insert(20<<20, pattern(4, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(10<<20, 100000); err != nil {
		t.Fatal(err)
	}
	if s := e.vol.Stats(); s.PagesMoved() > 200 {
		t.Errorf("updates on a 40 MB object moved %d pages", s.PagesMoved())
	}
	mustCheck(t, o)
	if err := o.Destroy(); err != nil {
		t.Fatal(err)
	}
}
