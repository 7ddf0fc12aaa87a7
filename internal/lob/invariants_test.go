package lob

import (
	"errors"
	"math/rand"
	"testing"
)

// TestNoPinLeaks: every operation must leave the buffer pool fully
// unpinned, or long runs exhaust the frames.
func TestNoPinLeaks(t *testing.T) {
	e := newEnv(t, 100, 8, 256, Config{Threshold: 4, MaxRootEntries: 3})
	o := e.m.NewObject(0)
	assert := func(stage string) {
		t.Helper()
		if n := e.pool.PinnedFrames(); n != 0 {
			t.Fatalf("%s: %d frames left pinned", stage, n)
		}
	}
	model := pattern(1, 8000)
	if err := o.AppendWithHint(model, 8000); err != nil {
		t.Fatal(err)
	}
	assert("append")
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		off := int64(rng.Intn(int(o.Size())))
		switch i % 4 {
		case 0:
			if err := o.Insert(off, pattern(i, 130)); err != nil {
				t.Fatal(err)
			}
			assert("insert")
		case 1:
			n := int64(1 + rng.Intn(200))
			if off+n > o.Size() {
				n = o.Size() - off
			}
			if n > 0 {
				if err := o.Delete(off, n); err != nil {
					t.Fatal(err)
				}
			}
			assert("delete")
		case 2:
			n := 1 + rng.Intn(100)
			if off+int64(n) > o.Size() {
				off = o.Size() - int64(n)
			}
			if err := o.Replace(off, pattern(i, n)); err != nil {
				t.Fatal(err)
			}
			assert("replace")
		default:
			if _, err := o.Read(0, o.Size()); err != nil {
				t.Fatal(err)
			}
			assert("read")
		}
	}
	if err := o.Destroy(); err != nil {
		t.Fatal(err)
	}
	assert("destroy")
}

// TestInsertAddsAtMostTwoEntries verifies §4.3.1: "unless Nc is larger
// than the maximum segment size, the algorithm will add at most two new
// entries in the parent of the leaf segment" — one segment becomes at
// most three (L, N, R).
func TestInsertAddsAtMostTwoEntries(t *testing.T) {
	e := newEnv(t, 100, 8, 256, Config{Threshold: 1}) // no page reshuffle
	o := e.m.NewObject(0)
	if err := o.AppendWithHint(pattern(1, 10000), 10000); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 30; i++ {
		before, err := o.Segments()
		if err != nil {
			t.Fatal(err)
		}
		// Small insert: Nc is far below the maximum segment size.
		off := int64(rng.Intn(int(o.Size())))
		if err := o.Insert(off, pattern(i, 50)); err != nil {
			t.Fatal(err)
		}
		after, err := o.Segments()
		if err != nil {
			t.Fatal(err)
		}
		if len(after)-len(before) > 2 {
			t.Fatalf("insert %d added %d entries (want <= 2)", i, len(after)-len(before))
		}
	}
}

// TestDeleteCanAddEntries verifies the paper's observation that "unlike
// the B-tree algorithms ... a partial segment delete may create new
// entries": deleting the middle of one segment yields up to three.
func TestDeleteCanAddEntries(t *testing.T) {
	e := newEnv(t, 100, 8, 256, Config{Threshold: 1})
	o := e.m.NewObject(0)
	if err := o.AppendWithHint(pattern(2, 2000), 2000); err != nil {
		t.Fatal(err)
	}
	before, _ := o.Segments()
	if len(before) != 1 {
		t.Fatalf("setup: %d segments", len(before))
	}
	// Delete strictly inside the single segment, not page-aligned.
	if err := o.Delete(550, 433); err != nil {
		t.Fatal(err)
	}
	after, _ := o.Segments()
	if len(after) < 2 || len(after) > 3 {
		t.Errorf("segments after interior delete = %d, want 2..3", len(after))
	}
	mustCheck(t, o)
}

// TestInsertAtMaxSegmentBoundary: inserting exactly a maximum segment's
// worth of bytes keeps every invariant.
func TestInsertAtMaxSegmentBoundary(t *testing.T) {
	e := newEnv(t, 100, 8, 256, Config{Threshold: 1})
	maxSegBytes := e.m.alloc.MaxSegmentPages() * 100
	o := e.m.NewObject(0)
	model := pattern(3, 1000)
	if err := o.Append(model); err != nil {
		t.Fatal(err)
	}
	big := pattern(4, maxSegBytes)
	if err := o.Insert(500, big); err != nil {
		t.Fatal(err)
	}
	model = append(model[:500:500], append(append([]byte{}, big...), model[500:]...)...)
	mustContent(t, o, model)
	mustCheck(t, o)
}

// TestSingleByteObject: the smallest possible object exercises every
// boundary in the arithmetic.
func TestSingleByteObject(t *testing.T) {
	e := newEnv(t, 100, 2, 256, Config{Threshold: 4})
	o := e.m.NewObject(0)
	if err := o.Append([]byte{42}); err != nil {
		t.Fatal(err)
	}
	got, err := o.Read(0, 1)
	if err != nil || got[0] != 42 {
		t.Fatalf("read = %v, %v", got, err)
	}
	if err := o.Replace(0, []byte{43}); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(1, []byte{44}); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(0, []byte{41}); err != nil {
		t.Fatal(err)
	}
	mustContent(t, o, []byte{41, 43, 44})
	if err := o.Delete(1, 1); err != nil {
		t.Fatal(err)
	}
	mustContent(t, o, []byte{41, 44})
	if err := o.Delete(0, 2); err != nil {
		t.Fatal(err)
	}
	if o.Size() != 0 {
		t.Errorf("size = %d", o.Size())
	}
	mustCheck(t, o)
}

// TestSeededSplicesKeepTheTreeValid: random inserts, appends and deletes on
// an object whose root holds at most 8 entries — fewer than the 15 a node of
// a 512-byte page holds at least — with Check after every one.  A root that
// outgrows its 8 entries moves them into one child (normalizeRoot): no split
// of at most a node's worth of entries could give two children at the floor.
// That sole child is the tree's real root, and Check takes it as one.
func TestSeededSplicesKeepTheTreeValid(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		e := newEnv(t, 512, 8, 1024, Config{Threshold: 4, MaxRootEntries: 8})
		o := e.m.NewObject(0)
		model := pattern(int(seed), 3000)
		if err := o.AppendWithHint(model, 3000); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			var err error
			switch k := rng.Intn(3); {
			case k == 0 || len(model) < 4000:
				d := pattern(i, 100+rng.Intn(4000))
				off := rng.Intn(len(model) + 1)
				err = o.Insert(int64(off), d)
				model = append(model[:off:off], append(d, model[off:]...)...)
			case k == 1:
				d := pattern(i, 50+rng.Intn(3000))
				err = o.Append(d)
				model = append(model, d...)
			default:
				n := 1 + rng.Intn(3000)
				off := rng.Intn(len(model) - n + 1)
				err = o.Delete(int64(off), int64(n))
				model = append(model[:off:off], model[off+n:]...)
			}
			if err != nil {
				t.Fatalf("seed %d, op %d: %v", seed, i, err)
			}
			if err := o.Check(); err != nil {
				t.Fatalf("seed %d, after op %d: %v", seed, i, err)
			}
		}
		mustContent(t, o, model)
	}
}

// TestCheckExemptsOnlyASoleChild: a child below the floor passes Check when
// it is its root's only one, and fails it beside a sibling.
func TestCheckExemptsOnlyASoleChild(t *testing.T) {
	e := newEnv(t, 512, 8, 1024, Config{Threshold: 1, MaxRootEntries: 8})
	o := e.m.NewObject(0)
	// One one-page segment more than a 512-byte node holds: the node
	// splits, and the root is over two children.
	for i := 0; i <= maxFanout(512); i++ {
		if err := o.AppendWithHint(pattern(i, 512), 512); err != nil {
			t.Fatal(err)
		}
	}
	if o.root.level != 2 || len(o.root.entries) != 2 {
		t.Fatalf("root at level %d with %d entries, want level 2 with two", o.root.level, len(o.root.entries))
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	// Cut the first child to one entry less than the floor.
	under := func() entry {
		t.Helper()
		child, err := e.m.readNode(o.root.entries[0].ptr)
		if err != nil {
			t.Fatal(err)
		}
		child = &node{level: child.level, entries: child.entries[:minFanout(512)-1]}
		p, err := e.m.writeNode(0, child)
		if err != nil {
			t.Fatal(err)
		}
		return entry{bytes: child.size(), ptr: p}
	}
	short := under()
	siblings := append([]entry{short}, o.root.entries[1:]...)
	o.root = &node{level: 2, entries: siblings}
	o.size = o.root.size()
	if err := o.Check(); err == nil || !errors.Is(err, ErrCorruptNode) {
		t.Fatalf("Check of a root over an underfull child and %d siblings: %v, want it refused", len(siblings)-1, err)
	}
	o.root = &node{level: 2, entries: []entry{short}}
	o.size = o.root.size()
	if err := o.Check(); err != nil {
		t.Fatalf("Check of a root over one underfull child: %v, want it taken as the real root", err)
	}
}
