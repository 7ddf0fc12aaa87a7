package eos

import (
	"bytes"
	"errors"
	"testing"

	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
)

// segmentsOf returns the object's leaf segments.
func segmentsOf(t *testing.T, o *Object) []lob.SegmentInfo {
	t.Helper()
	segs, err := o.e.obj.Segments()
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// adjacentPair makes objects a and b of one 8-page segment each, b's right
// behind a's, at T = 1 (no reshuffling), and returns them with b's first
// page: the page an insert into a's last page leaves the head at.  The
// buddy system takes the lowest free block of the smallest size that fits:
// the first 8-page segment, f's, takes the free 8-page block, and a and b
// then split the 16-page block below it.
func adjacentPair(t *testing.T, s *Store) (a, b *Object, behind disk.PageNum) {
	t.Helper()
	for _, name := range []string{"f", "a", "b"} {
		o, err := s.Create(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.AppendWithHint(pat(len(name)+int(name[0]), 4096), 4096); err != nil {
			t.Fatal(err)
		}
		switch name {
		case "a":
			a = o
		case "b":
			b = o
		}
	}
	sa, sb := segmentsOf(t, a), segmentsOf(t, b)
	if len(sa) != 1 || len(sb) != 1 || sb[0].StartPage != sa[0].StartPage+8 {
		t.Fatalf("layout a %+v, b %+v: want b's segment right behind a's", sa, sb)
	}
	return a, b, sb[0].StartPage
}

// TestPlacementSkipsQueuedRuns: the run behind an insert's reads is not
// taken while the reclamation queue holds it — here for a snapshot that
// still reads it — and is once a checkpoint has let it into the free space.
func TestPlacementSkipsQueuedRuns(t *testing.T) {
	for _, pinned := range []bool{true, false} {
		s, _, _ := newStore(t, Options{})
		a, b, behind := adjacentPair(t, s)
		sn, err := s.OpenSnapshot("b")
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if !pinned {
			if err := sn.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		placed := s.Stats().LOB.SegmentsPlaced
		if err := a.Insert(4000, pat(3, 50)); err != nil {
			t.Fatal(err)
		}
		segs := segmentsOf(t, a)
		if len(segs) != 2 {
			t.Fatalf("layout %+v: want L and N", segs)
		}
		if got := s.Stats().LOB.SegmentsPlaced - placed; got != map[bool]int64{false: 1}[pinned] || (segs[1].StartPage == behind) == pinned {
			t.Errorf("queue holds the run %v: %d segments placed, N at page %d, the run at %d", pinned, got, segs[1].StartPage, behind)
		}
		if pinned {
			got := make([]byte, 4096)
			if n, err := sn.ReadAt(got, 0); n != len(got) || err != nil || !bytes.Equal(got, pat(int('b')+1, 4096)) {
				t.Fatalf("snapshot read %d bytes, %v; equal %v", n, err, bytes.Equal(got, pat(int('b')+1, 4096)))
			}
			if err := sn.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Check(); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckNoLeaks(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedPlacedInsertLeaksNothing: an insert whose segment was placed
// and whose write then fails gives the placed run back, and the object
// keeps its last commit point.
func TestFailedPlacedInsertLeaksNothing(t *testing.T) {
	s, vol, _ := newStore(t, Options{})
	a, b, _ := adjacentPair(t, s)
	if err := b.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, err := a.Read(0, a.Size())
	if err != nil {
		t.Fatal(err)
	}
	free, placed := freePages(t, s), s.Stats().LOB.SegmentsPlaced
	boom := errors.New("boom")
	vol.FailAfter(1, boom) // the read of page 7, then the write of the new segment fails
	err = a.Insert(4000, pat(3, 50))
	vol.ClearFault()
	if !errors.Is(err, boom) {
		t.Fatalf("insert: %v, want the injected write error", err)
	}
	if s.Stats().LOB.SegmentsPlaced != placed+1 {
		t.Fatal("the insert did not place its segment before the write failed")
	}
	if got := freePages(t, s); got != free {
		t.Errorf("free pages %d → %d across the failed insert", free, got)
	}
	if got, err := a.Read(0, a.Size()); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after the failed insert the object reads %d bytes, %v; equal %v", len(got), err, bytes.Equal(got, want))
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}
