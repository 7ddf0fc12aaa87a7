package buddy

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
)

func TestReserveExactRange(t *testing.T) {
	s := newSpaceT(t, 64, 16)
	base := s.Base()
	// Reserve pages 5..11 out of the fresh space.
	if err := s.Reserve(base+5, 7); err != nil {
		t.Fatal(err)
	}
	checkT(t, s)
	free, _ := s.FreePages()
	if free != 16-7 {
		t.Errorf("free pages = %d, want 9", free)
	}
	// Reserving an allocated page fails.
	if err := s.Reserve(base+6, 1); !errors.Is(err, ErrBadRequest) {
		t.Errorf("double reserve: err = %v", err)
	}
	// The reserved range can be freed like any allocation.
	if err := s.Free(base+5, 7); err != nil {
		t.Fatal(err)
	}
	checkT(t, s)
	free, _ = s.FreePages()
	if free != 16 {
		t.Errorf("free pages = %d, want 16", free)
	}
}

func TestReserveRebuildsArbitraryLayout(t *testing.T) {
	// Recovery reformats a space and reserves the reachable runs; any
	// layout producible by Alloc must be reproducible by Reserve.
	rng := rand.New(rand.NewSource(11))
	s := newSpaceT(t, 256, 128)
	type run struct {
		p disk.PageNum
		n int
	}
	var runs []run
	for i := 0; i < 30; i++ {
		n := 1 + rng.Intn(20)
		p, err := s.Alloc(n)
		if errors.Is(err, ErrNoSpace) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{p, n})
	}
	freeBefore, _ := s.FreePages()

	// Rebuild the same layout on a fresh space.
	s2 := newSpaceT(t, 256, 128)
	for _, r := range runs {
		// Translate to s2's base (identical geometry).
		if err := s2.Reserve(s2.Base()+(r.p-s.Base()), r.n); err != nil {
			t.Fatalf("Reserve(%d,%d): %v", r.p, r.n, err)
		}
	}
	checkT(t, s2)
	freeAfter, _ := s2.FreePages()
	if freeAfter != freeBefore {
		t.Errorf("rebuilt free pages = %d, want %d", freeAfter, freeBefore)
	}
	// Further allocation works on the rebuilt space.
	if _, err := s2.Alloc(4); err != nil && !errors.Is(err, ErrNoSpace) {
		t.Fatal(err)
	}
	checkT(t, s2)
}

func TestManagerReserveRouting(t *testing.T) {
	vol := disk.MustNewVolume(256, 2*(64+1)+1, disk.CostModel{})
	pool := buffer.MustNewPool(vol, 8)
	m, err := FormatVolume(pool, vol, 1, 2, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	spaces := m.Spaces()
	if err := m.Reserve(spaces[1].Base()+10, 4); err != nil {
		t.Fatal(err)
	}
	free, _ := m.FreePages()
	if free != 128-4 {
		t.Errorf("free = %d, want 124", free)
	}
	// Straddling or foreign ranges are rejected.
	if err := m.Reserve(spaces[0].Base()+62, 4); err == nil {
		t.Error("straddling reserve accepted")
	}
	if err := m.Reserve(0, 1); err == nil {
		t.Error("reserve of header page accepted")
	}
}

// TestFailedReserveChangesNothing: a reservation that meets an allocated
// page fails with the directory as it found it — the free pieces it
// passed before that page stay free.
func TestFailedReserveChangesNothing(t *testing.T) {
	s := newSpaceT(t, 256, 64)
	base := s.Base()
	if err := s.Reserve(base+4, 4); err != nil {
		t.Fatal(err)
	}
	freeBefore, _ := s.FreePages()
	snapBefore := snapshotString(t, s)
	// Pages 0..3 are free, 4..5 allocated.
	if err := s.Reserve(base, 6); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("reserve over allocated pages: err = %v", err)
	}
	checkT(t, s)
	if free, _ := s.FreePages(); free != freeBefore || freeBefore != 60 {
		t.Errorf("free pages %d → %d after a failed reserve, want 60 → 60", freeBefore, free)
	}
	if got := snapshotString(t, s); got != snapBefore {
		t.Errorf("failed reserve changed the space:\n%s\nwant\n%s", got, snapBefore)
	}
}

// TestAllocAt: a placed allocation takes exactly the run asked for when it
// is free, and otherwise changes nothing — a run with an allocated page in
// it, a run that leaves its space, a page of no space, or a space whose
// directory page is not in the pool, which it does not read.
func TestAllocAt(t *testing.T) {
	vol := disk.MustNewVolume(256, 2*(64+1)+1, disk.CostModel{})
	pool := buffer.MustNewPool(vol, 8)
	m, err := FormatVolume(pool, vol, 1, 2, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	sp := m.Spaces()
	base := sp[0].Base()
	if !m.AllocAt(base+5, 7) {
		t.Fatal("AllocAt of a free run refused")
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if free, _ := m.FreePages(); free != 128-7 {
		t.Errorf("free = %d after placing 7 pages, want 121", free)
	}
	if err := m.Free(base+5, 7); err != nil {
		t.Fatalf("the placed run does not free like an allocation: %v", err)
	}
	if err := m.Reserve(base+8, 2); err != nil {
		t.Fatal(err)
	}
	snap := func() string {
		var out string
		for _, s := range sp {
			out += snapshotString(t, s) + "\n"
		}
		return out
	}
	before, stats := snap(), m.Stats()
	for _, c := range []struct {
		name string
		p    disk.PageNum
		n    int
	}{
		{"over an allocated page", base + 4, 6},
		{"across two spaces", sp[0].Base() + 62, 4},
		{"on a directory page", sp[1].DirPage(), 1},
		{"of no pages", base, 0},
	} {
		if m.AllocAt(c.p, c.n) {
			t.Errorf("AllocAt %s accepted", c.name)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool.Discard(sp[1].DirPage())
	misses := pool.Stats().Misses
	if m.AllocAt(sp[1].Base(), 4) {
		t.Error("AllocAt in a space whose directory is not resident accepted")
	}
	if got := pool.Stats().Misses; got != misses || pool.Resident(sp[1].DirPage()) {
		t.Errorf("the refused probe read its directory: %d misses, want %d", got, misses)
	}
	if after := snap(); after != before || m.Stats() != stats {
		t.Errorf("refused probes changed the spaces or the counters:\n%s\nwant\n%s", after, before)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}
