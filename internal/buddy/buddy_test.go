package buddy

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
)

// newSpaceT creates a formatted space of the given capacity on a fresh
// volume with the given page size.
func newSpaceT(t *testing.T, pageSize, capacity int) *Space {
	t.Helper()
	vol := disk.MustNewVolume(pageSize, disk.PageNum(capacity+8), disk.CostModel{})
	pool := buffer.MustNewPool(vol, 8)
	s, err := FormatSpace(pool, 0, 1, capacity, vol)
	if err != nil {
		t.Fatalf("FormatSpace: %v", err)
	}
	return s
}

func snapshotString(t *testing.T, s *Space) string {
	t.Helper()
	segs, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	out := ""
	for i, seg := range segs {
		if i > 0 {
			out += " "
		}
		out += seg.String()
	}
	return out
}

func checkT(t *testing.T, s *Space) {
	t.Helper()
	if err := s.Check(); err != nil {
		t.Fatalf("invariant violation: %v", err)
	}
}

func TestLayoutPaperArithmetic(t *testing.T) {
	// §3: with 4 KB pages the maximum segment type is log2(2*4096) = 13
	// (2^13 pages = 32 MB segments).  The paper's idealized directory
	// (2-byte counts only) supports 4068*4 = 16272 pages; our header
	// costs 20 bytes, so the bound is slightly lower but the same order.
	maxType, maxCap, err := Layout(4096)
	if err != nil {
		t.Fatal(err)
	}
	if maxType != 13 {
		t.Errorf("maxType = %d, want 13", maxType)
	}
	wantCap := (4096 - dirHeaderBytes - 2*14) * 4
	if maxCap != wantCap {
		t.Errorf("maxCap = %d, want %d", maxCap, wantCap)
	}
	if maxCap < 16000 || maxCap > 16272 {
		t.Errorf("maxCap = %d, want within a header of the paper's 16272", maxCap)
	}

	if _, _, err := Layout(8); err == nil {
		t.Error("tiny page size accepted")
	}
}

// pieceList collects the pieces alignedPieces hands out.
func pieceList(start, n, maxType int) []piece {
	var out []piece
	for ps := alignedPieces(start, n, maxType); ps.n > 0; {
		out = append(out, ps.next())
	}
	return out
}

func TestAlignedPieces(t *testing.T) {
	cases := []struct {
		start, n int
		want     []piece
	}{
		// §3.2: 11 = 1011b => segments of size 8, 2, 1.
		{0, 11, []piece{{0, 3}, {8, 1}, {10, 0}}},
		// The 5 remaining pages, "in reverse order": 1 then 4.
		{11, 5, []piece{{11, 0}, {12, 2}}},
		{0, 16, []piece{{0, 4}}},
		{3, 1, []piece{{3, 0}}},
		{2, 6, []piece{{2, 1}, {4, 2}}},
		{6, 10, []piece{{6, 1}, {8, 3}}},
	}
	for _, c := range cases {
		got := pieceList(c.start, c.n, 6)
		if len(got) != len(c.want) {
			t.Errorf("alignedPieces(%d,%d) = %v, want %v", c.start, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("alignedPieces(%d,%d)[%d] = %v, want %v", c.start, c.n, i, got[i], c.want[i])
			}
		}
	}
}

func TestAlignedPiecesProperty(t *testing.T) {
	f := func(start16, n8 uint8) bool {
		start := int(start16) % 1000
		n := int(n8)%200 + 1
		const maxType = 5
		pos := start
		for _, p := range pieceList(start, n, maxType) {
			if p.start != pos || p.typ > maxType {
				return false
			}
			if p.start%(1<<p.typ) != 0 {
				return false
			}
			pos += p.size()
		}
		return pos == start+n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAmapFigure3 reconstructs the exact allocation map state of the
// paper's Figure 3 through public operations and verifies the byte
// encoding and the skip-scan probe sequence.
func TestAmapFigure3(t *testing.T) {
	s := newSpaceT(t, 128, 128)

	// Build the Figure 3 state: an allocated 64-page segment at page 0;
	// pages 64 and 67 free; 65 and 66 allocated; a free 4-segment at 68;
	// a free 8-segment at 72.
	if _, err := s.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(16); err != nil { // pages 64..79
		t.Fatal(err)
	}
	base := s.Base()
	for _, f := range []struct{ p, n int }{{64, 1}, {67, 1}, {68, 4}, {72, 8}} {
		if err := s.Free(base+disk.PageNum(f.p), f.n); err != nil {
			t.Fatalf("Free(%d,%d): %v", f.p, f.n, err)
		}
	}
	checkT(t, s)

	err := s.withDir(false, func(d dir) error {
		am := d.amap()
		// Byte 0: allocated segment of size 2^6 starting at page 0.
		if want := byte(bitBig | bitAlloc | 6); am[0] != want {
			t.Errorf("amap[0] = %#02x, want %#02x", am[0], want)
		}
		for i := 1; i <= 15; i++ {
			if am[i] != 0 {
				t.Errorf("amap[%d] = %#02x, want 0 (continuation)", i, am[i])
			}
		}
		// Byte 16: pages 64 free, 65 allocated, 66 allocated, 67 free.
		if want := byte(0x06); am[16] != want {
			t.Errorf("amap[16] = %#02x, want %#02x", am[16], want)
		}
		// Byte 17: free segment of size 2^2 at page 68.
		if want := byte(bitBig | 2); am[17] != want {
			t.Errorf("amap[17] = %#02x, want %#02x", am[17], want)
		}
		// Byte 18: free segment of size 2^3 at page 72.
		if want := byte(bitBig | 3); am[18] != want {
			t.Errorf("amap[18] = %#02x, want %#02x", am[18], want)
		}
		if am[19] != 0 {
			t.Errorf("amap[19] = %#02x, want 0", am[19])
		}

		// The paper's locate example: searching for a free segment of
		// size 8 probes segments 0 (64 pages), 64 (1 page), 72 (found) —
		// three probes, not a byte-by-byte scan.
		start, probes, err := d.locateFree(3)
		if err != nil {
			return err
		}
		if start != 72 {
			t.Errorf("locateFree(8 pages) = %d, want 72", start)
		}
		if probes != 3 {
			t.Errorf("locateFree probes = %d, want 3", probes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBuddyFigure4 walks the paper's Figure 4 scenario end to end:
// allocate 11 pages out of a 16-page block, free 7 pages starting at page
// 3, then free page 10 and watch the iterative coalescing produce an
// 8-page free segment.
func TestBuddyFigure4(t *testing.T) {
	s := newSpaceT(t, 64, 16)
	base := s.Base()

	p, err := s.Alloc(11)
	if err != nil {
		t.Fatal(err)
	}
	if p != base {
		t.Fatalf("Alloc(11) = %d, want %d", p, base)
	}
	checkT(t, s)
	// Figure 4.b: allocated 8@0, 2@8, 1@10; free 1@11, 4@12.
	if got, want := snapshotString(t, s), "alloc 1+8 alloc 9+2 alloc 11+1 free 12+1 free 13+4"; got != want {
		t.Errorf("after Alloc(11):\n got  %s\n want %s", got, want)
	}

	if err := s.Free(base+3, 7); err != nil {
		t.Fatal(err)
	}
	checkT(t, s)
	// Figure 4.c: allocated 2@0, 1@2, 1@10; free 1@3, 4@4, 2@8, 1@11, 4@12.
	if got, want := snapshotString(t, s), "alloc 1+2 alloc 3+1 free 4+1 free 5+4 free 9+2 alloc 11+1 free 12+1 free 13+4"; got != want {
		t.Errorf("after Free(3,7):\n got  %s\n want %s", got, want)
	}

	if err := s.Free(base+10, 1); err != nil {
		t.Fatal(err)
	}
	checkT(t, s)
	// Figure 4.d: 10+11 merge to 2@10, then with 2@8 to 4@8, then with
	// 4@12 to 8@8.  Segment 8@8's buddy (page 0) is allocated: stop.
	if got, want := snapshotString(t, s), "alloc 1+2 alloc 3+1 free 4+1 free 5+4 free 9+8"; got != want {
		t.Errorf("after Free(10,1):\n got  %s\n want %s", got, want)
	}
}

func TestBuddyXORExample(t *testing.T) {
	// §3.2: the buddy of segment 6 of size 2 is 4, and vice versa.
	if b := 6 ^ 2; b != 4 {
		t.Fatalf("buddy of 6 size 2 = %d", b)
	}
	if b := 4 ^ 2; b != 6 {
		t.Fatalf("buddy of 4 size 2 = %d", b)
	}
	// Behavioural check: freeing 4..5 then 6..7 coalesces to a 4-block.
	s := newSpaceT(t, 64, 8)
	base := s.Base()
	if _, err := s.Alloc(8); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(base+4, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(base+6, 2); err != nil {
		t.Fatal(err)
	}
	checkT(t, s)
	if c, _ := s.CountFree(2); c != 1 {
		t.Errorf("free 4-segments = %d, want 1 (coalesced)", c)
	}
}

func TestAllocExactPowersOfTwo(t *testing.T) {
	s := newSpaceT(t, 256, 256)
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		p, err := s.Alloc(n)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", n, err)
		}
		if int(p-s.Base())%n != 0 {
			t.Errorf("Alloc(%d) at %d not size-aligned", n, p-s.Base())
		}
		checkT(t, s)
	}
	free, err := s.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	if free != 256-255 {
		t.Errorf("free pages = %d, want 1", free)
	}
}

func TestAllocFullThenNoSpace(t *testing.T) {
	s := newSpaceT(t, 64, 16)
	if _, err := s.Alloc(16); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Errorf("Alloc on full space: err = %v, want ErrNoSpace", err)
	}
	if _, _, err := s.AllocUpTo(4); !errors.Is(err, ErrNoSpace) {
		t.Errorf("AllocUpTo on full space: err = %v, want ErrNoSpace", err)
	}
}

func TestAllocBadRequests(t *testing.T) {
	s := newSpaceT(t, 64, 16)
	if _, err := s.Alloc(0); err == nil {
		t.Error("Alloc(0) accepted")
	}
	if _, err := s.Alloc(-1); err == nil {
		t.Error("Alloc(-1) accepted")
	}
	if _, err := s.Alloc(s.MaxSegmentPages() + 1); err == nil {
		t.Error("oversized Alloc accepted")
	}
	if err := s.Free(s.Base()-1, 1); err == nil {
		t.Error("Free outside space accepted")
	}
	if err := s.Free(s.Base(), 0); err == nil {
		t.Error("Free of 0 pages accepted")
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	s := newSpaceT(t, 64, 16)
	p, err := s.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(p, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(p, 4); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("double free: err = %v, want ErrDoubleFree", err)
	}
	// Partial overlap with free pages is also rejected.
	q, err := s.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(q, 4); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("overextended free: err = %v, want ErrDoubleFree", err)
	}
	checkT(t, s)
}

func TestFreeInteriorRangeSplitsSegment(t *testing.T) {
	s := newSpaceT(t, 64, 16)
	base := s.Base()
	if _, err := s.Alloc(16); err != nil {
		t.Fatal(err)
	}
	// Free the middle 6 pages of the 16-page segment.
	if err := s.Free(base+5, 6); err != nil {
		t.Fatal(err)
	}
	checkT(t, s)
	// Kept: [0,5) as 4+1 and [11,16) as 1+4; free: [5,11) as 1+2+2+1.
	// (Volume pages below are space pages + 1 for the directory.)
	if got, want := snapshotString(t, s),
		"alloc 1+4 alloc 5+1 free 6+1 free 7+2 free 9+2 free 11+1 alloc 12+1 alloc 13+4"; got != want {
		t.Errorf("interior free:\n got  %s\n want %s", got, want)
	}
	// Re-allocating must reuse the freed pages without corrupting.
	if _, err := s.Alloc(2); err != nil {
		t.Fatal(err)
	}
	checkT(t, s)
}

func TestTrimPattern(t *testing.T) {
	// The large object manager trims a segment by freeing its unused tail
	// (§4.1: "Trimming a segment is trivial because the buddy system ...
	// deals with allocation/deallocation of segments of any size with a
	// precision of 1 page").
	s := newSpaceT(t, 64, 64)
	p, err := s.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(p+20, 12); err != nil { // keep 20, trim 12
		t.Fatal(err)
	}
	checkT(t, s)
	free, _ := s.FreePages()
	if free != 64-20 {
		t.Errorf("free pages = %d, want %d", free, 64-20)
	}
}

func TestAllocUpToDegradesGracefully(t *testing.T) {
	s := newSpaceT(t, 64, 16)
	base := s.Base()
	if _, err := s.Alloc(16); err != nil {
		t.Fatal(err)
	}
	// Free two discontiguous 4-blocks.
	if err := s.Free(base+0, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(base+8, 4); err != nil {
		t.Fatal(err)
	}
	// A 8-page request cannot be contiguous; AllocUpTo takes a 4-block.
	p, got, err := s.AllocUpTo(8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("AllocUpTo(8) got %d pages, want 4", got)
	}
	if p != base+0 && p != base+8 {
		t.Errorf("AllocUpTo start = %d", p)
	}
	checkT(t, s)
}

func TestAllocUpToExactWhenPossible(t *testing.T) {
	s := newSpaceT(t, 64, 64)
	p, got, err := s.AllocUpTo(11)
	if err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Errorf("AllocUpTo(11) got %d, want 11", got)
	}
	if p != s.Base() {
		t.Errorf("start = %d, want %d", p, s.Base())
	}
	checkT(t, s)
}

func TestOpenSpaceRoundTrip(t *testing.T) {
	vol := disk.MustNewVolume(64, 32, disk.CostModel{})
	pool := buffer.MustNewPool(vol, 8)
	s, err := FormatSpace(pool, 0, 1, 16, vol)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Alloc(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool.DiscardAll()

	s2, err := OpenSpace(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Capacity() != 16 || s2.Base() != 1 {
		t.Errorf("reopened geometry: cap=%d base=%d", s2.Capacity(), s2.Base())
	}
	checkT(t, s2)
	free, _ := s2.FreePages()
	if free != 11 {
		t.Errorf("free pages after reopen = %d, want 11", free)
	}
	if err := s2.Free(p, 5); err != nil {
		t.Fatal(err)
	}
	free, _ = s2.FreePages()
	if free != 16 {
		t.Errorf("free pages = %d, want 16", free)
	}
}

func TestOpenSpaceRejectsGarbage(t *testing.T) {
	vol := disk.MustNewVolume(64, 8, disk.CostModel{})
	pool := buffer.MustNewPool(vol, 4)
	if _, err := OpenSpace(pool, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("OpenSpace on zero page: err = %v, want ErrCorrupt", err)
	}
}

func TestNonPowerOfTwoCapacity(t *testing.T) {
	s := newSpaceT(t, 64, 12)
	free, _ := s.FreePages()
	if free != 12 {
		t.Fatalf("free pages = %d, want 12", free)
	}
	checkT(t, s)
	// The top block is 8, so a 16-page alloc must fail even though
	// maxType allows it.
	if _, err := s.Alloc(16); !errors.Is(err, ErrNoSpace) {
		t.Errorf("Alloc(16) in 12-page space: %v", err)
	}
	p, err := s.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(p, 8); err != nil {
		t.Fatal(err)
	}
	checkT(t, s)
}

func TestCapacityMustBeByteAligned(t *testing.T) {
	vol := disk.MustNewVolume(64, 32, disk.CostModel{})
	pool := buffer.MustNewPool(vol, 4)
	if _, err := FormatSpace(pool, 0, 1, 11, vol); err == nil {
		t.Error("capacity 11 (not a multiple of 4) accepted")
	}
}

// TestRandomAllocFreeInvariants drives a space with random allocations
// and partial frees and checks the directory invariants and page
// conservation after every operation.
func TestRandomAllocFreeInvariants(t *testing.T) {
	const capacity = 256
	s := newSpaceT(t, 256, capacity)
	rng := rand.New(rand.NewSource(42))

	type run struct {
		start disk.PageNum
		n     int
	}
	var live []run
	livePages := 0

	for op := 0; op < 2000; op++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			n := 1 + rng.Intn(40)
			p, err := s.Alloc(n)
			if errors.Is(err, ErrNoSpace) {
				continue
			}
			if err != nil {
				t.Fatalf("op %d: Alloc(%d): %v", op, n, err)
			}
			live = append(live, run{p, n})
			livePages += n
		} else {
			i := rng.Intn(len(live))
			r := live[i]
			// Free a random sub-range, possibly the whole run.
			off := rng.Intn(r.n)
			n := 1 + rng.Intn(r.n-off)
			if err := s.Free(r.start+disk.PageNum(off), n); err != nil {
				t.Fatalf("op %d: Free(%d+%d,%d) of run %v: %v", op, r.start, off, n, r, err)
			}
			livePages -= n
			// Update bookkeeping: the run splits into up to two runs.
			live = append(live[:i], live[i+1:]...)
			if off > 0 {
				live = append(live, run{r.start, off})
			}
			if off+n < r.n {
				live = append(live, run{r.start + disk.PageNum(off+n), r.n - off - n})
			}
		}
		if err := s.Check(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		free, err := s.FreePages()
		if err != nil {
			t.Fatal(err)
		}
		if free+livePages != capacity {
			t.Fatalf("op %d: conservation violated: free=%d live=%d cap=%d", op, free, livePages, capacity)
		}
	}

	// Free everything: the space must coalesce back to its initial state.
	for _, r := range live {
		if err := s.Free(r.start, r.n); err != nil {
			t.Fatal(err)
		}
	}
	checkT(t, s)
	free, _ := s.FreePages()
	if free != capacity {
		t.Errorf("free pages after total free = %d, want %d", free, capacity)
	}
	// capacity 256 = 2^8 exceeds no limit: one free 256-segment.
	if c, _ := s.CountFree(8); c != 1 {
		t.Errorf("free 256-segments = %d, want 1 (full coalescing)", c)
	}
}

func TestAllocationsDisjointProperty(t *testing.T) {
	s := newSpaceT(t, 256, 512)
	owned := make(map[disk.PageNum]int) // page -> allocation id
	rng := rand.New(rand.NewSource(7))
	for id := 0; id < 200; id++ {
		n := 1 + rng.Intn(30)
		p, err := s.Alloc(n)
		if errors.Is(err, ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			pg := p + disk.PageNum(i)
			if prev, clash := owned[pg]; clash {
				t.Fatalf("page %d allocated to both %d and %d", pg, prev, id)
			}
			owned[pg] = id
		}
	}
	if len(owned) == 0 {
		t.Fatal("no allocations succeeded")
	}
}

func TestDirectoryOnlyIO(t *testing.T) {
	// §3.3: the entire allocation activity touches the directory page
	// only — no data page I/O.
	vol := disk.MustNewVolume(4096, 1024, disk.CostModel{})
	pool := buffer.MustNewPool(vol, 2)
	s, err := FormatSpace(pool, 0, 1, 1000, vol)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool.DiscardAll()
	vol.ResetStats()

	s, err = OpenSpace(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 7, 64, 512} {
		p, err := s.Alloc(n)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", n, err)
		}
		if err := s.Free(p, n); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st := vol.Stats()
	if st.PagesRead != 1 {
		t.Errorf("pages read = %d, want 1 (the directory)", st.PagesRead)
	}
	if st.PagesWritten != 1 {
		t.Errorf("pages written = %d, want 1 (the directory)", st.PagesWritten)
	}
}

func TestManagerMultiSpace(t *testing.T) {
	vol := disk.MustNewVolume(256, 4*(64+1)+1, disk.CostModel{})
	pool := buffer.MustNewPool(vol, 16)
	m, err := FormatVolume(pool, vol, 1, 4, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Spaces()) != 4 {
		t.Fatalf("spaces = %d, want 4", len(m.Spaces()))
	}
	total, err := m.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	if total != 256 {
		t.Errorf("total free = %d, want 256", total)
	}

	// A 33-page allocation needs a 64-block, so exactly one fits per
	// space: four succeed, the fifth spills over every space and fails.
	var runs []struct {
		p disk.PageNum
		n int
	}
	for i := 0; i < 4; i++ {
		p, err := m.Alloc(33)
		if err != nil {
			t.Fatalf("Alloc #%d: %v", i, err)
		}
		runs = append(runs, struct {
			p disk.PageNum
			n int
		}{p, 33})
	}
	if _, err := m.Alloc(33); !errors.Is(err, ErrNoSpace) {
		t.Errorf("overcommitted Alloc: err = %v, want ErrNoSpace", err)
	}
	// But a 16-page request still fits in each space's free remainder
	// (64-33 = 31 free pages whose largest aligned block is 16).
	if _, err := m.Alloc(16); err != nil {
		t.Errorf("Alloc(16) into remainders: %v", err)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	// Free routing finds the owning space.
	for _, r := range runs {
		if err := m.Free(r.p, r.n); err != nil {
			t.Fatalf("Free(%d,%d): %v", r.p, r.n, err)
		}
	}
	total, _ = m.FreePages()
	if total != 256-16 {
		t.Errorf("free pages = %d, want %d", total, 256-16)
	}
}

func TestManagerFreeUnknownPage(t *testing.T) {
	vol := disk.MustNewVolume(256, 70, disk.CostModel{})
	pool := buffer.MustNewPool(vol, 8)
	m, err := FormatVolume(pool, vol, 1, 1, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Free(0, 1); err == nil {
		t.Error("Free of non-space page accepted")
	}
}

func TestSuperdirectorySkipsFullSpaces(t *testing.T) {
	vol := disk.MustNewVolume(256, 8*(64+1)+1, disk.CostModel{})
	pool := buffer.MustNewPool(vol, 32)
	m, err := FormatVolume(pool, vol, 1, 8, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the first 7 spaces completely.
	for i := 0; i < 7; i++ {
		if _, err := m.Alloc(64); err != nil {
			t.Fatal(err)
		}
	}
	base := m.Stats()
	// Repeated allocations now fit only in space 8.  With the
	// superdirectory corrected by the fill pass, no full space is
	// revisited.
	for i := 0; i < 16; i++ {
		p, err := m.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Free(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	d := m.Stats()
	visits := d.SpacesVisited - base.SpacesVisited
	// 16 allocs + 16 frees = 32 useful visits; anything more would be
	// wasted probes of full spaces.
	if visits != 32 {
		t.Errorf("spaces visited = %d, want 32 (superdirectory must skip full spaces)", visits)
	}
	if d.SpacesSkipped <= base.SpacesSkipped {
		t.Error("no superdirectory skips recorded")
	}
}

func TestNoSuperdirectoryProbesEverySpace(t *testing.T) {
	vol := disk.MustNewVolume(256, 4*(64+1)+1, disk.CostModel{})
	pool := buffer.MustNewPool(vol, 32)
	m, err := FormatVolume(pool, vol, 1, 4, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Alloc(64); err != nil {
			t.Fatal(err)
		}
	}
	base := m.Stats()
	if _, err := m.Alloc(64); err != nil {
		t.Fatal(err)
	}
	d := m.Stats()
	if v := d.SpacesVisited - base.SpacesVisited; v != 4 {
		t.Errorf("spaces visited without superdirectory = %d, want 4", v)
	}
}

func TestManagerAllocUpToPrefersRoomiestSpace(t *testing.T) {
	vol := disk.MustNewVolume(256, 2*(64+1)+1, disk.CostModel{})
	pool := buffer.MustNewPool(vol, 16)
	m, err := FormatVolume(pool, vol, 1, 2, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	spaces := m.Spaces()
	// Make space 0 nearly full.
	if _, err := spaces[0].Alloc(60); err != nil {
		t.Fatal(err)
	}
	// Correct the superdirectory by one failed visit.
	if _, err := m.Alloc(64); err != nil {
		t.Fatal(err)
	}
	p, got, err := m.AllocUpTo(64)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 && got != 64 {
		t.Logf("AllocUpTo got %d", got)
	}
	_ = p
}

func TestSpaceStatsAccumulate(t *testing.T) {
	s := newSpaceT(t, 64, 16)
	p, err := s.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(p, 4); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Allocs != 1 || st.Frees != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.DirAccesses < 2 {
		t.Errorf("dir accesses = %d, want >= 2", st.DirAccesses)
	}
}

// TestQuickRandomizedSpaces runs short random workloads across several
// geometries via testing/quick seeds.
func TestQuickRandomizedSpaces(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := (32 + rng.Intn(96)) &^ 3
		vol := disk.MustNewVolume(128, disk.PageNum(capacity+4), disk.CostModel{})
		pool := buffer.MustNewPool(vol, 4)
		s, err := FormatSpace(pool, 0, 1, capacity, vol)
		if err != nil {
			return false
		}
		type run struct {
			start disk.PageNum
			n     int
		}
		var live []run
		for op := 0; op < 150; op++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				n := 1 + rng.Intn(16)
				p, err := s.Alloc(n)
				if errors.Is(err, ErrNoSpace) {
					continue
				}
				if err != nil {
					return false
				}
				live = append(live, run{p, n})
			} else {
				i := rng.Intn(len(live))
				if err := s.Free(live[i].start, live[i].n); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if err := s.Check(); err != nil {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func ExampleSpace() {
	vol := disk.MustNewVolume(64, 24, disk.CostModel{})
	pool := buffer.MustNewPool(vol, 4)
	s, _ := FormatSpace(pool, 0, 1, 16, vol)
	p, _ := s.Alloc(11)
	fmt.Println("allocated 11 pages at", p)
	s.Free(p+3, 7)
	free, _ := s.FreePages()
	fmt.Println("free pages:", free)
	// Output:
	// allocated 11 pages at 1
	// free pages: 12
}
