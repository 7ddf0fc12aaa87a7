package buddy

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// twinSpaces is a hinted space beside a full-scan twin of the same
// geometry: before each operation the twin forgets its hint, so every
// allocation scan it makes starts at page 0, as the reference scan does.
type twinSpaces struct {
	hinted, full *Space
	swallowed    int // states in which some hint lay inside a segment, not at its start
}

func newTwinSpaces(t *testing.T, pageSize, capacity int) *twinSpaces {
	return &twinSpaces{hinted: newSpaceT(t, pageSize, capacity), full: newSpaceT(t, pageSize, capacity)}
}

// do runs op on both spaces and fails unless they return the same and
// leave the same directory image.
func (tw *twinSpaces) do(t *testing.T, what string, op func(s *Space) (disk.PageNum, int, error)) (disk.PageNum, int, error) {
	t.Helper()
	tw.full.mu.Lock()
	tw.full.st.low = nil
	tw.full.mu.Unlock()
	p1, n1, err1 := op(tw.hinted)
	p2, n2, err2 := op(tw.full)
	if p1 != p2 || n1 != n2 || (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: hinted space returned (%d, %d, %v), full scan (%d, %d, %v)", what, p1, n1, err1, p2, n2, err2)
	}
	if a, b := dirImage(t, tw.hinted), dirImage(t, tw.full); !bytes.Equal(a, b) {
		t.Fatalf("%s: the directory images differ", what)
	}
	if tw.hintSwallowed(t) {
		tw.swallowed++
	}
	return p1, n1, err1
}

// dirImage copies s's directory page.
func dirImage(t *testing.T, s *Space) []byte {
	t.Helper()
	var img []byte
	if err := s.withDir(false, func(d dir) error {
		img = append(img, d.img...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return img
}

// hintSwallowed reports whether some hint of the hinted space lies inside
// a segment rather than at the start of a free one of its type: the state
// in which the next scan must resume from the containing segment's start.
func (tw *twinSpaces) hintSwallowed(t *testing.T) bool {
	t.Helper()
	in := false
	if err := tw.hinted.withDir(false, func(d dir) error {
		for typ, h := range tw.hinted.st.low {
			if int(h) >= d.capacity() {
				return fmt.Errorf("the type-%d hint is page %d, past the space's %d pages", typ, h, d.capacity())
			}
			start, st, alloc, err := d.segContaining(int(h))
			if err != nil {
				return err
			}
			if start != int(h) || st != typ || alloc {
				in = true
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return in
}

type liveRun struct {
	start disk.PageNum
	n     int
}

// TestHintedPlacementMatchesFullScan drives a hinted space and a full-scan
// twin through seeded streams of Alloc, AllocUpTo, partial Free and
// Reserve, and requires every returned start and the directory image to be
// the same after every step: the hint changes where a scan starts, never
// what it finds.
func TestHintedPlacementMatchesFullScan(t *testing.T) {
	for _, g := range []struct{ pageSize, capacity int }{{128, 360}, {256, 864}, {64, 100}} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("page%d/cap%d/seed%d", g.pageSize, g.capacity, seed), func(t *testing.T) {
				tw := newTwinSpaces(t, g.pageSize, g.capacity)
				rng := rand.New(rand.NewSource(seed))
				maxSeg := tw.hinted.MaxSegmentPages()
				// size draws mostly one to three pages, which the amap
				// encodes page by page, and sometimes up to a whole segment.
				size := func() int {
					if rng.Intn(3) > 0 {
						return 1 + rng.Intn(3)
					}
					return 1 + rng.Intn(maxSeg)
				}
				var live []liveRun
				for op := 0; op < 1500; op++ {
					what := fmt.Sprintf("op %d", op)
					switch k := rng.Intn(10); {
					case k < 3 || len(live) == 0:
						n := size()
						p, _, err := tw.do(t, what+": Alloc", func(s *Space) (disk.PageNum, int, error) {
							p, err := s.Alloc(n)
							return p - s.Base(), 0, err
						})
						if err == nil {
							live = append(live, liveRun{p, n})
						} else if !errors.Is(err, ErrNoSpace) {
							t.Fatalf("%s: Alloc(%d): %v", what, n, err)
						}
					case k < 5:
						n := size()
						p, got, err := tw.do(t, what+": AllocUpTo", func(s *Space) (disk.PageNum, int, error) {
							p, got, err := s.AllocUpTo(n)
							return p - s.Base(), got, err
						})
						if err == nil {
							live = append(live, liveRun{p, got})
						} else if !errors.Is(err, ErrNoSpace) {
							t.Fatalf("%s: AllocUpTo(%d): %v", what, n, err)
						}
					case k < 9:
						// Free a sub-range of a live run, possibly all of it.
						i := rng.Intn(len(live))
						r := live[i]
						off := rng.Intn(r.n)
						n := 1 + rng.Intn(r.n-off)
						if _, _, err := tw.do(t, what+": Free", func(s *Space) (disk.PageNum, int, error) {
							return 0, 0, s.Free(s.Base()+r.start+disk.PageNum(off), n)
						}); err != nil {
							t.Fatalf("%s: Free: %v", what, err)
						}
						live = append(live[:i], live[i+1:]...)
						if off > 0 {
							live = append(live, liveRun{r.start, off})
						}
						if off+n < r.n {
							live = append(live, liveRun{r.start + disk.PageNum(off+n), r.n - off - n})
						}
					default:
						// Reserve a sub-range of a free segment, as recovery does.
						segs, err := tw.full.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						var free []SegmentInfo
						for _, sg := range segs {
							if !sg.Allocated {
								free = append(free, sg)
							}
						}
						if len(free) == 0 {
							continue
						}
						sg := free[rng.Intn(len(free))]
						off := rng.Intn(sg.Pages)
						n := 1 + rng.Intn(sg.Pages-off)
						p := sg.Start - tw.full.Base() + disk.PageNum(off)
						if _, _, err := tw.do(t, what+": Reserve", func(s *Space) (disk.PageNum, int, error) {
							return 0, 0, s.Reserve(s.Base()+p, n)
						}); err != nil {
							t.Fatalf("%s: Reserve: %v", what, err)
						}
						live = append(live, liveRun{p, n})
					}
				}
				checkT(t, tw.hinted)
				if tw.swallowed == 0 {
					t.Error("no step left a hint inside a segment: the stream never made a scan resume from a containing segment")
				}
			})
		}
	}
}

// fragmentedTwins fills a hinted space and its full-scan twin with
// 4-page runs and frees every other one.  Then, on both, it runs thirty
// rounds of a hundred allocations of one to four pages, each of which
// supersedes a random live run, and frees the superseded runs at the end of
// the round, as the store's checkpoint releases the pages its writers
// superseded.  It returns the allocation scans made and the probes each
// space's scans took in the rounds.
func fragmentedTwins(t *testing.T) (scans int, hinted, full int64) {
	tw := newTwinSpaces(t, 4096, 16000)
	var runs []liveRun
	for {
		p, _, err := tw.do(t, "fill", func(s *Space) (disk.PageNum, int, error) {
			p, err := s.Alloc(4)
			return p - s.Base(), 0, err
		})
		if errors.Is(err, ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, liveRun{p, 4})
	}
	var live []liveRun
	for i, r := range runs {
		if i%2 == 1 {
			live = append(live, r)
			continue
		}
		if _, _, err := tw.do(t, "fragment", func(s *Space) (disk.PageNum, int, error) {
			return 0, 0, s.Free(s.Base()+r.start, r.n)
		}); err != nil {
			t.Fatal(err)
		}
	}
	h0, f0 := tw.hinted.Stats().ScanProbes, tw.full.Stats().ScanProbes
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 30; round++ {
		var superseded []liveRun
		for op := 0; op < 100; op++ {
			n := 1 + rng.Intn(4)
			p, _, err := tw.do(t, "alloc", func(s *Space) (disk.PageNum, int, error) {
				p, err := s.Alloc(n)
				return p - s.Base(), 0, err
			})
			if err != nil {
				t.Fatal(err)
			}
			scans++
			i := rng.Intn(len(live))
			superseded = append(superseded, live[i])
			live[i] = liveRun{p, n}
		}
		for _, r := range superseded {
			if _, _, err := tw.do(t, "free", func(s *Space) (disk.PageNum, int, error) {
				return 0, 0, s.Free(s.Base()+r.start, r.n)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return scans, tw.hinted.Stats().ScanProbes - h0, tw.full.Stats().ScanProbes - f0
}

// TestHintedScanProbes pins the allocation scan's deterministic cost on a
// fragmented space: the hinted scans take at most a tenth of the probes
// the same allocations take from page 0.  LocateFree's probes, the
// reference scan's, are counted apart and do not move.
func TestHintedScanProbes(t *testing.T) {
	scans, hinted, full := fragmentedTwins(t)
	t.Logf("%d allocation scans: %d probes hinted (%.1f a scan), %d from page 0 (%.1f a scan)",
		scans, hinted, float64(hinted)/float64(scans), full, float64(full)/float64(scans))
	if scans == 0 || hinted*10 > full {
		t.Errorf("hinted scans took %d probes, more than a tenth of the full scans' %d", hinted, full)
	}
	s := newSpaceT(t, 4096, 16000)
	if _, err := s.Alloc(4); err != nil {
		t.Fatal(err)
	}
	alloc := s.Stats()
	_, probes, err := s.LocateFree(2)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); alloc.Probes != 0 || alloc.ScanProbes == 0 || st.Probes != int64(probes) || st.ScanProbes != alloc.ScanProbes {
		t.Errorf("after Alloc %+v, after LocateFree (%d probes) %+v: want each scan counted in its own field", alloc, probes, st)
	}
}

// TestConcurrentAllocFree runs several goroutines allocating and freeing
// on one space: every run handed out is disjoint from every other live
// one, and the directory ends consistent with every page free again.
func TestConcurrentAllocFree(t *testing.T) {
	const workers, ops, capacity = 4, 400, 864
	s := newSpaceT(t, 256, capacity)
	var (
		mu    sync.Mutex
		owner = make(map[disk.PageNum]int)
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var live []liveRun
			free := func(r liveRun) error {
				mu.Lock()
				for i := 0; i < r.n; i++ {
					delete(owner, r.start+disk.PageNum(i))
				}
				mu.Unlock()
				return s.Free(r.start, r.n)
			}
			for op := 0; op < ops; op++ {
				if rng.Intn(2) == 0 || len(live) == 0 {
					n := 1 + rng.Intn(12)
					p, got, err := s.AllocUpTo(n)
					if errors.Is(err, ErrNoSpace) {
						continue
					}
					if err != nil {
						errs <- err
						return
					}
					mu.Lock()
					for i := 0; i < got; i++ {
						if o, taken := owner[p+disk.PageNum(i)]; taken {
							mu.Unlock()
							errs <- fmt.Errorf("page %d handed to worker %d while worker %d holds it", p+disk.PageNum(i), w, o)
							return
						}
						owner[p+disk.PageNum(i)] = w
					}
					mu.Unlock()
					live = append(live, liveRun{p, got})
					continue
				}
				i := rng.Intn(len(live))
				if err := free(live[i]); err != nil {
					errs <- err
					return
				}
				live = append(live[:i], live[i+1:]...)
			}
			for _, r := range live {
				if err := free(r); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkT(t, s)
	if free, err := s.FreePages(); err != nil || free != capacity {
		t.Fatalf("%d pages free at the end (%v), want all %d", free, err, capacity)
	}
}
