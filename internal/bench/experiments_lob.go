package bench

import (
	"fmt"
	"math/rand"

	"github.com/eosdb/eos/internal/lob"
)

func lobDefaultConfig() lob.Config {
	return lob.Config{Threshold: 8}
}

// E4SearchCost reproduces the §4.2 worked example: reading 320 bytes from
// byte 1470 of a 1820-byte object (PS = 100).  On the multi-segment
// Figure 5.c object the read costs 3 seeks and 6 page transfers (one
// index node, four pages of one segment, one page of the next); on the
// single-segment Figure 5.a object, 1 seek and the data pages.
func E4SearchCost() (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "search cost worked example (§4.2, Fig 5)",
		Claim:   "Fig 5.c read: 3 seeks + 6 transfers (incl. index, excl. root); Fig 5.a: 1 seek + contiguous transfers",
		Headers: []string{"object", "segments", "height", "seeks", "page transfers", "sim time"},
	}
	// Figure 5.c-like object: segments of 520, 500, 280, 430, 90 bytes
	// built with explicit growth hints (PS = 100).
	st, err := NewStackGeometry(100, 4, 256, lob.Config{Threshold: 1, MaxRootEntries: 2}, true)
	if err != nil {
		return nil, err
	}
	o := st.LM.NewObject(1)
	for _, seg := range []struct{ pages, bytes int }{
		{6, 520}, {5, 500}, {3, 280}, {5, 430}, {1, 90},
	} {
		o.SetGrowthHint(seg.pages)
		if err := o.Append(Pattern(seg.bytes, seg.bytes)); err != nil {
			return nil, err
		}
	}
	u, err := o.Usage()
	if err != nil {
		return nil, err
	}
	if err := st.ColdIO(); err != nil {
		return nil, err
	}
	if _, err := o.Read(1470, 320); err != nil {
		return nil, err
	}
	s := st.Vol.Stats()
	t.AddRow("Fig 5.c (5 segments)", fmt.Sprint(u.SegmentCount), fmt.Sprint(u.TreeHeight),
		fmtI(s.Seeks), fmtI(s.PagesRead), fmtMS(s.Micros))

	// Figure 5.a: one 19-page segment, root points straight at it.
	st2, err := NewStackGeometry(100, 4, 256, lob.Config{Threshold: 1}, true)
	if err != nil {
		return nil, err
	}
	o2 := st2.LM.NewObject(1)
	if err := o2.AppendWithHint(Pattern(5, 1820), 1820); err != nil {
		return nil, err
	}
	u2, _ := o2.Usage()
	if err := st2.ColdIO(); err != nil {
		return nil, err
	}
	if _, err := o2.Read(1470, 320); err != nil {
		return nil, err
	}
	s2 := st2.Vol.Stats()
	t.AddRow("Fig 5.a (1 segment)", fmt.Sprint(u2.SegmentCount), fmt.Sprint(u2.TreeHeight),
		fmtI(s2.Seeks), fmtI(s2.PagesRead), fmtMS(s2.Micros))
	return t, nil
}

// buildUpdatedObject creates a 1 MB object and applies mixed small
// inserts and deletes uniformly across it.
func buildUpdatedObject(st *Stack, threshold, updates, opBytes int, seed int64) (*lob.Object, error) {
	o := st.LM.NewObject(threshold)
	const size = 1 << 20
	if err := o.AppendWithHint(Pattern(3, size), size); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < updates; i++ {
		off := int64(rng.Intn(int(o.Size())))
		if i%2 == 0 {
			if err := o.Insert(off, Pattern(i, opBytes)); err != nil {
				return nil, err
			}
		} else {
			n := int64(opBytes)
			if off+n > o.Size() {
				n = o.Size() - off
			}
			if n > 0 {
				if err := o.Delete(off, n); err != nil {
					return nil, err
				}
			}
		}
	}
	return o, nil
}

// E5UtilizationVsT reproduces the §4.4 utilization analysis: larger
// thresholds push per-segment utilization toward 1 - 1/2T (87%, 97%,
// 99% for T = 4, 16, 64) and reduce index overhead.
func E5UtilizationVsT() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "storage utilization vs threshold T (§4.4)",
		Claim:   "\"for segments of size T, the utilization per segment will be on the average 1-1/2T. For T=4, 16 and 64, this evaluates to 87%, 97%, and 99%\"",
		Headers: []string{"T", "theory 1-1/2T", "measured util", "segments", "index pages", "height", "wasted KB"},
	}
	for _, T := range []int{1, 4, 16, 64} {
		st, err := NewStack(2, lob.Config{Threshold: T})
		if err != nil {
			return nil, err
		}
		o, err := buildUpdatedObject(st, T, 300, 64, int64(T))
		if err != nil {
			return nil, err
		}
		u, err := o.Usage()
		if err != nil {
			return nil, err
		}
		theory := 1 - 1/(2*float64(T))
		t.AddRow(fmt.Sprint(T), fmtPct(theory), fmtPct(u.Utilization(benchPageSize)),
			fmt.Sprint(u.SegmentCount), fmt.Sprint(u.IndexPages), fmt.Sprint(u.TreeHeight),
			fmt.Sprintf("%.1f", float64(u.WastedBytes)/1024))
	}
	t.Notes = append(t.Notes,
		"1 MB object, 300 random 64-byte inserts/deletes; measured utilization includes index pages",
		"the paper's formula is per-segment for T-page segments; large surviving segments push measured utilization higher")
	return t, nil
}

// E6SeqReadAfterUpdates measures clustering preservation: sequential
// read seeks after an update storm, by threshold.
func E6SeqReadAfterUpdates() (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "sequential read after random updates vs T (§4.4)",
		Claim:   "without the threshold, updates erode contiguity until \"leaf segments will be just 1-page long\" and every page touch seeks; larger T keeps I/O rates near transfer rates",
		Headers: []string{"T", "updates", "segments", "seeks (full scan)", "pages read", "sim time", "MB/s (modelled)"},
	}
	for _, T := range []int{1, 4, 16, 64} {
		for _, updates := range []int{0, 300} {
			st, err := NewStack(2, lob.Config{Threshold: T})
			if err != nil {
				return nil, err
			}
			o, err := buildUpdatedObject(st, T, updates, 64, 7)
			if err != nil {
				return nil, err
			}
			u, _ := o.Usage()
			if err := st.ColdIO(); err != nil {
				return nil, err
			}
			if _, err := o.Read(0, o.Size()); err != nil {
				return nil, err
			}
			s := st.Vol.Stats()
			mb := float64(o.Size()) / (1 << 20)
			mbps := mb / (float64(s.Micros) / 1e6)
			t.AddRow(fmt.Sprint(T), fmt.Sprint(updates), fmt.Sprint(u.SegmentCount),
				fmtI(s.Seeks), fmtI(s.PagesRead), fmtMS(s.Micros), fmtF(mbps))
		}
	}
	return t, nil
}

// E10AdaptiveT ablates the [Bili91a] adaptive threshold against a static
// one under a heavy insert storm.
func E10AdaptiveT() (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "adaptive threshold ablation ([Bili91a], §4.4)",
		Claim:   "\"the closer we are to splitting an index, the higher the value of T should become\"; a full parent coalesces its unsafe adjacent segments instead of splitting",
		Headers: []string{"mode", "segments", "index pages", "height", "compactions", "scan seeks", "sim scan time"},
	}
	for _, adaptive := range []bool{false, true} {
		st, err := NewStack(3, lob.Config{Threshold: 4, AdaptiveThreshold: adaptive})
		if err != nil {
			return nil, err
		}
		o, err := buildUpdatedObject(st, 4, 600, 48, 13)
		if err != nil {
			return nil, err
		}
		u, _ := o.Usage()
		if err := st.ColdIO(); err != nil {
			return nil, err
		}
		if _, err := o.Read(0, o.Size()); err != nil {
			return nil, err
		}
		s := st.Vol.Stats()
		mode := "static T=4"
		if adaptive {
			mode = "adaptive T"
		}
		st8 := st.LM.Stats()
		t.AddRow(mode, fmt.Sprint(u.SegmentCount), fmt.Sprint(u.IndexPages), fmt.Sprint(u.TreeHeight),
			fmtI(st8.LeafCompactions), fmtI(s.Seeks), fmtMS(s.Micros))
	}
	return t, nil
}

// E11AppendGrowth contrasts the §4.1 growth policies: a known final size
// allocates one right-sized segment; an unknown size — a stream — doubles
// and trims; and the same bytes as one Append call per chunk, each of which
// knows its own size and nothing about the rest.
func E11AppendGrowth() (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "append growth policies (§4.1, Fig 5.a-b)",
		Claim:   "known size: one segment just large enough; unknown: segments double until the maximum, the last is trimmed",
		Headers: []string{"policy", "segments", "data pages", "utilization", "create seeks", "create writes", "sim time"},
	}
	const size = 1 << 20
	chunk := Pattern(9, 4096)

	type policy struct {
		name string
		run  func(o *lob.Object) error
	}
	policies := []policy{
		{"known size (hint)", func(o *lob.Object) error {
			a := o.OpenAppender(size)
			for w := 0; w < size; w += len(chunk) {
				if _, err := a.Write(chunk); err != nil {
					return err
				}
			}
			return a.Close()
		}},
		{"unknown size (doubling)", func(o *lob.Object) error {
			a := o.OpenAppender(0)
			for w := 0; w < size; w += len(chunk) {
				if _, err := a.Write(chunk); err != nil {
					return err
				}
			}
			return a.Close()
		}},
		{"one Append call per chunk", func(o *lob.Object) error {
			for w := 0; w < size; w += len(chunk) {
				if err := o.Append(chunk); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, p := range policies {
		st, err := NewStack(2, lobDefaultConfig())
		if err != nil {
			return nil, err
		}
		o := st.LM.NewObject(0)
		if err := st.ResetIO(); err != nil {
			return nil, err
		}
		if err := p.run(o); err != nil {
			return nil, err
		}
		if err := st.Pool.FlushAll(); err != nil {
			return nil, err
		}
		s := st.Vol.Stats()
		u, _ := o.Usage()
		t.AddRow(p.name, fmt.Sprint(u.SegmentCount), fmt.Sprint(u.SegmentPages),
			fmtPct(u.Utilization(benchPageSize)), fmtI(s.Seeks), fmtI(s.PagesWritten), fmtMS(s.Micros))
	}
	t.Notes = append(t.Notes, "1 MB appended in 4 KB chunks; PS = 1 KB, max segment 2 MB")
	return t, nil
}
