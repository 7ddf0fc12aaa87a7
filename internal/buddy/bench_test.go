package buddy

import (
	"fmt"
	"testing"

	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
)

func benchSpace(b *testing.B) *Space {
	b.Helper()
	vol := disk.MustNewVolume(4096, 16008, disk.CostModel{})
	pool := buffer.MustNewPool(vol, 8)
	s, err := FormatSpace(pool, 0, 1, 16000, vol)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkAllocFree(b *testing.B) {
	for _, size := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("pages-%d", size), func(b *testing.B) {
			s := benchSpace(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := s.Alloc(size)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Free(p, size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAllocArbitrarySize(b *testing.B) {
	s := benchSpace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 1 + i%100
		p, err := s.Alloc(n)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Free(p, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocateFreeFragmented(b *testing.B) {
	s := benchSpace(b)
	// Fragment: allocate everything in 4-page pieces, free every other.
	var runs []disk.PageNum
	for {
		p, err := s.Alloc(4)
		if err != nil {
			break
		}
		runs = append(runs, p)
	}
	for i := 0; i < len(runs); i += 2 {
		if err := s.Free(runs[i], 4); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.LocateFree(2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocFragmented allocates 4-page runs from the space
// BenchmarkLocateFreeFragmented fragments until it is full, and frees them
// again outside the timer: every allocation scan runs over a fragmented
// space, resuming from the space's hint.
func BenchmarkAllocFragmented(b *testing.B) {
	s := benchSpace(b)
	var runs []disk.PageNum
	for {
		p, err := s.Alloc(4)
		if err != nil {
			break
		}
		runs = append(runs, p)
	}
	for i := 0; i < len(runs); i += 2 {
		if err := s.Free(runs[i], 4); err != nil {
			b.Fatal(err)
		}
	}
	var taken []disk.PageNum
	probes := s.Stats().ScanProbes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Alloc(4)
		if err != nil {
			b.StopTimer()
			for _, p := range taken {
				if err := s.Free(p, 4); err != nil {
					b.Fatal(err)
				}
			}
			taken = taken[:0]
			b.StartTimer()
			if p, err = s.Alloc(4); err != nil {
				b.Fatal(err)
			}
		}
		taken = append(taken, p)
	}
	b.ReportMetric(float64(s.Stats().ScanProbes-probes)/float64(b.N), "probes/op")
}
