package lob

import (
	"fmt"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

func benchEnv(b *testing.B, threshold int) (*env, *Object) {
	b.Helper()
	e := newEnv(b, 1024, 8, 3920, Config{Threshold: threshold})
	o := e.m.NewObject(0)
	if err := o.AppendWithHint(pattern(1, 1<<20), 1<<20); err != nil {
		b.Fatal(err)
	}
	return e, o
}

func BenchmarkInsertByThreshold(b *testing.B) {
	for _, T := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("T%d", T), func(b *testing.B) {
			_, o := benchEnv(b, T)
			data := pattern(2, 256)
			b.SetBytes(256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := o.Insert(o.Size()/2, data); err != nil {
					b.Fatal(err)
				}
				if o.Size() > 4<<20 {
					b.StopTimer()
					if err := o.Truncate(1 << 20); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}

func BenchmarkFindSegment(b *testing.B) {
	_, o := benchEnv(b, 8)
	// Fragment so the tree has depth.
	for i := 0; i < 100; i++ {
		if err := o.Insert(int64(i)*9973, pattern(i, 64)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i*65537) % o.Size()
		if _, _, err := o.findSegment(off); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReshuffle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = reshuffle(int64(i%5000), int64(i%3000)+1, int64(i%7000), 8, 1024, 2<<20)
	}
}

func BenchmarkSequentialScan(b *testing.B) {
	_, o := benchEnv(b, 8)
	b.SetBytes(o.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Read(0, o.Size()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPendingInstall installs one page's image over a page already
// pending in a write-behind set of 64, 1 024 and 8 192 pages: an install
// copies the chunk it falls in, and the chunk list around it in two bulk
// copies, so what grows with the set is the list's copy alone.
func BenchmarkPendingInstall(b *testing.B) {
	const ps = 512
	for _, pages := range []int{64, 1024, 8192} {
		b.Run(fmt.Sprint(pages), func(b *testing.B) {
			vol := disk.MustNewVolume(ps, disk.PageNum(2*pages+1), disk.DefaultCostModel())
			t := NewPending(vol, 4*pages)
			img := make([]byte, ps)
			for p := 0; p < pages; p += chunkPages {
				var add []pendingPage
				for q := p; q < min(p+chunkPages, pages); q++ {
					add = append(add, pendingPage{page: disk.PageNum(2 * q), img: img, kind: closedTail})
				}
				t.install(add, nil)
			}
			one := []pendingPage{{img: img, kind: closedTail}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				one[0].page = disk.PageNum(2 * (i * 7919 % pages))
				t.install(one, nil)
			}
			if n := t.load().len(); n != pages {
				b.Fatalf("%d pages pending, want %d", n, pages)
			}
		})
	}
}
