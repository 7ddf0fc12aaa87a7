package eos_test

// Real-I/O benchmarks: the same storage engine running on file-backed
// volumes (pread/pwrite/pwritev/fdatasync against temp-dir page files)
// instead of the cost-modelled simulator.  Three aspects of the file
// backend are measured:
//
//   - BenchmarkRealIOWriteRun: one vectored pwritev submission of a
//     64-page dirty run vs 64 page-at-a-time pwrite calls.
//   - BenchmarkRealIOCommit4KB: the durable commit path — WAL append
//     plus a real fdatasync per transaction.
//   - BenchmarkRealIORead64KB: 64 KB object reads through the buffer
//     pool backed by real page files.
//
// Wall-clock numbers here depend on the machine's filesystem and
// cache; scripts/bench_regress.sh treats ns/op as informational and
// gates allocs/op, which stays deterministic on these paths.
//
// Run with: go test -bench RealIO -benchtime=50x -benchmem

import (
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

const realPage = 4096

func realVolume(b *testing.B, pages disk.PageNum) *disk.FileVolume {
	b.Helper()
	v, err := disk.CreateFileVolume(filepath.Join(b.TempDir(), "bench.eos"),
		realPage, pages, disk.FileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = v.Close() })
	return v
}

func realStore(b *testing.B, opts eos.Options) *eos.Store {
	b.Helper()
	opts.PageSize = realPage
	opts.DataPages = 8192
	opts.LogPages = 2048
	s, err := eos.CreateAt(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	return s
}

func realRunPages(n int) [][]byte {
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, realPage)
		for j := range pages[i] {
			pages[i][j] = byte(i + j)
		}
	}
	return pages
}

// BenchmarkRealIOWriteRun writes one 64-page (256 KB) run per
// iteration: vectored issues a single WriteRun (one pwritev batch),
// pagewise issues 64 single-page WritePages calls — the syscall-count
// difference the coalesced flush path exists to exploit.
func BenchmarkRealIOWriteRun(b *testing.B) {
	const runPages = 64
	pages := realRunPages(runPages)
	flat := make([]byte, runPages*realPage)
	b.Run("vectored", func(b *testing.B) {
		v := realVolume(b, 4096)
		b.SetBytes(runPages * realPage)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := v.WriteRun(0, pages); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pagewise", func(b *testing.B) {
		v := realVolume(b, 4096)
		b.SetBytes(runPages * realPage)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for p := 0; p < runPages; p++ {
				copy(flat, pages[p])
				if err := v.WritePages(disk.PageNum(p), 1, flat[:realPage]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkRealIOCommit4KB measures the durable commit path on real
// files: replace 4 KB in place and commit, paying a WAL append plus a
// real fdatasync per transaction.  A periodic checkpoint (outside the
// timer) keeps the log from filling.
func BenchmarkRealIOCommit4KB(b *testing.B) {
	s := realStore(b, eos.Options{Threshold: 8})
	o, err := s.Create("obj", 0)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4096)
	if err := o.Append(data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 255 {
			b.StopTimer()
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		tx, err := s.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Replace("obj", 0, data); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealIORead64KB measures 64 KB reads at random offsets from
// a multi-segment object stored on real page files, through the
// buffer pool's fixed frames.
func BenchmarkRealIORead64KB(b *testing.B) {
	const objSize = 4 << 20
	s := realStore(b, eos.Options{Threshold: 8, PoolShards: 8})
	o, err := s.Create("obj", 0)
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 256<<10)
	for off := 0; off < objSize; off += len(chunk) {
		for j := range chunk {
			chunk[j] = byte(off + j)
		}
		if err := o.Append(chunk); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(rng.Intn(objSize - 64<<10))
		if err := o.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}
