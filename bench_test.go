// Micro-benchmarks for the primitive operations of the public API.  The
// experiments of the reproduction run through cmd/eosbench (eosbench -exp
// eN) and internal/bench's tests; see DESIGN.md §3 for the index.
package eos_test

import (
	"fmt"
	"testing"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

func benchStore(b *testing.B) *eos.Store {
	b.Helper()
	vol := disk.MustNewVolume(1024, 16384, disk.DefaultCostModel())
	logVol := disk.MustNewVolume(1024, 4096, disk.DefaultCostModel())
	s, err := eos.Format(vol, logVol, eos.Options{Threshold: 8})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchObject(b *testing.B, s *eos.Store, size int) *eos.Object {
	b.Helper()
	o, err := s.Create(fmt.Sprintf("bench-%d", size), 0)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	if err := o.AppendWithHint(data, int64(size)); err != nil {
		b.Fatal(err)
	}
	return o
}

func BenchmarkAppend4KB(b *testing.B) {
	s := benchStore(b)
	o, err := s.Create("append", 0)
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o.Size() > 8<<20 {
			b.StopTimer()
			if err := o.Truncate(0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := o.Append(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialRead1MB(b *testing.B) {
	s := benchStore(b)
	o := benchObject(b, s, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Read(0, o.Size()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomRead4KB(b *testing.B) {
	s := benchStore(b)
	o := benchObject(b, s, 1<<20)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64((i * 137791) % (1<<20 - 4096))
		if _, err := o.Read(off, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsert1KBMiddle(b *testing.B) {
	s := benchStore(b)
	o := benchObject(b, s, 1<<20)
	data := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o.Size() > 8<<20 {
			b.StopTimer()
			if err := o.Truncate(1 << 20); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := o.Insert(o.Size()/2, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelete1KBMiddle(b *testing.B) {
	s := benchStore(b)
	o := benchObject(b, s, 8<<20)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o.Size() < 1<<20 {
			b.StopTimer()
			data := make([]byte, 4<<20)
			if err := o.Append(data); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := o.Delete(o.Size()/2, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplace4KB(b *testing.B) {
	s := benchStore(b)
	o := benchObject(b, s, 1<<20)
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64((i * 65537) % (1<<20 - 4096))
		if err := o.Replace(off, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTxnCommit(b *testing.B) {
	s := benchStore(b)
	o := benchObject(b, s, 1<<20)
	_ = o
	data := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := s.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Replace("bench-1048576", 1000, data); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		if i%64 == 0 {
			b.StopTimer()
			if err := s.Checkpoint(); err != nil { // keep the log bounded
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}
