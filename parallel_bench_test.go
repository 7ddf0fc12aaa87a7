package eos_test

// Parallel read-path benchmarks.  Two store configurations are compared:
//
//   - serialized: single pool shard, volume queue depth 1 — the original
//     design, in which one global mutex kept at most one transfer in
//     flight at any moment.
//   - parallel: sharded pool, queue depth 16 — concurrent readers each
//     keep their own transfer in flight.
//
// Both read each range's segments in logical order, one request per
// segment piece.  The *Lat benchmarks run the volume in
// latency-simulation mode (a modern-flash cost model, each request
// sleeping its modelled duration) so the benchmark measures what the
// software concurrency actually buys: overlapping the transfers of
// concurrent readers.  The *Mem benchmarks run against
// the raw in-memory volume and bound the locking overhead itself.
//
// Run with: go test -bench ParallelRead -cpu=1,8 -benchtime=200x

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

const (
	parObjects = 16
	parObjSize = 256 << 10
	parPage    = 4096
)

// fastDiskModel approximates a modern flash device, scaled so one 64 KB
// transfer sleeps ~160 µs: benchmarks stay short while I/O still
// dominates memcpy.
func fastDiskModel() disk.CostModel {
	return disk.CostModel{SeekMicros: 80, RotationalMicros: 0, TransferMicrosPerPage: 5}
}

type parStore struct {
	vol  *disk.Volume
	objs []*eos.Object
}

var parStores = map[string]*parStore{}
var parStoresMu sync.Mutex

// parStoreFor builds (once per configuration) a store holding parObjects
// objects of parObjSize bytes, appended in chunks so each object spans
// several segments and reads cross segment boundaries.
func parStoreFor(b *testing.B, name string, opts eos.Options) *parStore {
	b.Helper()
	parStoresMu.Lock()
	defer parStoresMu.Unlock()
	if st, ok := parStores[name]; ok {
		return st
	}
	vol := disk.MustNewVolume(parPage, 8192, fastDiskModel())
	logVol := disk.MustNewVolume(parPage, 1024, fastDiskModel())
	s, err := eos.Format(vol, logVol, opts)
	if err != nil {
		b.Fatal(err)
	}
	objs := make([]*eos.Object, parObjects)
	for i := range objs {
		o, err := s.Create(fmt.Sprintf("par-%d", i), 0)
		if err != nil {
			b.Fatal(err)
		}
		chunk := make([]byte, 32<<10)
		for off := 0; off < parObjSize; off += len(chunk) {
			for j := range chunk {
				chunk[j] = byte(i + off + j)
			}
			if err := o.Append(chunk); err != nil {
				b.Fatal(err)
			}
		}
		objs[i] = o
	}
	st := &parStore{vol: vol, objs: objs}
	parStores[name] = st
	return st
}

var serializedOpts = eos.Options{Threshold: 8, PoolShards: 1}
var parallelOpts = eos.Options{Threshold: 8, PoolShards: 8}

// benchRead64KB measures aggregate throughput of concurrent 64 KB reads
// at random offsets across the object set.
func benchRead64KB(b *testing.B, st *parStore) {
	b.SetBytes(64 << 10)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		buf := make([]byte, 64<<10)
		for pb.Next() {
			o := st.objs[rng.Intn(len(st.objs))]
			off := int64(rng.Intn(parObjSize - 64<<10))
			if err := o.ReadAt(buf, off); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkParallelRead64KBLat(b *testing.B) {
	b.Run("serialized", func(b *testing.B) {
		st := parStoreFor(b, "serialized", serializedOpts)
		st.vol.SetLatency(true, 1)
		defer st.vol.SetLatency(false, 0)
		benchRead64KB(b, st)
	})
	b.Run("parallel", func(b *testing.B) {
		st := parStoreFor(b, "parallel", parallelOpts)
		st.vol.SetLatency(true, 16)
		defer st.vol.SetLatency(false, 0)
		benchRead64KB(b, st)
	})
}

func BenchmarkParallelRead64KBMem(b *testing.B) {
	b.Run("serialized", func(b *testing.B) {
		benchRead64KB(b, parStoreFor(b, "serialized", serializedOpts))
	})
	b.Run("parallel", func(b *testing.B) {
		benchRead64KB(b, parStoreFor(b, "parallel", parallelOpts))
	})
}

// benchScan measures full sequential scans through readers, with
// per-byte consumer work on every chunk.
func benchScan(b *testing.B, st *parStore) {
	b.SetBytes(parObjSize)
	var seq atomic.Int64
	var sink atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		buf := make([]byte, 64<<10)
		for pb.Next() {
			o := st.objs[rng.Intn(len(st.objs))]
			r := o.NewReader()
			var acc byte
			for {
				n, err := r.Read(buf)
				if n == 0 || err != nil {
					break
				}
				for _, c := range buf[:n] {
					acc ^= c
				}
			}
			sink.Add(int64(acc))
		}
	})
}

func BenchmarkParallelScanLat(b *testing.B) {
	b.Run("serialized", func(b *testing.B) {
		st := parStoreFor(b, "serialized", serializedOpts)
		st.vol.SetLatency(true, 1)
		defer st.vol.SetLatency(false, 0)
		benchScan(b, st)
	})
	b.Run("parallel", func(b *testing.B) {
		st := parStoreFor(b, "parallel", parallelOpts)
		st.vol.SetLatency(true, 16)
		defer st.vol.SetLatency(false, 0)
		benchScan(b, st)
	})
}

func BenchmarkParallelScanMem(b *testing.B) {
	b.Run("serialized", func(b *testing.B) {
		benchScan(b, parStoreFor(b, "serialized", serializedOpts))
	})
	b.Run("parallel", func(b *testing.B) {
		benchScan(b, parStoreFor(b, "parallel", parallelOpts))
	})
}
