package eos_test

// Snapshot read-path benchmarks: what does the lock-free read mode buy
// under write pressure?
//
// BenchmarkSnapshotScanUnderWrites runs full sequential scans while an
// 8-goroutine Replace/Insert storm churns the same objects, comparing
//
//   - locked:   live latched reads (Object.ReadAt) — every chunk takes
//     the object's RW latch and queues behind writer latch holds.
//   - snapshot: lock-free reads through a captured committed root
//     (Store.OpenSnapshot) — no latch, no lock table; the epoch pin
//     keeps the captured tree's pages allocated.
//
// BenchmarkSnapshotScanIdle is the same snapshot scan with the storm
// stopped: the lock-free path's raw cost on this layout.  All modes
// share one store, pre-churned at setup until its segment layout
// saturates, so per-byte scan cost is comparable across them (the
// idle benchmark is defined first so a combined run measures it before
// the storm benchmarks churn further).
//
// All modes run in the volume's latency-simulation mode (mid-range
// disk cost model, queue depth 16), where blocking on a latch while
// its holder waits out write I/O is visible as lost throughput.  The
// model is deliberately slower than fastDiskModel: simulated waits are
// time.Sleep calls, and with sub-100µs latencies scheduler wake-up
// jitter is the same order as the signal being measured.
//
// Run with: go test -bench BenchmarkSnapshotScan -cpu=8 -benchtime=200x
//
// Keep benchtime well above the storm's per-op latency (~30 ms under
// contention): shorter runs finish before the writers reach their
// steady-state latch duty cycle and wildly understate the locked
// path's queueing penalty.

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

const (
	// 8 storm writers over 4 objects: two writers per object keep each
	// object's write latch contended continuously — when one releases,
	// the other is already queued — so a locked chunk read almost
	// always waits out a full shadowing op.
	snapObjects = 4
	snapObjSize = 256 << 10
	// snapChunk is the scan read granularity: scans advance one chunk
	// per ReadAt, and the locked path takes the object latch per chunk.
	// Chunks smaller than this make the comparison unfair in the other
	// direction — under the shared-head cost model every storm-time
	// chunk pays a fresh seek that an idle sequential chunk does not.
	snapChunk = 32 << 10
	// snapStormOp is the storm's insert/delete op size.  Each op holds
	// the object's write latch across its full shadowing I/O, so op
	// size sets the residual hold every locked chunk read waits out.
	snapStormOp = 224 << 10
)

// snapDiskModel approximates a mid-range disk: 1 ms seek, 40 µs/page
// transfer.  Latencies this size dwarf time.Sleep wake-up jitter, so
// the measured gap between locked and snapshot scans reflects latch
// queueing, not scheduler noise.
func snapDiskModel() disk.CostModel {
	return disk.CostModel{SeekMicros: 1000, RotationalMicros: 0, TransferMicrosPerPage: 40}
}

type snapBenchStore struct {
	vol  *disk.Volume
	s    *eos.Store
	objs []*eos.Object
}

var snapBench *snapBenchStore
var snapBenchMu sync.Mutex

// stormOp performs one storm step against o: an in-place replace or a
// size-preserving insert+delete pair (the object never shrinks below
// snapObjSize, so scans of exactly snapObjSize bytes always succeed).
func stormOp(rng *rand.Rand, o *eos.Object, buf []byte) error {
	off := int64(rng.Intn(snapObjSize - len(buf)))
	if rng.Intn(8) == 0 {
		return o.Replace(off, buf[:4<<10])
	}
	if err := o.Insert(off, buf); err != nil {
		return err
	}
	return o.Delete(off, int64(len(buf)))
}

// snapStoreFor builds (once) the shared store: snapObjects objects of
// snapObjSize bytes, then deterministic churn until the segment layout
// saturates, so later storm churn no longer shifts per-byte scan cost.
func snapStoreFor(b *testing.B) *snapBenchStore {
	b.Helper()
	snapBenchMu.Lock()
	defer snapBenchMu.Unlock()
	if snapBench != nil {
		return snapBench
	}
	vol := disk.MustNewVolume(parPage, 16384, snapDiskModel())
	logVol := disk.MustNewVolume(parPage, 1024, snapDiskModel())
	s, err := eos.Format(vol, logVol, eos.Options{Threshold: 8})
	if err != nil {
		b.Fatal(err)
	}
	objs := make([]*eos.Object, snapObjects)
	for i := range objs {
		o, err := s.Create(fmt.Sprintf("snap-%d", i), 0)
		if err != nil {
			b.Fatal(err)
		}
		chunk := make([]byte, 32<<10)
		for off := 0; off < snapObjSize; off += len(chunk) {
			for j := range chunk {
				chunk[j] = byte(i + off + j)
			}
			if err := o.Append(chunk); err != nil {
				b.Fatal(err)
			}
		}
		objs[i] = o
	}
	// Pre-churn (latency off: this is setup) to fragmentation
	// saturation.
	buf := make([]byte, snapStormOp)
	for i, o := range objs {
		rng := rand.New(rand.NewSource(int64(i)))
		for n := 0; n < 300; n++ {
			if err := stormOp(rng, o, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	snapBench = &snapBenchStore{vol: vol, s: s, objs: objs}
	return snapBench
}

// startStorm launches 8 writers running stormOp loops against every
// object, then sleeps briefly so the writers reach steady state before
// the caller starts timing.  Stop by closing the returned channel; the
// WaitGroup drains the writers.
func startStorm(b *testing.B, st *snapBenchStore) (chan struct{}, *sync.WaitGroup) {
	b.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			o := st.objs[w%len(st.objs)]
			buf := make([]byte, snapStormOp)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := stormOp(rng, o, buf); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	time.Sleep(200 * time.Millisecond)
	return stop, &wg
}

// benchSnapshotScan scans exactly snapObjSize bytes of a random object
// per iteration, each scan through a freshly captured snapshot.
func benchSnapshotScan(b *testing.B, st *snapBenchStore) {
	b.SetBytes(snapObjSize)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		buf := make([]byte, snapChunk)
		for pb.Next() {
			name := fmt.Sprintf("snap-%d", rng.Intn(len(st.objs)))
			sn, err := st.s.OpenSnapshot(name)
			if err != nil {
				b.Fatal(err)
			}
			for pos := int64(0); pos < snapObjSize; pos += int64(len(buf)) {
				if _, err := sn.ReadAt(buf, pos); err != nil && err != io.EOF {
					b.Fatal(err)
				}
			}
			if err := sn.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
}

// benchLockedScan is the same scan through live latched reads.
func benchLockedScan(b *testing.B, st *snapBenchStore) {
	b.SetBytes(snapObjSize)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		buf := make([]byte, snapChunk)
		for pb.Next() {
			o := st.objs[rng.Intn(len(st.objs))]
			for pos := int64(0); pos < snapObjSize; pos += int64(len(buf)) {
				if err := o.ReadAt(buf, pos); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.StopTimer()
}

func BenchmarkSnapshotScanIdle(b *testing.B) {
	st := snapStoreFor(b)
	st.vol.SetLatency(true, 16)
	defer st.vol.SetLatency(false, 0)
	benchSnapshotScan(b, st)
}

func BenchmarkSnapshotScanUnderWrites(b *testing.B) {
	st := snapStoreFor(b)
	b.Run("locked", func(b *testing.B) {
		st.vol.SetLatency(true, 16)
		defer st.vol.SetLatency(false, 0)
		stop, wg := startStorm(b, st)
		benchLockedScan(b, st)
		close(stop)
		wg.Wait()
	})
	b.Run("snapshot", func(b *testing.B) {
		st.vol.SetLatency(true, 16)
		defer st.vol.SetLatency(false, 0)
		stop, wg := startStorm(b, st)
		benchSnapshotScan(b, st)
		close(stop)
		wg.Wait()
	})
}
