package eos_test

// Parallel write-path benchmarks on the group configuration: buffered
// log tail + leader/follower group commit, coalescing pool write-back,
// queue depth 16.
//
// Each benchmark iteration is one transaction: Begin, Replace a 512-byte
// stripe of the worker's own object, Commit.  Under -cpu=8 eight
// committers run concurrently and one batched log flush+force is
// amortized across the whole batch.
//
// The *Lat benchmarks run both volumes in latency-simulation mode, so
// they measure what batching buys in device time; the *Mem benchmarks
// bound the locking/alloc overhead.  Run with:
//
//	go test -bench ParallelCommit -cpu=1,8 -benchtime=100x
//
// Keep -benchtime bounded (≤2000x): each committed transaction appends
// ~1 KB of log records, each run starts from a fresh checkpoint that
// truncates the log, and the 32 MB log volume holds ~30k commits per
// run before ErrLogFull.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

const (
	wparObjects = 16
	wparObjSize = 64 << 10
	wparStripe  = 512
)

type wparStore struct {
	s      *eos.Store
	vol    *disk.Volume
	logVol *disk.Volume
}

var wparStores = map[string]*wparStore{}
var wparStoresMu sync.Mutex

// wparStoreFor builds (once per configuration) a store with wparObjects
// small objects; committers each Replace inside their own object, so
// transactions conflict only on the shared write path, not on locks.
func wparStoreFor(b *testing.B, name string, opts eos.Options) *wparStore {
	b.Helper()
	wparStoresMu.Lock()
	defer wparStoresMu.Unlock()
	if st, ok := wparStores[name]; ok {
		return st
	}
	vol := disk.MustNewVolume(parPage, 4096, fastDiskModel())
	logVol := disk.MustNewVolume(parPage, 8192, fastDiskModel())
	s, err := eos.Format(vol, logVol, opts)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, wparObjSize)
	for i := 0; i < wparObjects; i++ {
		o, err := s.Create(fmt.Sprintf("wpar-%d", i), 0)
		if err != nil {
			b.Fatal(err)
		}
		for j := range data {
			data[j] = byte(i + j)
		}
		if err := o.Append(data); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	st := &wparStore{s: s, vol: vol, logVol: logVol}
	wparStores[name] = st
	return st
}

var groupWriteOpts = eos.Options{Threshold: 8}

// benchCommit measures committed-transactions-per-second: every
// iteration Replaces one stripe of the calling worker's object and
// commits.  Workers use distinct objects so the measured contention is
// the write path itself (log, pool, volume), not the lock table.
func benchCommit(b *testing.B, st *wparStore) {
	// Start each run from a truncated log so long -benchtime runs and
	// -count repetitions never hit ErrLogFull.
	if err := st.s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(seq.Add(1)-1) % wparObjects
		name := fmt.Sprintf("wpar-%d", w)
		stripe := make([]byte, wparStripe)
		n := 0
		for pb.Next() {
			off := int64((n * wparStripe) % (wparObjSize - wparStripe))
			for j := range stripe {
				stripe[j] = byte(w + n + j)
			}
			n++
			tx, err := st.s.Begin()
			if err != nil {
				b.Fatal(err)
			}
			if err := tx.Replace(name, off, stripe); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkParallelCommitLat(b *testing.B) {
	b.Run("group", func(b *testing.B) {
		st := wparStoreFor(b, "group", groupWriteOpts)
		st.vol.SetLatency(true, 16)
		st.logVol.SetLatency(true, 16)
		defer st.vol.SetLatency(false, 0)
		defer st.logVol.SetLatency(false, 0)
		benchCommit(b, st)
	})
}

func BenchmarkParallelCommitMem(b *testing.B) {
	b.Run("group", func(b *testing.B) {
		benchCommit(b, wparStoreFor(b, "group", groupWriteOpts))
	})
}
