package buffer

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

func newPoolT(t *testing.T, pageSize int, pages disk.PageNum, capacity int) (*Pool, *disk.Volume) {
	t.Helper()
	vol := disk.MustNewVolume(pageSize, pages, disk.CostModel{})
	return MustNewPool(vol, capacity), vol
}

func TestNewPoolValidation(t *testing.T) {
	vol := disk.MustNewVolume(64, 8, disk.CostModel{})
	if _, err := NewPool(vol, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewPool(vol, -3); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestFixReadsThrough(t *testing.T) {
	pool, vol := newPoolT(t, 64, 8, 4)
	want := bytes.Repeat([]byte{7}, 64)
	if err := vol.WritePages(2, 1, want); err != nil {
		t.Fatal(err)
	}
	got, err := pool.Fix(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("Fix returned wrong page image")
	}
	if err := pool.Unpin(2); err != nil {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 1 miss", s)
	}
}

func TestFixHitAvoidsDisk(t *testing.T) {
	pool, vol := newPoolT(t, 64, 8, 4)
	if _, err := pool.Fix(1); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(1)
	before := vol.Stats().Reads
	if _, err := pool.Fix(1); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(1)
	if vol.Stats().Reads != before {
		t.Error("second Fix hit the disk")
	}
	if s := pool.Stats(); s.Hits != 1 {
		t.Errorf("hits = %d, want 1", s.Hits)
	}
}

func TestDirtyWriteBackOnEviction(t *testing.T) {
	pool, vol := newPoolT(t, 64, 8, 2)
	img, err := pool.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	copy(img, bytes.Repeat([]byte{5}, 64))
	pool.MarkDirty(0)
	pool.Unpin(0)

	// Fill the pool so page 0 is evicted.
	for _, pg := range []disk.PageNum{1, 2} {
		if _, err := pool.Fix(pg); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(pg)
	}
	got, err := vol.Read(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{5}, 64)) {
		t.Error("dirty page was not written back on eviction")
	}
	if s := pool.Stats(); s.Flushes != 1 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want 1 flush 1 eviction", s)
	}
}

func TestAllPinnedErrors(t *testing.T) {
	pool, _ := newPoolT(t, 64, 8, 2)
	if _, err := pool.Fix(0); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fix(1); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fix(2); err == nil {
		t.Error("Fix succeeded with all frames pinned")
	}
	pool.Unpin(0)
	if _, err := pool.Fix(2); err != nil {
		t.Errorf("Fix after Unpin: %v", err)
	}
}

func TestPinCountsNested(t *testing.T) {
	pool, _ := newPoolT(t, 64, 8, 1)
	if _, err := pool.Fix(0); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fix(0); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(0)
	// Still pinned once: the only frame must not be evictable.
	if _, err := pool.Fix(1); err == nil {
		t.Error("evicted a pinned frame")
	}
	pool.Unpin(0)
	if _, err := pool.Fix(1); err != nil {
		t.Errorf("Fix after full unpin: %v", err)
	}
}

func TestUnpinErrors(t *testing.T) {
	pool, _ := newPoolT(t, 64, 8, 2)
	if err := pool.Unpin(3); err == nil {
		t.Error("Unpin of unknown page succeeded")
	}
	if err := pool.MarkDirty(3); err == nil {
		t.Error("MarkDirty of unknown page succeeded")
	}
}

func TestFixNewSkipsRead(t *testing.T) {
	pool, vol := newPoolT(t, 64, 8, 2)
	before := vol.Stats().Reads
	img, err := pool.FixNew(5)
	if err != nil {
		t.Fatal(err)
	}
	if vol.Stats().Reads != before {
		t.Error("FixNew read from disk")
	}
	if !bytes.Equal(img, make([]byte, 64)) {
		t.Error("FixNew image not zeroed")
	}
	copy(img, bytes.Repeat([]byte{9}, 64))
	pool.Unpin(5)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got, _ := vol.Read(5, 1)
	if !bytes.Equal(got, bytes.Repeat([]byte{9}, 64)) {
		t.Error("FixNew content not flushed")
	}
}

func TestFlushPageAndAll(t *testing.T) {
	pool, vol := newPoolT(t, 64, 8, 4)
	for _, pg := range []disk.PageNum{0, 1} {
		img, err := pool.Fix(pg)
		if err != nil {
			t.Fatal(err)
		}
		img[0] = byte(10 + pg)
		pool.MarkDirty(pg)
		pool.Unpin(pg)
	}
	if err := pool.FlushPage(0); err != nil {
		t.Fatal(err)
	}
	got, _ := vol.Read(0, 1)
	if got[0] != 10 {
		t.Error("FlushPage did not persist page 0")
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got, _ = vol.Read(1, 1)
	if got[0] != 11 {
		t.Error("FlushAll did not persist page 1")
	}
	// Flushing a clean page is a no-op.
	f := pool.Stats().Flushes
	if err := pool.FlushPage(0); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Flushes != f {
		t.Error("flushing clean page counted a flush")
	}
}

// TestFlushAllExceptKeepsPagesDirty: the excepted pages are counted, stay
// dirty in the pool, and reach the disk with the next plain FlushAll (or
// an eviction) — on a single-shard and on a sharded pool.
func TestFlushAllExceptKeepsPagesDirty(t *testing.T) {
	for _, shards := range []int{1, 4} {
		vol := disk.MustNewVolume(64, 32, disk.DefaultCostModel())
		pool, err := NewPoolShards(vol, 16, shards)
		if err != nil {
			t.Fatal(err)
		}
		for pg := disk.PageNum(0); pg < 6; pg++ {
			img, err := pool.Fix(pg)
			if err != nil {
				t.Fatal(err)
			}
			img[0] = byte(10 + pg)
			pool.MarkDirty(pg)
			pool.Unpin(pg)
		}
		keep := map[disk.PageNum]bool{1: true, 4: true, 20: true} // 20 is not resident
		kept, err := pool.FlushAllExcept(keep)
		if err != nil {
			t.Fatal(err)
		}
		if kept != 2 {
			t.Errorf("%d shards: %d frames kept, want 2", shards, kept)
		}
		for pg := disk.PageNum(0); pg < 6; pg++ {
			got, _ := vol.Read(pg, 1)
			if flushed := got[0] == byte(10+pg); flushed == keep[pg] {
				t.Errorf("%d shards: page %d flushed=%v", shards, pg, flushed)
			}
		}
		// A clean excepted frame is not counted.
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		for pg := range keep {
			if got, _ := vol.Read(pg, 1); pg < 6 && got[0] != byte(10+pg) {
				t.Errorf("%d shards: FlushAll did not persist kept page %d", shards, pg)
			}
		}
		if kept, _ := pool.FlushAllExcept(keep); kept != 0 {
			t.Errorf("%d shards: %d clean frames counted as kept", shards, kept)
		}
	}
}

func TestDiscardDropsDirtyData(t *testing.T) {
	pool, vol := newPoolT(t, 64, 8, 4)
	img, err := pool.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	img[0] = 42
	pool.MarkDirty(0)
	pool.Unpin(0)
	pool.Discard(0)
	got, _ := vol.Read(0, 1)
	if got[0] != 0 {
		t.Error("Discard wrote the page back")
	}
	if pool.Resident(0) {
		t.Error("page still resident after Discard")
	}
}

// TestDiscardWhilePinnedDooms checks the epoch-reclamation interplay:
// discarding a pinned page must not rip the frame out from under its
// reader.  The frame is doomed — still readable through the existing
// pin, never written back — and disappears at the final Unpin.
func TestDiscardWhilePinnedDooms(t *testing.T) {
	pool, vol := newPoolT(t, 64, 8, 4)
	img, err := pool.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	img[0] = 42
	pool.MarkDirty(0)
	pool.Discard(0) // pinned: dooms instead of removing
	if !pool.Resident(0) {
		t.Fatal("pinned frame removed by Discard")
	}
	if img[0] != 42 {
		t.Fatal("doomed frame content changed under the pin")
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got, _ := vol.Read(0, 1)
	if got[0] != 0 {
		t.Fatal("doomed frame written back")
	}
	if err := pool.Unpin(0); err != nil {
		t.Fatal(err)
	}
	if pool.Resident(0) {
		t.Error("doomed frame survived its last Unpin")
	}
	// The page is reusable afresh: FixNew must hand out a clean frame.
	img2, err := pool.FixNew(0)
	if err != nil {
		t.Fatal(err)
	}
	if img2[0] != 0 {
		t.Error("FixNew returned stale doomed content")
	}
	pool.Unpin(0)
}

// TestDiscardNestedPinsDooms covers multiple pins: the doom sticks
// until the last pin drops.
func TestDiscardNestedPinsDooms(t *testing.T) {
	pool, _ := newPoolT(t, 64, 8, 4)
	if _, err := pool.Fix(0); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fix(0); err != nil {
		t.Fatal(err)
	}
	pool.MarkDirty(0)
	pool.Discard(0)
	if err := pool.Unpin(0); err != nil {
		t.Fatal(err)
	}
	if !pool.Resident(0) {
		t.Fatal("doomed frame removed before its last pin dropped")
	}
	if err := pool.Unpin(0); err != nil {
		t.Fatal(err)
	}
	if pool.Resident(0) {
		t.Error("doomed frame survived its last Unpin")
	}
}

func TestDiscardAllSimulatesCrash(t *testing.T) {
	pool, vol := newPoolT(t, 64, 8, 4)
	for pg := disk.PageNum(0); pg < 3; pg++ {
		img, err := pool.Fix(pg)
		if err != nil {
			t.Fatal(err)
		}
		img[0] = 1
		pool.MarkDirty(pg)
		pool.Unpin(pg)
	}
	pool.DiscardAll()
	for pg := disk.PageNum(0); pg < 3; pg++ {
		if pool.Resident(pg) {
			t.Errorf("page %d resident after DiscardAll", pg)
		}
		got, _ := vol.Read(pg, 1)
		if got[0] != 0 {
			t.Errorf("page %d leaked to disk", pg)
		}
	}
}

func TestLRUOrder(t *testing.T) {
	pool, _ := newPoolT(t, 64, 16, 3)
	touch := func(pg disk.PageNum) {
		t.Helper()
		if _, err := pool.Fix(pg); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(pg)
	}
	touch(0)
	touch(1)
	touch(2)
	touch(0) // 1 is now LRU
	touch(3) // evicts 1
	if pool.Resident(1) {
		t.Error("page 1 should have been evicted")
	}
	for _, pg := range []disk.PageNum{0, 2, 3} {
		if !pool.Resident(pg) {
			t.Errorf("page %d should be resident", pg)
		}
	}
}

func TestConcurrentFixUnpin(t *testing.T) {
	pool, _ := newPoolT(t, 64, 64, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pg := disk.PageNum((seed*31 + i*7) % 64)
				if _, err := pool.Fix(pg); err != nil {
					continue // pool may be transiently full
				}
				pool.Unpin(pg)
			}
		}(g)
	}
	wg.Wait()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFixHit(b *testing.B) {
	vol := disk.MustNewVolume(4096, 64, disk.CostModel{})
	pool := MustNewPool(vol, 32)
	if _, err := pool.Fix(5); err != nil {
		b.Fatal(err)
	}
	pool.Unpin(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Fix(5); err != nil {
			b.Fatal(err)
		}
		pool.Unpin(5)
	}
}

func BenchmarkFixMissEvict(b *testing.B) {
	vol := disk.MustNewVolume(4096, 1024, disk.CostModel{})
	pool := MustNewPool(vol, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := disk.PageNum(i % 1024)
		if _, err := pool.Fix(pg); err != nil {
			b.Fatal(err)
		}
		pool.Unpin(pg)
	}
}

func TestShardCounts(t *testing.T) {
	vol := disk.MustNewVolume(64, 2048, disk.CostModel{})
	cases := []struct {
		capacity, shards, want int
	}{
		{64, 0, 1},  // small pools stay single-sharded
		{256, 0, 8}, // auto-sharding kicks in at 128 frames
		{16, 3, 2},  // explicit counts round down to a power of two
		{16, 8, 8},  //
		{4, 16, 1},  // never more shards than frames
		{256, 1, 1}, // explicit single shard for determinism
	}
	for _, c := range cases {
		p, err := NewPoolShards(vol, c.capacity, c.shards)
		if err != nil {
			t.Fatal(err)
		}
		if p.Shards() != c.want {
			t.Errorf("NewPoolShards(cap=%d, shards=%d): got %d shards, want %d",
				c.capacity, c.shards, p.Shards(), c.want)
		}
	}
	if _, err := NewPoolShards(vol, 16, -1); err == nil {
		t.Error("negative shard count accepted")
	}
}

func TestShardedPoolReadsAndStats(t *testing.T) {
	vol := disk.MustNewVolume(64, 2048, disk.CostModel{})
	pool, err := NewPoolShards(vol, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	for pg := disk.PageNum(0); pg < 128; pg++ {
		want := byte(pg + 1)
		if err := vol.WritePages(pg, 1, bytes.Repeat([]byte{want}, 64)); err != nil {
			t.Fatal(err)
		}
		img, err := pool.Fix(pg)
		if err != nil {
			t.Fatal(err)
		}
		if img[0] != want {
			t.Fatalf("page %d read %d, want %d", pg, img[0], want)
		}
		pool.Unpin(pg)
	}
	// Re-fix: all resident, all hits, aggregated across shards.
	for pg := disk.PageNum(0); pg < 128; pg++ {
		if _, err := pool.Fix(pg); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(pg)
	}
	s := pool.Stats()
	if s.Misses != 128 || s.Hits != 128 {
		t.Errorf("stats = %+v, want 128 misses 128 hits", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", got)
	}
	if (Stats{}).HitRate() != 1 {
		t.Error("HitRate of untouched pool should be 1")
	}
}

func TestPinWaitRecoversFromTransientPin(t *testing.T) {
	pool, _ := newPoolT(t, 64, 8, 2)
	if _, err := pool.Fix(0); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fix(1); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		pool.Unpin(0)
	}()
	// Every frame is pinned right now, but one is released while we are
	// inside the bounded pin wait — the Fix must succeed.
	if _, err := pool.Fix(2); err != nil {
		t.Fatalf("Fix during transient full pin: %v", err)
	}
	pool.Unpin(2)
	pool.Unpin(1)
}

func TestPinWaitTimeout(t *testing.T) {
	pool, _ := newPoolT(t, 64, 8, 1)
	pool.SetPinWait(10 * time.Millisecond)
	if _, err := pool.Fix(0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := pool.Fix(1)
	if !errors.Is(err, ErrNoFrames) {
		t.Fatalf("err = %v, want ErrNoFrames", err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("gave up after %v, before the pin-wait window", elapsed)
	}
	pool.Unpin(0)
}

func TestPinWaitZeroFailsFast(t *testing.T) {
	pool, _ := newPoolT(t, 64, 8, 1)
	pool.SetPinWait(0)
	if _, err := pool.Fix(0); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fix(1); !errors.Is(err, ErrNoFrames) {
		t.Errorf("err = %v, want immediate ErrNoFrames", err)
	}
	pool.Unpin(0)
}

func TestPinWaitFindsPageFixedMeanwhile(t *testing.T) {
	pool, _ := newPoolT(t, 64, 16, 2)
	if _, err := pool.Fix(0); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fix(1); err != nil {
		t.Fatal(err)
	}
	// Two goroutines want page 7 while the pool is full; main releases a
	// frame while they wait.  Whichever goroutine reads the page first,
	// the other must find it resident — exactly one miss between them.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Fix(7); err != nil {
				t.Errorf("Fix(7): %v", err)
				return
			}
			pool.Unpin(7)
		}()
	}
	time.Sleep(20 * time.Millisecond)
	pool.Unpin(0)
	wg.Wait()
	s := pool.Stats()
	if got := s.Misses; got != 3 { // pages 0, 1, and one read of 7
		t.Errorf("misses = %d, want 3 (stats %+v)", got, s)
	}
	if s.Hits != 1 {
		t.Errorf("hits = %d, want 1 (stats %+v)", s.Hits, s)
	}
	pool.Unpin(1)
}

func TestConcurrentShardedMixed(t *testing.T) {
	vol := disk.MustNewVolume(64, 512, disk.CostModel{})
	pool, err := NewPoolShards(vol, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				pg := disk.PageNum((seed*131 + i*17) % 512)
				img, err := pool.Fix(pg)
				if err != nil {
					continue
				}
				if i%5 == 0 {
					img[0] = byte(seed)
					pool.MarkDirty(pg)
				}
				pool.Unpin(pg)
			}
		}(g)
	}
	wg.Wait()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%d frames still pinned after quiescence", n)
	}
}
