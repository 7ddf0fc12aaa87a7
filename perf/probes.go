package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/eosdb/eos/internal/buddy"
	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
	"github.com/eosdb/eos/internal/txn"
	"github.com/eosdb/eos/internal/wal"
)

// Layer probes: each times one layer's public functions on a scratch
// store of its own, with nothing above that layer in the way.  They run
// once per traced invocation and do not depend on the workload.

// probeSizing scales the probes; the smoke test shrinks it.
type probeSizing struct {
	iterations  int // in-memory calls timed per probe
	deviceCalls int // calls that each cost a device request
	lobObjects  int
	lobBytes    int
	lobOps      int
	dataPages   disk.PageNum
}

var (
	fullProbes  = probeSizing{iterations: 100000, deviceCalls: 400, lobObjects: 4, lobBytes: 16 << 20, lobOps: 4000, dataPages: 1 << 16}
	smokeProbes = probeSizing{iterations: 2000, deviceCalls: 50, lobObjects: 4, lobBytes: 512 << 10, lobOps: 200, dataPages: 1 << 13}
)

// scratch is a bare device with a pool and a formatted buddy manager on
// it: the stack below lob.Manager, with no catalog, latch, epoch or WAL.
type scratch struct {
	vols *volumes
	pool *buffer.Pool
	bm   *buddy.Manager
}

func newScratch(b *backend, dataPages disk.PageNum, frames int) (*scratch, error) {
	vols, err := b.openVolumes(dataPages, 1<<12, nil)
	if err != nil {
		return nil, err
	}
	pool, err := buffer.NewPool(vols.data, frames)
	if err != nil {
		vols.close()
		return nil, fmt.Errorf("probe pool: %w", err)
	}
	_, maxCap, err := buddy.Layout(pageSize)
	if err != nil {
		vols.close()
		return nil, fmt.Errorf("probe layout: %w", err)
	}
	spaces := int(dataPages) / (maxCap + 1)
	capacity := maxCap
	if spaces == 0 {
		spaces, capacity = 1, (int(dataPages)-1)&^3
	}
	bm, err := buddy.FormatVolume(pool, vols.data, 0, spaces, capacity, true)
	if err != nil {
		vols.close()
		return nil, fmt.Errorf("probe format: %w", err)
	}
	return &scratch{vols: vols, pool: pool, bm: bm}, nil
}

func meanNs(total time.Duration, n int) float64 { return float64(total) / float64(n) }

// runProbes fills in every probe metric.
func runProbes(b *backend, ps probeSizing, seed int64, pay payload, v values) error {
	if err := probeLocks(ps, v); err != nil {
		return fmt.Errorf("lock probe: %w", err)
	}
	if err := probeBuddy(b, ps, seed, v); err != nil {
		return fmt.Errorf("buddy probe: %w", err)
	}
	if err := probeBuffer(b, ps, v); err != nil {
		return fmt.Errorf("buffer probe: %w", err)
	}
	if err := probeWAL(b, ps, pay, v); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if err := probeLOB(b, ps, seed, pay, v); err != nil {
		return fmt.Errorf("lob probe: %w", err)
	}
	return nil
}

// probeLocks times an uncontended byte-range lock and its release.
func probeLocks(ps probeSizing, v values) error {
	lt := txn.NewLockTable(time.Second)
	t0 := time.Now()
	for i := 0; i < ps.iterations; i++ {
		id := uint64(i + 1)
		if err := lt.LockRange(id, 7, txn.Exclusive, 4096, 8192); err != nil {
			return err
		}
		lt.ReleaseAll(id)
	}
	v.setN("txn.lock_release_ns", "ns", meanNs(time.Since(t0), ps.iterations), ps.iterations)
	return nil
}

// probeBuddy times seeded 1-64-page Alloc/Free pairs with the volume half
// full.
func probeBuddy(b *backend, ps probeSizing, seed int64, v values) error {
	sc, err := newScratch(b, ps.dataPages, 256)
	if err != nil {
		return err
	}
	defer b.release(sc.vols)
	rng := rand.New(rand.NewSource(seed))
	free, err := sc.bm.FreePages()
	if err != nil {
		return err
	}
	for used := 0; used < free/2; {
		n := 1 + rng.Intn(64)
		if _, err := sc.bm.Alloc(n); err != nil {
			return fmt.Errorf("fill to half: %w", err)
		}
		used += n
	}
	var allocT, freeT time.Duration
	for i := 0; i < ps.iterations/4; i++ {
		n := 1 + rng.Intn(64)
		t0 := time.Now()
		p, err := sc.bm.Alloc(n)
		t1 := time.Now()
		if err != nil {
			return err
		}
		err = sc.bm.Free(p, n)
		freeT += time.Since(t1)
		allocT += t1.Sub(t0)
		if err != nil {
			return err
		}
	}
	v.setN("buddy.alloc_ns", "ns", meanNs(allocT, ps.iterations/4), ps.iterations/4)
	v.setN("buddy.free_ns", "ns", meanNs(freeT, ps.iterations/4), ps.iterations/4)
	return nil
}

// probeBuffer times a fix that hits, a fix that misses (cycling over 4x
// the pool's capacity, so LRU never has the page), and a FlushAll of 128
// dirty pages.
func probeBuffer(b *backend, ps probeSizing, v values) error {
	const frames = 256
	sc, err := newScratch(b, ps.dataPages, frames)
	if err != nil {
		return err
	}
	defer b.release(sc.vols)
	pool := sc.pool
	// Pages of the first space's data area: plain pages to the pool.
	const base = disk.PageNum(1)

	if _, err := pool.Fix(base); err != nil {
		return err
	}
	if err := pool.Unpin(base); err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < ps.iterations; i++ {
		if _, err := pool.Fix(base); err != nil {
			return err
		}
		if err := pool.Unpin(base); err != nil {
			return err
		}
	}
	v.setN("buffer.fix_hit_ns", "ns", meanNs(time.Since(t0), ps.iterations), ps.iterations)

	t0 = time.Now()
	for i := 0; i < ps.deviceCalls*4; i++ {
		pg := base + disk.PageNum(i%(4*frames))
		if _, err := pool.Fix(pg); err != nil {
			return err
		}
		if err := pool.Unpin(pg); err != nil {
			return err
		}
	}
	v.setN("buffer.fix_miss_us", "us", meanNs(time.Since(t0), ps.deviceCalls*4)/1e3, ps.deviceCalls*4)

	var flushes []float64
	for round := 0; round < 5; round++ {
		for i := 0; i < 128; i++ {
			pg := base + disk.PageNum(2*i) // every other page: no two coalesce
			img, err := pool.FixNew(pg)
			if err != nil {
				return err
			}
			img[0] = byte(round)
			if err := pool.Unpin(pg); err != nil {
				return err
			}
		}
		t0 = time.Now()
		if err := pool.FlushAll(); err != nil {
			return err
		}
		flushes = append(flushes, float64(time.Since(t0))/1e3)
	}
	v.setN("buffer.flush_all_us", "us", median(flushes), len(flushes))
	return nil
}

// probeWAL times a buffered 256-byte append, and an append followed by
// ForceLSN with one client (every force leads).
func probeWAL(b *backend, ps probeSizing, pay payload, v values) error {
	vols, err := b.openVolumes(1<<4, 1<<14, nil)
	if err != nil {
		return err
	}
	defer b.release(vols)
	log := wal.New(vols.log, 0)
	rec := func() *wal.Record { return &wal.Record{Txn: 1, Type: wal.RecAppend, Object: 1, Data: pay[:256]} }

	n := ps.iterations / 2
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := log.Append(rec()); err != nil {
			return err
		}
	}
	v.setN("wal.append_ns", "ns", meanNs(time.Since(t0), n), n)
	if err := log.Force(); err != nil {
		return err
	}

	d := make([]int64, 0, ps.deviceCalls)
	for i := 0; i < ps.deviceCalls; i++ {
		t0 = time.Now()
		lsn, err := log.Append(rec())
		if err == nil {
			err = log.ForceLSN(lsn)
		}
		if err != nil {
			return err
		}
		d = append(d, int64(time.Since(t0)))
	}
	v.setN("wal.force_us", "us", float64(percentile(sortedCopy(d), 0.5))/1e3, len(d))
	return nil
}

// probeLOB replays the edit_mix operation stream on a bare lob.Manager, so
// that eos.<op>.p50_us - lob.<op>.p50_us is what the layers above lob cost.
func probeLOB(b *backend, ps probeSizing, seed int64, pay payload, v values) error {
	sc, err := newScratch(b, ps.dataPages, 256)
	if err != nil {
		return err
	}
	defer b.release(sc.vols)
	lm, err := lob.NewManager(sc.vols.data, sc.pool, sc.bm, lob.Config{Threshold: 8, ShadowIndexPages: true})
	if err != nil {
		return err
	}
	// A run of its own keeps the generator and the content checks; it has
	// no store, so only editOp may be used on it.
	r := &run{w: findWorkload("edit_mix"), seed: seed, pay: pay}
	c := r.newClient(0)
	rng := rand.New(rand.NewSource(seed ^ 0x5e7))
	targets := make([]*lob.Object, ps.lobObjects)
	for i := range targets {
		targets[i] = lm.NewObject(0)
		src, data := pay.slice(rng, ps.lobBytes)
		for off := 0; off < len(data); off += appendChunk {
			end := off + appendChunk
			if end > len(data) {
				end = len(data)
			}
			if err := targets[i].Append(data[off:end]); err != nil {
				return fmt.Errorf("populate: %w", err)
			}
		}
		o := &object{name: fmt.Sprintf("lob%d", i)}
		o.m.append(src, len(data))
		r.objs = append(r.objs, o)
	}
	for i := 0; i < ps.lobOps; i++ {
		k := c.rng.Intn(len(targets))
		c.editOp(r.objs[k], targets[k])
	}
	if c.failed > 0 || len(r.incorrect) > 0 {
		return fmt.Errorf("%d failed ops, mismatches %v", c.failed, r.incorrect)
	}
	for k := opRead; k < opTxn; k++ {
		d := sortedCopy(durations(c.samples[k]))
		v.setN("lob."+opNames[k]+".p50_us", "us", float64(percentile(d, 0.5))/1e3, len(d))
	}
	return nil
}
