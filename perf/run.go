package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

// Chunk sizes of the bulk transfers: objects are built by 64 KB appends
// and scanned by 256 KB reads, as a client streaming a large object does.
const (
	appendChunk = 64 << 10
	scanChunk   = 256 << 10
	maxEdit     = 16 << 10 // edit lengths are uniform in [1, maxEdit]
)

// object is one stored object with its expected content.
type object struct {
	name string
	h    *eos.Object
	m    model
}

// run is one instance of a workload: a fresh store, its objects with
// their models, the clients' samples, and what was measured.
type run struct {
	w     *workload
	sz    sizing
	seed  int64
	units int // length of the measured phase, in the workload's unit
	back  *backend
	rec   *recorder // nil unless traced
	pay   payload
	// corrupt, set by the smoke test, flips one byte of every compared
	// read so that the oracle has something to catch.
	corrupt bool

	vols  *volumes
	store *eos.Store
	objs  []*object

	clients []*client
	vals    values

	// The measured phase: its length, and its bounds on the recorder's
	// clock.
	wall               time.Duration
	traceFrom, traceTo int64
	structureDone      bool

	mu        sync.Mutex
	incorrect []string // content or invariant violations
}

// client is one closed-loop load generator: it issues its next call when
// the previous one returns.
type client struct {
	r         *run
	rng       *rand.Rand
	samples   [numOps][]sample
	attempted int
	failed    int
	reads     int // reads issued, for the 1-in-64 content check
	failures  map[string]int
}

// sample is one timed call: how long it took (ns) and the user bytes it
// read or wrote (0 if it failed).
type sample struct{ dur, bytes int64 }

func (r *run) newClient(id int) *client {
	c := &client{r: r, rng: rand.New(rand.NewSource(r.seed*1000 + int64(id))), failures: map[string]int{}}
	r.clients = append(r.clients, c)
	return c
}

// do issues one API call (or one whole transaction) moving bytes of user
// data and records it.  A failed call is counted and reported, never
// fatal: the caller skips the model update.
func (c *client) do(kind opKind, bytes int, f func() error) bool {
	rec := c.r.rec
	var id, start int64
	if rec != nil {
		id, start = rec.beginOp()
	}
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	if rec != nil {
		rec.endOp(id, start, kind)
	}
	c.attempted++
	if err != nil {
		bytes = 0
	}
	c.samples[kind] = append(c.samples[kind], sample{int64(d), int64(bytes)})
	if err != nil {
		c.failed++
		msg := opNames[kind] + ": " + err.Error()
		if c.failures[msg] == 0 {
			fmt.Fprintf(os.Stderr, "%s: failed op: %s\n", c.r.w.name, msg)
		}
		c.failures[msg]++
		return false
	}
	return true
}

// sampled reports whether this read is one of the 1 in 64 whose content
// is compared (outside the timed call).
func (c *client) sampled() bool {
	c.reads++
	return c.reads%64 == 0
}

// mismatch records a correctness violation; the run then ends non-zero.
func (r *run) mismatch(format string, args ...any) {
	r.mu.Lock()
	r.incorrect = append(r.incorrect, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *run) compare(o *object, off int64, got []byte) {
	if r.corrupt && len(got) > 0 {
		got = append([]byte(nil), got...)
		got[len(got)/2] ^= 0x40
	}
	if err := o.m.check(r.pay, off, got); err != nil {
		r.mismatch("object %s: %v", o.name, err)
	}
}

// dropStore forgets the store and every handle on it.
func (r *run) dropStore() {
	for _, o := range r.objs {
		o.h = nil
	}
	r.store = nil
}

// release drops the store and closes the volumes.
func (r *run) release() {
	r.dropStore()
	if r.vols != nil {
		r.back.release(r.vols)
		r.vols = nil
	}
}

// create makes an object of size bytes for set-up: appendChunk writes
// through an appender that knows the final size, so the object starts
// out in the largest segments the buddy system gives and leaves no
// superseded pages behind.  (ingest_scan, which measures appends, gives
// its appenders no hint.)
func (r *run) create(name string, size int, rng *rand.Rand) (*object, error) {
	h, err := r.store.Create(name, 0)
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", name, err)
	}
	src, data := r.pay.slice(rng, size)
	a := h.OpenAppender(int64(size))
	for off := 0; off < size; off += appendChunk {
		end := off + appendChunk
		if end > size {
			end = size
		}
		if _, err := a.Write(data[off:end]); err != nil {
			return nil, fmt.Errorf("populate %s: %w", name, err)
		}
	}
	if err := a.Close(); err != nil {
		return nil, fmt.Errorf("populate %s: %w", name, err)
	}
	o := &object{name: name, h: h}
	o.m.append(src, size)
	return o, nil
}

// populate creates n objects of size bytes each and checkpoints.
func (r *run) populate(n, size int) error {
	rng := rand.New(rand.NewSource(r.seed ^ 0x5e7))
	for i := 0; i < n; i++ {
		o, err := r.create(fmt.Sprintf("obj%03d", i), size, rng)
		if err != nil {
			return err
		}
		r.objs = append(r.objs, o)
	}
	if err := r.store.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint after populate: %w", err)
	}
	return nil
}

// scanAll reads every object front to back in scanChunk reads issued by c,
// comparing all of it with the model if verify is set and one read in 64
// otherwise.
func (r *run) scanAll(c *client, verify bool) {
	buf := make([]byte, scanChunk)
	for _, o := range r.objs {
		if got := o.h.Size(); got != o.m.size {
			r.mismatch("object %s: size %d, expected %d", o.name, got, o.m.size)
			continue
		}
		for off := int64(0); off < o.m.size; off += scanChunk {
			n := int64(scanChunk)
			if off+n > o.m.size {
				n = o.m.size - off
			}
			b := buf[:n]
			if c.do(opRead, len(b), func() error { return o.h.ReadAt(b, off) }) && (verify || c.sampled()) {
				r.compare(o, off, b)
			}
		}
	}
}

// checkInvariants runs the store's own structural checks.
func (r *run) checkInvariants() {
	if err := r.store.Check(); err != nil {
		r.mismatch("Store.Check: %v", err)
	}
	if err := r.store.CheckNoLeaks(); err != nil {
		r.mismatch("Store.CheckNoLeaks: %v", err)
	}
}

// liveBytes is the user data the models say the store holds.
func (r *run) liveBytes() int64 {
	var n int64
	for _, o := range r.objs {
		n += o.m.size
	}
	return n
}

// recordStructure reports space_amp and the shape of the objects' trees,
// once: at the end of the run, or earlier where a workload's store is
// fullest (ingest_scan ends empty).  Allocated space is every page the
// buddy system does not hold free, so retired pages still waiting for a
// grace period or a catalog barrier count.
func (r *run) recordStructure() error {
	if r.structureDone {
		return nil
	}
	r.structureDone = true
	v := r.vals
	bm := r.store.BuddyManager()
	free, err := bm.FreePages()
	if err != nil {
		return fmt.Errorf("free pages: %w", err)
	}
	total := 0
	for _, sp := range bm.Spaces() {
		total += sp.Capacity()
	}
	v.set("space_amp", "ratio", float64(total-free)*pageSize/float64(r.liveBytes()))

	var segs, index, height int
	minSeg := math.MaxInt
	for _, o := range r.objs {
		u, err := o.h.Usage()
		if err != nil {
			return fmt.Errorf("usage of %s: %w", o.name, err)
		}
		segs += u.SegmentCount
		index += u.IndexPages
		if u.TreeHeight > height {
			height = u.TreeHeight
		}
		if u.MinSegmentPgs < minSeg {
			minSeg = u.MinSegmentPgs
		}
	}
	v.set("lob.segments_per_mb", "1/MB", float64(segs)/(float64(r.liveBytes())/1e6))
	v.set("lob.index_pages", "pages", float64(index))
	v.set("lob.tree_height_max", "levels", float64(height))
	v.set("lob.min_segment_pages", "pages", float64(minSeg))
	return nil
}

// snapshot is the counter state at one end of the measured phase.
type snapshot struct {
	store     eos.Stats
	data, log disk.Stats
	mem       runtime.MemStats
}

func (r *run) snapshot() snapshot {
	s := snapshot{store: r.store.Stats(), data: r.vols.rawData.Stats(), log: r.vols.rawLog.Stats()}
	runtime.ReadMemStats(&s.mem)
	return s
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// measure runs the measured phase of an instance that has been set up,
// then the verification and the end-of-run metrics.
func (r *run) measure() error {
	r.vals = values{}
	before := r.snapshot()
	if r.rec != nil {
		r.traceFrom = r.rec.now()
	}
	t0 := time.Now()
	if err := r.w.measure(r); err != nil {
		return err
	}
	r.wall = time.Since(t0)
	if r.rec != nil {
		r.traceTo = r.rec.now()
	}
	after := r.snapshot()
	r.phaseMetrics(before, after)
	return r.finish()
}

// merged returns every client's samples of the given kinds.
func (r *run) merged(kinds ...opKind) []sample {
	var all []sample
	for _, c := range r.clients {
		for _, k := range kinds {
			all = append(all, c.samples[k]...)
		}
	}
	return all
}

func durations(ss []sample) []int64 {
	d := make([]int64, len(ss))
	for i, s := range ss {
		d[i] = s.dur
	}
	return d
}

// mbps is the user bytes of ss per second of the time spent in them.
func mbps(ss []sample) float64 {
	var bytes, ns int64
	for _, s := range ss {
		bytes += s.bytes
		ns += s.dur
	}
	return float64(bytes) / 1e6 / (float64(ns) / 1e9)
}

func (r *run) totals() (attempted, failed int) {
	for _, c := range r.clients {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// phaseMetrics derives everything that is a delta over the measured phase.
func (r *run) phaseMetrics(before, after snapshot) {
	v := r.vals
	ops, _ := r.totals()
	wall := r.wall.Seconds()
	var inCalls int64
	for k := opKind(0); k < numOps; k++ {
		d := durations(r.merged(k))
		v.setLatency("eos."+opNames[k], d)
		if k == opCheckpoint {
			v.set("eos.checkpoint.total_s", "s", float64(sum(d))/1e9)
		}
		if k == opRead && r.w.readInTxn {
			continue // these reads are timed inside the transactions
		}
		inCalls += sum(d)
	}
	v.setN("eos.ops_per_s", "1/s", float64(ops)/wall, ops)
	// Time outside engine calls: the generator, the models and the
	// sampled comparisons.  With two clients it is the mean per client.
	v.set("perf.generator_s", "s", wall-float64(inCalls)/1e9/float64(r.w.clients))

	var read, written int64
	for _, s := range r.merged(opRead, opSnapshotRead) {
		read += s.bytes
	}
	for _, s := range r.merged(opInsert, opReplace, opAppend, opTxn) {
		written += s.bytes
	}
	data, log := after.data.Sub(before.data), after.log.Sub(before.log)
	cm := disk.DefaultCostModel()
	seekMs := float64(cm.SeekMicros+cm.RotationalMicros) / 1e3
	pageMs := float64(cm.TransferMicrosPerPage) / 1e3
	io := float64(data.Seeks+log.Seeks)*seekMs + float64(data.PagesMoved()+log.PagesMoved())*pageMs
	v.setN("model_io_ms_per_op", "ms", io/float64(ops), ops)
	v.set("read_amp", "ratio", float64(data.PagesRead+log.PagesRead)*pageSize/float64(read))
	v.set("write_amp", "ratio", float64(data.PagesWritten+log.PagesWritten)*pageSize/float64(written))

	v.set("eos.allocs_per_op", "1/op", float64(after.mem.Mallocs-before.mem.Mallocs)/float64(ops))
	v.set("eos.alloc_bytes_per_op", "B/op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/float64(ops))

	a, b := after.store, before.store
	v.set("txn.epoch_advances", "count", float64(a.Snap.EpochAdvances-b.Snap.EpochAdvances))
	v.set("txn.retired_pages", "pages", float64(a.Snap.RetiredPages-b.Snap.RetiredPages))
	v.set("txn.pending_pages_end", "pages", float64(a.Snap.PendingPages))
	v.set("txn.open_snapshots_end", "count", float64(a.Snap.OpenSnapshots))

	v.set("lob.segments_allocated", "count", float64(a.LOB.SegmentsAllocated-b.LOB.SegmentsAllocated))
	v.set("lob.segments_freed", "count", float64(a.LOB.SegmentsFreed-b.LOB.SegmentsFreed))
	v.set("lob.bytes_reshuffled", "B", float64(a.LOB.BytesReshuffled-b.LOB.BytesReshuffled))
	v.set("lob.pages_reshuffled", "pages", float64(a.LOB.PagesReshuffled-b.LOB.PagesReshuffled))
	v.set("lob.node_splits", "count", float64(a.LOB.NodeSplits-b.LOB.NodeSplits))
	v.set("lob.node_merges", "count", float64(a.LOB.NodeMerges-b.LOB.NodeMerges))
	v.set("lob.shadowed_index_pages", "count", float64(a.LOB.ShadowedIndexPages-b.LOB.ShadowedIndexPages))
	v.set("lob.snapshot_reads", "count", float64(a.LOB.SnapshotReads-b.LOB.SnapshotReads))

	v.set("buddy.allocs", "count", float64(a.Buddy.Allocs-b.Buddy.Allocs))
	v.set("buddy.frees", "count", float64(a.Buddy.Frees-b.Buddy.Frees))
	v.set("buddy.spaces_visited", "count", float64(a.Buddy.SpacesVisited-b.Buddy.SpacesVisited))
	v.set("buddy.spaces_skipped", "count", float64(a.Buddy.SpacesSkipped-b.Buddy.SpacesSkipped))
	v.set("buddy.failed_attempts", "count", float64(a.Buddy.FailedAttempts-b.Buddy.FailedAttempts))

	pool := a.Pool
	pool.Hits -= b.Pool.Hits
	pool.Misses -= b.Pool.Misses
	v.set("buffer.hits", "count", float64(pool.Hits))
	v.set("buffer.misses", "count", float64(pool.Misses))
	v.set("buffer.hit_rate", "ratio", pool.HitRate())
	v.set("buffer.evictions", "count", float64(a.Pool.Evictions-b.Pool.Evictions))
	v.set("buffer.flushes", "count", float64(a.Pool.Flushes-b.Pool.Flushes))
	v.set("buffer.flush_skips", "count", float64(a.Pool.FlushSkips-b.Pool.FlushSkips))

	commits := len(r.merged(opTxn))
	leaders := a.WAL.LeaderForces - b.WAL.LeaderForces
	flushed := a.WAL.FlushedBytes - b.WAL.FlushedBytes
	v.set("wal.appends", "count", float64(a.WAL.Appends-b.WAL.Appends))
	v.set("wal.forces", "count", float64(a.WAL.Forces-b.WAL.Forces))
	v.set("wal.force_noops", "count", float64(a.WAL.ForceNoops-b.WAL.ForceNoops))
	v.set("wal.piggybacks", "count", float64(a.WAL.Piggybacks-b.WAL.Piggybacks))
	v.set("wal.leader_forces", "count", float64(leaders))
	v.set("wal.flushed_bytes", "B", float64(flushed))
	v.set("wal.bytes_per_commit", "B", ratio(float64(flushed), float64(commits)))
	v.set("wal.commits_per_leader_force", "ratio", ratio(float64(commits), float64(leaders)))

	for dev, d := range map[string]disk.Stats{"data": data, "log": log} {
		p := "disk." + dev + "."
		v.set(p+"reads", "count", float64(d.Reads))
		v.set(p+"writes", "count", float64(d.Writes))
		v.set(p+"pages_read", "pages", float64(d.PagesRead))
		v.set(p+"pages_written", "pages", float64(d.PagesWritten))
		v.set(p+"seeks", "count", float64(d.Seeks))
		v.set(p+"run_writes", "count", float64(d.RunWrites))
		v.set(p+"coalesced_pages", "pages", float64(d.CoalescedPages))
		v.set(p+"syncs", "count", float64(d.Syncs))
	}
	r.traceMetrics()
}

// ratio is a/b, or 0 where b is 0 (a per-layer metric with no samples).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceMetrics reports the device times and wall-time shares of a traced
// run.
func (r *run) traceMetrics() {
	if r.rec == nil {
		return
	}
	v := r.vals
	ts := r.rec.summarize(r.traceFrom, r.traceTo)
	wall := float64(r.traceTo - r.traceFrom)
	var covered int64
	for dev, devName := range devNames {
		for kind, kindName := range kindNames {
			id := deviceSpan(dev, kind)
			name := id.String()
			d := sortedCopy(ts.kindDur[id])
			v.set(name+"_s", "s", float64(sum(d))/1e9) // overlapping requests count twice
			v.setN(name+"_p50_us", "us", float64(percentile(d, 0.5))/1e3, len(d))
			covered += ts.covered[id]
			if name != "disk.log.read" {
				v.set("share.disk_"+devName+"_"+kindName, "ratio", ratio(float64(ts.covered[id]), wall))
			}
		}
	}
	// With one client the wall time splits three ways: inside API calls
	// and covered by a device request, inside API calls and not (the
	// engine's own time), and between calls (the generator: models,
	// sampled comparisons).  With two clients calls overlap, so all wall
	// time no device request covers counts as engine time.
	engine := float64(ts.opTime - covered)
	generator := wall - float64(ts.opTime)
	if r.w.clients > 1 {
		engine, generator = wall-float64(covered), 0
	}
	v.set("eos.engine_self_s", "s", engine/1e9)
	v.set("share.engine", "ratio", ratio(engine, wall))
	v.set("share.generator", "ratio", ratio(generator, wall))
	// What tracing cost: the spans of the phase times what recording one
	// costs.  (The difference between a traced and an untraced run's
	// ops_per_s is smaller than the difference between two untraced runs
	// on the sandbox.)
	v.set("perf.trace_overhead_pct", "%", ratio(float64(ts.spans)*spanCostNs()*100, wall))
}

// spanCostNs times the recording of one span on a scratch recorder.
func spanCostNs() float64 {
	const n = 50000
	rec := newRecorder(true, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rec.add(span{ID: rec.nextID.Add(1), Parent: rec.current.Load(), Name: deviceSpan(0, kindRead), Start: rec.now(), End: rec.now()})
	}
	return float64(time.Since(t0)) / n
}

// finish verifies the store against the models and reports the metrics
// read off the final state.
func (r *run) finish() error {
	v := r.vals
	if err := r.w.closing(r); err != nil {
		return err
	}
	if err := r.recordStructure(); err != nil {
		return err
	}
	free, err := r.store.FreePages()
	if err != nil {
		return fmt.Errorf("free pages: %w", err)
	}
	v.set("buddy.free_pages_end", "pages", float64(free))

	// What the open store keeps alive: the heap with it minus the heap
	// once it is dropped.  The volumes (whole in memory on the sim
	// backend) and the harness's own buffers, models and samples are in
	// both readings.
	with := heapAfterGC()
	r.dropStore()
	without := heapAfterGC()
	r.release()
	v.set("live_heap_mb", "MB", (float64(with)-float64(without))/1e6)
	return nil
}
