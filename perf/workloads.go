package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

// sizing fixes how big a workload is.  The measured phase is a fixed
// count of units — perSecond × the -seconds argument — so that two runs
// of one seed issue exactly the same calls; perSecond was calibrated on
// the 2-core sandbox so that the phase lasts about -seconds there.
type sizing struct {
	objects        int     // objects in the working set (per size class on ingest_scan)
	objectBytes    int     // size of each (of the largest class on ingest_scan)
	perSecond      float64 // measured-phase units per second of -seconds
	checkpoint     int     // units between driver checkpoints
	prefragment    int     // set-up inserts per object (read_under_write)
	tail           int     // commits left un-checkpointed before the crash (commit_small)
	poolFrames     int     // 0 = the store's default (256)
	catalogObjects int     // most objects alive at once
	dataPages      disk.PageNum
	logPages       disk.PageNum
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name    string
	why     string
	unit    string // what the measured phase counts
	clients int
	full    sizing
	smoke   sizing // ~1 % of full, for the tier-1 test on sim volumes
	// readInTxn says the workload's reads are timed inside its
	// transactions, which are the calls that count as ops.
	readInTxn bool

	setup   func(r *run) error // populate the fresh store (timed as set-up)
	measure func(r *run) error // the measured phase
	closing func(r *run) error // verification after it
}

var workloads = []*workload{
	{
		name: "ingest_scan",
		why:  "bulk appends and whole-object scans of 64 KB-16 MB objects: the device path does nearly all the work, index, pool and WAL almost none",
		unit: "rounds", clients: 1,
		full:    sizing{objects: 4, objectBytes: 16 << 20, perSecond: 6, catalogObjects: 20, dataPages: 1 << 18, logPages: 1 << 10},
		smoke:   sizing{objects: 2, objectBytes: 256 << 10, perSecond: 0.2, catalogObjects: 10, dataPages: 1 << 12, logPages: 1 << 8},
		setup:   setupIngestScan,
		measure: measureIngestScan,
		closing: func(r *run) error { r.checkInvariants(); return nil },
	},
	{
		name: "edit_mix",
		why:  "the paper's read/insert/delete/replace/append mix on 8 x 16 MB objects, pool fits: lob, buddy and buffer carry the non-device time and the WAL is idle",
		unit: "ops", clients: 1,
		full:    sizing{objects: 8, objectBytes: 16 << 20, perSecond: 24000, checkpoint: 2000, catalogObjects: 8, dataPages: 1 << 18, logPages: 1 << 10},
		smoke:   sizing{objects: 4, objectBytes: 512 << 10, perSecond: 40, checkpoint: 100, catalogObjects: 4, dataPages: 1 << 13, logPages: 1 << 8},
		setup:   func(r *run) error { return r.populate(r.sz.objects, r.sz.objectBytes) },
		measure: measureEditMix,
		closing: closeWithScan,
	},
	{
		name: "commit_small",
		why:  "2 clients committing small read-replace-append transactions on 64 x 256 KB objects, then crash and recovery: WAL group commit, device forces and the catalog barrier dominate",
		unit: "commits", clients: 2,
		full:      sizing{objects: 64, objectBytes: 256 << 10, perSecond: 2500, checkpoint: 4000, tail: 1800, catalogObjects: 64, dataPages: 1 << 16, logPages: 1 << 14},
		smoke:     sizing{objects: 8, objectBytes: 32 << 10, perSecond: 6, checkpoint: 20, tail: 15, catalogObjects: 8, dataPages: 1 << 12, logPages: 1 << 10},
		readInTxn: true,
		setup:     func(r *run) error { return r.populate(r.sz.objects, r.sz.objectBytes) },
		measure:   measureCommitSmall,
		closing:   closeWithCrash,
	},
	{
		name: "read_under_write",
		why:  "snapshot reads beside a committing writer on 8 fragmented 16 MB objects with a 32-frame pool, half the index working set: a read-path gain paid for by writers shows here",
		unit: "commits", clients: 2,
		full:    sizing{objects: 8, objectBytes: 16 << 20, perSecond: 4000, checkpoint: 500, prefragment: 800, poolFrames: 32, catalogObjects: 8, dataPages: 1 << 18, logPages: 1 << 14},
		smoke:   sizing{objects: 4, objectBytes: 512 << 10, perSecond: 5, checkpoint: 20, prefragment: 40, poolFrames: 32, catalogObjects: 4, dataPages: 1 << 13, logPages: 1 << 10},
		setup:   setupReadUnderWrite,
		measure: measureReadUnderWrite,
		closing: closeWithScan,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// checkpoint issues a driver checkpoint inside the timed region: a
// foreground stall a user pays.
func (c *client) checkpoint() {
	c.do(opCheckpoint, 0, c.r.store.Checkpoint)
}

// editLen draws an edit length uniform in [1, max].
func editLen(rng *rand.Rand, max int) int { return 1 + rng.Intn(max) }

// ---- ingest_scan ----------------------------------------------------------

// ingestRound is one round of ingest_scan: create 5 size classes x
// objects, each by 64 KB writes to an appender with no size hint
// (segments double, the last is trimmed on Close), checkpoint, scan
// everything three times by 256 KB reads, destroy everything.  name
// prefixes the objects' names; last says that this is the round to read
// space and structure off, at its fullest point.
func (c *client) ingestRound(name string, last bool) error {
	r := c.r
	var sizes []int
	for class := 0; class < 5; class++ {
		for i := 0; i < r.sz.objects; i++ {
			sizes = append(sizes, r.sz.objectBytes>>(2*(4-class)))
		}
	}
	c.rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	for i, size := range sizes {
		name := fmt.Sprintf("%s_%02d", name, i)
		h, err := r.store.Create(name, 0)
		if err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		o := &object{name: name, h: h}
		src, data := r.pay.slice(c.rng, size)
		a := h.OpenAppender(0)
		for off := 0; off < size; off += appendChunk {
			end := off + appendChunk
			if end > size {
				end = size
			}
			ok := c.do(opAppend, end-off, func() error {
				_, err := a.Write(data[off:end])
				if err == nil && end == size {
					err = a.Close()
				}
				return err
			})
			if ok {
				o.m.append(src+off, end-off)
			}
		}
		r.objs = append(r.objs, o)
	}
	c.checkpoint()
	for pass := 0; pass < 3; pass++ {
		r.scanAll(c, pass == 0)
	}
	if last {
		if err := r.recordStructure(); err != nil {
			return err
		}
	}
	for _, o := range r.objs {
		name := o.name
		c.do(opDestroy, 0, func() error { return r.store.Destroy(name) })
	}
	r.objs = nil
	return nil
}

// setupIngestScan runs one round that is not measured, so that the
// measured ones find the pool, the space directories and the allocator as
// every later round leaves them.
func setupIngestScan(r *run) error {
	c := &client{r: r, rng: rand.New(rand.NewSource(r.seed ^ 0x1a7e)), failures: map[string]int{}}
	if err := c.ingestRound("warm", false); err != nil {
		return err
	}
	if c.failed > 0 {
		return fmt.Errorf("warm-up round: %d failed ops: %v", c.failed, c.failures)
	}
	return nil
}

func measureIngestScan(r *run) error {
	c := r.newClient(0)
	for round := 1; round <= r.units; round++ {
		if err := c.ingestRound(fmt.Sprintf("r%d", round), round == r.units); err != nil {
			return err
		}
	}
	// A last checkpoint lets the final round's pages out of quarantine.
	c.checkpoint()
	r.vals.setN("eos.append_mbps", "MB/s", mbps(c.samples[opAppend]), len(c.samples[opAppend]))
	r.vals.setN("eos.scan_mbps", "MB/s", mbps(c.samples[opRead]), len(c.samples[opRead]))
	return nil
}

// ---- edit_mix -------------------------------------------------------------

// editable is the paper's operation set, as both eos.Object and the bare
// lob.Object of the lob probe offer it.
type editable interface {
	Read(off, n int64) ([]byte, error)
	Insert(off int64, data []byte) error
	Delete(off, n int64) error
	Replace(off int64, data []byte) error
	AppendWithHint(data []byte, sizeHint int64) error
}

// editOp draws and issues one operation of the paper's mix — 40 % read,
// 20 % insert, 20 % delete, 10 % replace, 10 % append, uniform offsets,
// lengths uniform in [1, maxEdit] — on target, whose expected content is m.
func (c *client) editOp(o *object, target editable) {
	r := c.r
	n := editLen(c.rng, maxEdit)
	if int64(n) > o.m.size {
		n = int(o.m.size)
	}
	p := c.rng.Intn(100)
	switch {
	case p < 40:
		off := c.rng.Int63n(o.m.size - int64(n) + 1)
		var got []byte
		ok := c.do(opRead, n, func() (err error) { got, err = target.Read(off, int64(n)); return })
		if ok && c.sampled() {
			r.compare(o, off, got)
		}
	case p < 60:
		off := c.rng.Int63n(o.m.size + 1)
		src, data := r.pay.slice(c.rng, n)
		if c.do(opInsert, n, func() error { return target.Insert(off, data) }) {
			o.m.insert(off, src, n)
		}
	case p < 80:
		off := c.rng.Int63n(o.m.size - int64(n) + 1)
		if c.do(opDelete, 0, func() error { return target.Delete(off, int64(n)) }) {
			o.m.delete(off, int64(n))
		}
	case p < 90:
		off := c.rng.Int63n(o.m.size - int64(n) + 1)
		src, data := r.pay.slice(c.rng, n)
		if c.do(opReplace, n, func() error { return target.Replace(off, data) }) {
			o.m.replace(off, src, n)
		}
	default:
		src, data := r.pay.slice(c.rng, n)
		// The hint is the append's own length: Append with no hint grabs
		// a segment of the doubling schedule (soon the 32 MB maximum)
		// and trims it, and the trimmed pages stay out of the free space
		// until the next checkpoint, which exhausts the volume.
		if c.do(opAppend, n, func() error { return target.AppendWithHint(data, int64(n)) }) {
			o.m.append(src, n)
		}
	}
}

func measureEditMix(r *run) error {
	c := r.newClient(0)
	for i := 1; i <= r.units; i++ {
		o := r.objs[c.rng.Intn(len(r.objs))]
		c.editOp(o, o.h)
		if i%r.sz.checkpoint == 0 || i == r.units {
			c.checkpoint()
		}
	}
	return nil
}

// closeWithScan verifies every object's full content and the store's
// invariants.  The scan is timed as eos.scan_mbps — read cost after update
// churn — over closingScans passes, the median pass counting.
func closeWithScan(r *run) error {
	var passes []float64
	n := 0
	for pass := 0; pass < closingScans; pass++ {
		c := r.newClient(90 + pass)
		r.scanAll(c, pass == 0)
		passes = append(passes, mbps(c.samples[opRead]))
		n += len(c.samples[opRead])
	}
	r.vals.setN("eos.scan_mbps", "MB/s", median(passes), n)
	r.checkInvariants()
	return nil
}

const closingScans = 3

// ---- commit_small ---------------------------------------------------------

// rendezvous lets the clients of a two-client workload meet so that one
// of them can checkpoint while no transaction is live (only a quiescent
// checkpoint truncates the log).
type rendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiting int
	round   int
	parties int
}

func newRendezvous(parties int) *rendezvous {
	rv := &rendezvous{parties: parties}
	rv.cond = sync.NewCond(&rv.mu)
	return rv
}

// meet blocks until all parties have arrived; the last to arrive runs
// last, while the others are parked, before any is released.
func (rv *rendezvous) meet(last func()) {
	rv.mu.Lock()
	rv.waiting++
	if rv.waiting < rv.parties {
		for round := rv.round; round == rv.round; {
			rv.cond.Wait()
		}
		rv.mu.Unlock()
		return
	}
	rv.mu.Unlock()
	last()
	rv.mu.Lock()
	rv.waiting = 0
	rv.round++
	rv.mu.Unlock()
	rv.cond.Broadcast()
}

// smallTxn is one commit_small transaction on o: read 512 B-4 KB, replace
// those bytes, append 1-4 KB, commit.
func (c *client) smallTxn(o *object) {
	r := c.r
	n := 512 + c.rng.Intn(4096-512+1)
	off := c.rng.Int63n(o.m.size - int64(n) + 1)
	rsrc, rdata := r.pay.slice(c.rng, n)
	an := 1024 + c.rng.Intn(4096-1024+1)
	asrc, adata := r.pay.slice(c.rng, an)
	var got []byte
	ok := c.do(opTxn, n+an, func() error {
		tx, err := r.store.Begin()
		if err != nil {
			return fmt.Errorf("begin: %w", err)
		}
		t0 := time.Now()
		got, err = tx.Read(o.name, off, int64(n))
		c.samples[opRead] = append(c.samples[opRead], sample{int64(time.Since(t0)), int64(n)})
		if err == nil {
			err = tx.Replace(o.name, off, rdata)
		}
		if err == nil {
			err = tx.Append(o.name, adata)
		}
		if err != nil {
			if aerr := tx.Abort(); aerr != nil {
				return fmt.Errorf("%w (abort: %w)", err, aerr)
			}
			return err
		}
		return tx.Commit()
	})
	if !ok {
		return
	}
	if c.sampled() {
		r.compare(o, off, got)
	}
	o.m.replace(off, rsrc, n)
	o.m.append(asrc, an)
}

// measureCommitSmall splits the objects and the commits between the two
// clients.  They meet for a checkpoint every sz.checkpoint commits and a
// last time sz.tail commits before the end, so the crash that follows
// finds a log tail of exactly that many commits to replay.
func measureCommitSmall(r *run) error {
	per := r.units / r.w.clients
	tail := r.sz.tail / r.w.clients
	if tail >= per {
		tail = per / 2
	}
	every := r.sz.checkpoint / r.w.clients
	rv := newRendezvous(r.w.clients)
	var wg sync.WaitGroup
	for id := 0; id < r.w.clients; id++ {
		c := r.newClient(id)
		share := len(r.objs) / r.w.clients
		mine := r.objs[id*share : (id+1)*share]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				c.smallTxn(mine[c.rng.Intn(len(mine))])
				if i <= per-tail && (i%every == 0 || i == per-tail) {
					rv.meet(c.checkpoint)
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// errPowerCut is what every device request returns between the moment the
// harness cuts the power and the reopen.
var errPowerCut = errors.New("perf: power cut")

// closeWithCrash leaves one transaction in flight, cuts the power, times
// eos.Open's recovery, and checks that every acknowledged commit is
// readable and the loser is gone.  On volumes opened with CrashShadow
// (the traced run) the crash discards every page no force covered.
func closeWithCrash(r *run) error {
	c := r.newClient(91)
	o := r.objs[0]
	n := 2048
	_, data := r.pay.slice(c.rng, n)
	tx, err := r.store.Begin()
	if err != nil {
		return fmt.Errorf("begin loser: %w", err)
	}
	if err = tx.Replace(o.name, o.m.size/2, data); err == nil {
		err = tx.Append(o.name, data)
	}
	// Power cut: from here every device request fails, so the abort
	// below (and anything else the abandoned store tries) writes nothing.
	r.vols.rawData.FailAfter(0, errPowerCut)
	r.vols.rawLog.FailAfter(0, errPowerCut)
	aerr := tx.Abort()
	if err != nil {
		return fmt.Errorf("loser transaction: %w", err)
	}
	if aerr == nil {
		return fmt.Errorf("loser transaction: abort succeeded after the power cut")
	}
	if err := r.vols.crash(); err != nil {
		return err
	}
	r.vols.rawData.ClearFault()
	r.vols.rawLog.ClearFault()
	r.dropStore()

	t0 := time.Now()
	store, err := eos.Open(r.vols.data, r.vols.log, storeOptions(r.w, r.sz))
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	r.vals.set("eos.recovery_s", "s", time.Since(t0).Seconds())
	r.store = store
	for _, o := range r.objs {
		if o.h, err = store.Open(o.name); err != nil {
			r.mismatch("after recovery: %v", err)
			return nil
		}
	}
	return closeWithScan(r)
}

// ---- read_under_write -----------------------------------------------------

// setupReadUnderWrite populates the objects, then fragments each with
// sz.prefragment small inserts, so reads walk a two-level index that is
// larger than the pool.
func setupReadUnderWrite(r *run) error {
	if err := r.populate(r.sz.objects, r.sz.objectBytes); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed ^ 0xf4a9))
	for _, o := range r.objs {
		for i := 0; i < r.sz.prefragment; i++ {
			n := editLen(rng, 4096)
			off := rng.Int63n(o.m.size + 1)
			src, data := r.pay.slice(rng, n)
			if err := o.h.Insert(off, data); err != nil {
				return fmt.Errorf("fragment %s: %w", o.name, err)
			}
			o.m.insert(off, src, n)
		}
		// The pages the inserts superseded stay out of the free space
		// until a checkpoint; one per object keeps the volume from
		// filling with them.
		if err := r.store.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint after fragmenting: %w", err)
		}
	}
	return nil
}

// writeTxn is one read_under_write transaction: one of insert, delete,
// replace or append of 1 B-16 KB on o, committed.
func (c *client) writeTxn(o *object) {
	r := c.r
	n := editLen(c.rng, maxEdit)
	if int64(n) > o.m.size {
		n = int(o.m.size)
	}
	kind := c.rng.Intn(4)
	off := c.rng.Int63n(o.m.size - int64(n) + 1)
	src, data := r.pay.slice(c.rng, n)
	bytes := n
	if kind == 1 {
		bytes = 0 // a delete writes no user data
	}
	ok := c.do(opTxn, bytes, func() error {
		tx, err := r.store.Begin()
		if err != nil {
			return fmt.Errorf("begin: %w", err)
		}
		switch kind {
		case 0:
			err = tx.Insert(o.name, off, data)
		case 1:
			err = tx.Delete(o.name, off, int64(n))
		case 2:
			err = tx.Replace(o.name, off, data)
		default:
			err = tx.Append(o.name, data)
		}
		if err != nil {
			if aerr := tx.Abort(); aerr != nil {
				return fmt.Errorf("%w (abort: %w)", err, aerr)
			}
			return err
		}
		return tx.Commit()
	})
	if !ok {
		return
	}
	switch kind {
	case 0:
		o.m.insert(off, src, n)
	case 1:
		o.m.delete(off, int64(n))
	case 2:
		o.m.replace(off, src, n)
	default:
		o.m.append(src, n)
	}
}

// measureReadUnderWrite runs writer W for a fixed count of transactions
// while reader R loops snapshot reads of 64 KB at random offsets until W
// is done.  R's reads race W's commits, so their content is checked only
// for length; the closing scan checks the final content in full.
func measureReadUnderWrite(r *run) error {
	w, rd := r.newClient(0), r.newClient(1)
	names := make([]string, len(r.objs))
	for i, o := range r.objs {
		names[i] = o.name
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64<<10)
		for {
			select {
			case <-done:
				return
			default:
			}
			name := names[rd.rng.Intn(len(names))]
			frac := rd.rng.Float64()
			rd.do(opSnapshotRead, len(buf), func() error {
				sn, err := r.store.OpenSnapshot(name)
				if err != nil {
					return fmt.Errorf("open snapshot: %w", err)
				}
				off := int64(frac * float64(sn.Size()-int64(len(buf))))
				n, err := sn.ReadAt(buf, off)
				if cerr := sn.Close(); err == nil {
					err = cerr
				}
				if err == nil && n != len(buf) {
					err = fmt.Errorf("snapshot read of %d bytes returned %d", len(buf), n)
				}
				return err
			})
		}
	}()
	for i := 1; i <= r.units; i++ {
		w.writeTxn(r.objs[w.rng.Intn(len(r.objs))])
		if i%r.sz.checkpoint == 0 || i == r.units {
			w.checkpoint()
		}
	}
	close(done)
	wg.Wait()
	return nil
}
