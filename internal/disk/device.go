package disk

import (
	"fmt"
	"sync"
	"time"
)

// Device is the volume abstraction the rest of the engine is written
// against: a linear array of fixed-size pages with contiguous multi-page
// transfers, vectored run writes, an explicit durability boundary
// (Force*), I/O accounting, and the fault/crash hooks the recovery tests
// drive.  Two implementations exist:
//
//   - Volume, the simulator: pages live in memory, every request is
//     charged against a parametric seek/transfer cost model, and crash
//     semantics (which writes survive) are modelled exactly.  It is the
//     deterministic substrate for the paper-reproduction experiments.
//
//   - FileVolume, the real backend: pages live in an ordinary file,
//     reads and writes are positional pread/pwrite at page offsets,
//     WriteRun is a vectored pwritev, and Force is fdatasync.
//
// Both embed one accounting core, so a request counts the same on
// either: the same range and length checks, the same fault budget, the
// same counters and seek rule, the same trace events.  Only Stats.Micros
// differs — modelled time on the simulator, measured wall-clock time on
// the file backend — and Stats.Syncs, which only real barriers issue.
//
// ReadPages, WritePages and WriteRun never keep the memory they are
// handed after they return: the engine reads into and writes from its
// own callers' buffers, which those callers reuse at once.
//
// Both implementations are safe for concurrent use.  Code written
// against Device (the buffer pool, the WAL, the buddy allocator, the
// LOB manager, the store) runs unmodified on either backend.
type Device interface {
	// PageSize reports the page size in bytes.
	PageSize() int
	// NumPages reports the capacity in pages.
	NumPages() PageNum

	// ReadPages reads n physically contiguous pages starting at start
	// into buf, which must be exactly n*PageSize bytes.
	ReadPages(start PageNum, n int, buf []byte) error
	// Read allocates and returns the content of n contiguous pages.
	Read(start PageNum, n int) ([]byte, error)
	// WritePages writes n physically contiguous pages starting at
	// start.  The write is volatile until a Force covers it.
	WritePages(start PageNum, n int, buf []byte) error
	// WriteRun gather-writes len(pages) contiguous pages starting at
	// start in one request; each element must be exactly one page.
	WriteRun(start PageNum, pages [][]byte) error

	// Force makes the current contents of n pages starting at start
	// durable: they survive a crash.
	Force(start PageNum, n int) error
	// ForceAll makes every written page durable.
	ForceAll() error
	// ForceAllExcept makes every written page durable except those in
	// skip, which stay volatile.  The store's barriers force every page
	// and do not call it.
	ForceAllExcept(skip map[PageNum]bool) error

	// Stats returns a snapshot of the accumulated I/O statistics.
	Stats() Stats
	// ResetStats zeroes the counters and forgets the head position.
	ResetStats()

	// FailAfter arms fault injection: after n more successful requests
	// every request fails with err until ClearFault.
	FailAfter(n int64, err error)
	// ClearFault disarms fault injection.
	ClearFault()
	// Crash simulates a power failure: every page reverts to its last
	// forced image (when the backend tracks one) and volatile state is
	// lost — the simulator swaps each dirty page's pre-image slot back,
	// in O(dirty pages), and a shadowed file volume writes its saved
	// pre-images back.  Statistics reset, as a restarted system
	// observes a cold device.
	Crash() error

	// Close releases the backend's resources (a no-op for the
	// simulator).  The device must not be used afterwards.
	Close() error
}

// Compile-time interface checks: both backends implement Device.
var (
	_ Device = (*Volume)(nil)
	_ Device = (*FileVolume)(nil)
)

// TraceEvent describes one I/O request, emitted to the tracer if one is
// installed.  Tooling uses traces to visualize access patterns — e.g.
// confirming that a sequential object scan issues a handful of large
// contiguous requests rather than per-page seeks.
type TraceEvent struct {
	Write bool
	Start PageNum
	Pages int
	Seek  bool // the request repositioned the head
}

// account is the accounting core both volumes embed: the geometry, the
// request checks, and the state every request updates — fault budget,
// counters, head position, tracer.  A request that moves no pages still
// passes the fault check and counts as a request, but it neither seeks
// nor moves the head nor reaches the tracer.  The cost model prices each
// request; the file backend's is zero, and it adds the time it measured
// through measured instead.
type account struct {
	pageSize int
	numPages PageNum
	model    CostModel
	// readPages is the embedding volume's ReadPages, which Read wraps.
	readPages func(start PageNum, n int, buf []byte) error

	// mu guards the state below.  Rank 70, the bottom of the lattice:
	// held only for the counter updates, never across a transfer.
	mu         sync.Mutex
	stats      Stats            // eos:guardedby mu
	headPos    PageNum          // eos:guardedby mu -- page following the last transferred page; -1 unknown
	faultAfter int64            // eos:guardedby mu
	faultErr   error            // eos:guardedby mu
	tracer     func(TraceEvent) // eos:guardedby mu
}

// checkGeometry rejects a page size or volume size no volume can have.
func checkGeometry(pageSize int, numPages PageNum) error {
	if pageSize <= 0 {
		return fmt.Errorf("disk: invalid page size %d", pageSize)
	}
	if numPages <= 0 {
		return fmt.Errorf("disk: invalid volume size %d pages", numPages)
	}
	return nil
}

// PageSize reports the volume's page size in bytes.
func (a *account) PageSize() int { return a.pageSize }

// NumPages reports the volume's capacity in pages.
func (a *account) NumPages() PageNum { return a.numPages }

// Read allocates and returns the content of n contiguous pages.
func (a *account) Read(start PageNum, n int) ([]byte, error) {
	buf := make([]byte, n*a.pageSize)
	if err := a.readPages(start, n, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// checkRange rejects a request that does not lie inside the volume.
func (a *account) checkRange(start PageNum, n int) error {
	if n < 0 || start < 0 || PageNum(int64(start)+int64(n)) > a.numPages {
		return fmt.Errorf("%w: pages [%d,%d) of %d", ErrOutOfRange, start, int64(start)+int64(n), a.numPages)
	}
	return nil
}

// check validates a transfer of n pages at start through buf.
func (a *account) check(start PageNum, n int, buf []byte) error {
	if len(buf) != n*a.pageSize {
		return fmt.Errorf("%w: got %d bytes for %d pages", ErrBadLength, len(buf), n)
	}
	return a.checkRange(start, n)
}

// checkRun validates a run write of pages at start.
func (a *account) checkRun(start PageNum, pages [][]byte) error {
	for i, p := range pages {
		if len(p) != a.pageSize {
			return fmt.Errorf("%w: run page %d has %d bytes, want %d", ErrBadLength, i, len(p), a.pageSize)
		}
	}
	return a.checkRange(start, len(pages))
}

// begin accounts one request of n pages at start: it consumes one unit of
// the fault budget, counts the request, charges a seek unless the request
// continues from the head, moves the head and tells the tracer.  It
// returns the request's modelled duration in microseconds.
func (a *account) begin(start PageNum, n int, write, run bool) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.faultErr != nil {
		if a.faultAfter <= 0 {
			return 0, a.faultErr
		}
		a.faultAfter--
	}
	if write {
		a.stats.Writes++
		a.stats.PagesWritten += int64(n)
		if run {
			a.stats.RunWrites++
			a.stats.CoalescedPages += int64(max(n-1, 0))
		}
	} else {
		a.stats.Reads++
		a.stats.PagesRead += int64(n)
	}
	if n == 0 {
		return 0, nil
	}
	var micros int64
	seek := a.headPos != start
	if seek {
		a.stats.Seeks++
		micros += a.model.SeekMicros + a.model.RotationalMicros
	}
	micros += int64(n) * a.model.TransferMicrosPerPage
	a.stats.Micros += micros
	a.headPos = start + PageNum(n)
	if a.tracer != nil {
		a.tracer(TraceEvent{Write: write, Start: start, Pages: n, Seek: seek})
	}
	return micros, nil
}

// measured adds the wall-clock time since began to the counters, and
// counts a sync when that time was a durability barrier's.
func (a *account) measured(began time.Time, sync bool) {
	micros := time.Since(began).Microseconds()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Micros += micros
	if sync {
		a.stats.Syncs++
	}
}

// Stats returns a snapshot of the accumulated I/O statistics.
func (a *account) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// ResetStats zeroes the statistics counters and forgets the head position
// so the next request is charged a seek.
func (a *account) ResetStats() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats = Stats{}
	a.headPos = -1
}

// SetTracer installs fn to observe every read and write; nil disables
// tracing.  The tracer is invoked synchronously with the accounting lock
// held, so it must be fast and must not call back into the volume.
func (a *account) SetTracer(fn func(TraceEvent)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tracer = fn
}

// FailAfter arms fault injection: after n more successful requests,
// every read and write fails with err until ClearFault.  Tests use this
// to verify that I/O errors propagate cleanly through every layer.
func (a *account) FailAfter(n int64, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.faultAfter = n
	a.faultErr = err
}

// ClearFault disarms fault injection.
func (a *account) ClearFault() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.faultErr = nil
}
