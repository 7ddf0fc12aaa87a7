// Package disk provides a simulated disk volume used as the storage
// substrate for the EOS large object manager and the baseline systems.
//
// The paper's evaluation (Biliris, ICDE 1992) reasons about storage cost
// in terms of disk seeks and page transfers: "Good sequential access means
// that the I/O rates in accessing a large object must be close to transfer
// rates", and the buddy system's headline claim is "at most one disk
// access ... regardless of the segment size".  The Volume type therefore
// accounts for exactly those quantities: it tracks every read and write,
// whether it required a head seek (the request did not continue from the
// previous physical position), how many pages moved, and the modelled
// elapsed time under a parametric cost model.
//
// Data is held in memory; the simulation is about cost accounting, not
// persistence.  Durability semantics needed by the recovery experiments
// (which writes survive a crash) come from shadow slots: a page written
// since its last force keeps its forced image in a second slot, a force
// frees that slot, and a crash swaps it back.  Neither moves page bytes,
// and a crash costs O(dirty pages) rather than O(capacity).
//
// A Volume is safe for concurrent use, and reads proceed in parallel:
// the slots are guarded by an RWMutex (reads share, writes exclude)
// while the seek/transfer accounting sits under its own short-lived
// mutex, so concurrent multi-page transfers overlap their copies.  For
// concurrency experiments, SetLatency additionally makes every request
// sleep its modelled duration, bounded by a configurable number of
// outstanding requests — queue depth 1 models the paper's single-arm
// disk (and the fully serialized read path the original single-mutex
// design enforced), larger depths model a modern device.
package disk

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Common volume errors.
var (
	// ErrOutOfRange is returned when a page access falls outside the volume.
	ErrOutOfRange = errors.New("disk: page access out of range")
	// ErrBadLength is returned when a buffer length is not a whole number
	// of pages.
	ErrBadLength = errors.New("disk: buffer length not a multiple of page size")
)

// CostModel describes the simulated device timing.  All durations are in
// microseconds so that integer arithmetic is exact and deterministic.
type CostModel struct {
	// SeekMicros is the average cost of repositioning the head, charged
	// whenever a request does not start at the page following the previous
	// request's last page.
	SeekMicros int64
	// RotationalMicros is the average rotational delay, charged together
	// with every seek.
	RotationalMicros int64
	// TransferMicrosPerPage is the time to transfer one page once the head
	// is positioned.
	TransferMicrosPerPage int64
}

// DefaultCostModel models a circa-1992 disk (the paper's SparcStation
// environment): 16 ms average seek, 8.3 ms rotational delay (3600 rpm),
// and roughly 1.7 ms to transfer a 4 KB page (~2.4 MB/s media rate).
func DefaultCostModel() CostModel {
	return CostModel{
		SeekMicros:            16000,
		RotationalMicros:      8300,
		TransferMicrosPerPage: 1700,
	}
}

// Stats accumulates I/O accounting for a Volume.  Counters are cumulative;
// use Volume.ResetStats or subtract snapshots to measure an interval.
type Stats struct {
	Reads          int64 // read requests
	Writes         int64 // write requests
	PagesRead      int64 // pages transferred by reads
	PagesWritten   int64 // pages transferred by writes
	Seeks          int64 // requests that required repositioning the head
	Micros         int64 // modelled elapsed time in microseconds
	RunWrites      int64 // vectored WriteRun requests (counted in Writes too)
	CoalescedPages int64 // pages beyond the first in each WriteRun — seeks saved by coalescing
	Syncs          int64 // durability barriers actually issued (fdatasync); 0 on the simulator
}

// Accesses returns the total number of I/O requests.
func (s Stats) Accesses() int64 { return s.Reads + s.Writes }

// PagesMoved returns the total number of pages transferred.
func (s Stats) PagesMoved() int64 { return s.PagesRead + s.PagesWritten }

// Sub returns the interval statistics s - prev.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Reads:          s.Reads - prev.Reads,
		Writes:         s.Writes - prev.Writes,
		PagesRead:      s.PagesRead - prev.PagesRead,
		PagesWritten:   s.PagesWritten - prev.PagesWritten,
		Seeks:          s.Seeks - prev.Seeks,
		Micros:         s.Micros - prev.Micros,
		RunWrites:      s.RunWrites - prev.RunWrites,
		CoalescedPages: s.CoalescedPages - prev.CoalescedPages,
		Syncs:          s.Syncs - prev.Syncs,
	}
}

// String renders the statistics compactly for experiment tables.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d pagesIn=%d pagesOut=%d seeks=%d time=%.2fms",
		s.Reads, s.Writes, s.PagesRead, s.PagesWritten, s.Seeks, float64(s.Micros)/1000)
}

// PageNum identifies a page within a volume.  The paper's allocation map
// supports segment sizes up to 2^63 pages; a signed 64-bit page number is
// more than sufficient.
type PageNum int64

// Volume is a simulated disk: a linear array of fixed-size pages with
// seek/transfer cost accounting and crash semantics.
//
// Page images live in shadow slots, as §4.5's recovery keeps a page it
// may need again: one arena holds twice the capacity in slots, and a
// table maps each page to the slot holding its current image.  The
// first write to a page since its last force takes a free slot and
// keeps the old one as the page's pre-image — writes are whole pages,
// so nothing is copied but the new bytes.  A force returns pre-image
// slots to the free stack, and a crash swaps them back in, so neither
// moves a byte, and a crash costs O(dirty pages), not O(capacity).
// Every page holds one current slot and at most one pre-image, so the
// free stack never runs dry.
//
// A Volume is safe for concurrent use; each request is atomic, and read
// requests overlap each other.
type Volume struct {
	// account is taken while holding mu (shared or exclusive) and only
	// for the counter updates, so concurrent multi-page reads serialize
	// on it briefly but overlap their copies.
	account

	mu      sync.RWMutex // guards the slot state below
	arena   []byte       // eos:guardedby mu -- 2 * numPages slots of pageSize bytes
	slot    []int32      // eos:guardedby mu -- page -> slot of its current image
	pre     []int32      // eos:guardedby mu -- page -> slot of its last forced image; -1 while the page is clean
	dirtyAt []int32      // eos:guardedby mu -- page -> its index in dirty, while pre[page] >= 0
	dirty   []int32      // eos:guardedby mu -- pages written since their last force
	free    []int32      // eos:guardedby mu -- stack of slots holding no image

	// Latency simulation (SetLatency): every request sleeps its modelled
	// duration; latSem bounds the number of outstanding requests.
	latOn  bool
	latSem chan struct{}
}

// maxVolumePages is the largest simulated volume: its slots must be
// numbered by an int32.
const maxVolumePages = math.MaxInt32 / 2

// NewVolume creates a volume of numPages pages of pageSize bytes each,
// using the supplied cost model.  pageSize must be positive; numPages must
// be positive and at most 2^30 - 1.  Every page reads as zeros until it
// is written.
func NewVolume(pageSize int, numPages PageNum, model CostModel) (*Volume, error) {
	if err := checkGeometry(pageSize, numPages); err != nil {
		return nil, err
	}
	if numPages > maxVolumePages {
		return nil, fmt.Errorf("disk: simulated volume of %d pages exceeds %d", numPages, maxVolumePages)
	}
	// Page p starts in slot p; the stack pops the other half in
	// ascending order, so on a fresh volume a run written to clean
	// pages lands in consecutive slots and reads back in one copy.
	n := int(numPages)
	slot, pre, free := make([]int32, n), make([]int32, n), make([]int32, n)
	for p := range slot {
		slot[p] = int32(p)
		pre[p] = -1
		free[p] = int32(2*n - 1 - p)
	}
	v := &Volume{
		account: account{pageSize: pageSize, numPages: numPages, model: model, headPos: -1},
		arena:   make([]byte, 2*int64(numPages)*int64(pageSize)),
		slot:    slot,
		pre:     pre,
		dirtyAt: make([]int32, n),
		free:    free,
	}
	v.readPages = v.ReadPages
	return v, nil
}

// MustNewVolume is NewVolume that panics on error, for tests and examples
// with constant parameters.
func MustNewVolume(pageSize int, numPages PageNum, model CostModel) *Volume {
	v, err := NewVolume(pageSize, numPages, model)
	if err != nil {
		panic(err)
	}
	return v
}

// SetLatency enables or disables latency simulation.  When enabled, every
// read and write request sleeps its modelled duration (the same
// microseconds charged to Stats.Micros), and at most parallelism requests
// are outstanding at once: 1 models the single-arm 1992 disk — and the
// fully serialized transfer path a global volume mutex used to enforce —
// while higher values model a device with internal parallelism.  Must not
// be toggled while requests are in flight.
func (v *Volume) SetLatency(enabled bool, parallelism int) {
	v.latOn = enabled
	v.latSem = nil
	if enabled && parallelism > 0 {
		v.latSem = make(chan struct{}, parallelism)
	}
}

// admit blocks until the latency-mode device accepts another outstanding
// request; the returned function completes it (after sleeping the
// modelled duration recorded by the caller).
func (v *Volume) admit() func(micros int64) {
	if !v.latOn {
		return nil
	}
	if v.latSem != nil {
		v.latSem <- struct{}{}
	}
	return func(micros int64) {
		if micros > 0 {
			time.Sleep(time.Duration(micros) * time.Microsecond)
		}
		if v.latSem != nil {
			<-v.latSem
		}
	}
}

// ReadPages reads n physically contiguous pages starting at page start
// into buf, which must be exactly n*PageSize bytes.  A single multi-page
// read costs at most one seek — this is the contiguity property the EOS
// segment design exists to exploit.  Concurrent reads overlap: only the
// brief accounting update is serialized.
func (v *Volume) ReadPages(start PageNum, n int, buf []byte) error {
	if err := v.check(start, n, buf); err != nil {
		return err
	}
	done := v.admit()
	v.mu.RLock()
	micros, err := v.begin(start, n, false, false)
	if err == nil {
		// One copy per run of pages whose slots are consecutive.
		ps := v.pageSize
		for i := 0; i < n; {
			s := v.slot[start+PageNum(i)]
			k := 1
			for i+k < n && v.slot[start+PageNum(i+k)] == s+int32(k) {
				k++
			}
			copy(buf[i*ps:(i+k)*ps], v.image(s, k))
			i += k
		}
	}
	v.mu.RUnlock()
	if done != nil {
		done(micros)
	}
	return err
}

// WritePages writes n physically contiguous pages starting at page start.
// buf must be exactly n*PageSize bytes.  The write is volatile until a
// Force, ForceAll or ForceAllExcept covers the pages.
func (v *Volume) WritePages(start PageNum, n int, buf []byte) error {
	if err := v.check(start, n, buf); err != nil {
		return err
	}
	return v.write(start, n, false, buf, nil)
}

// WriteRun gather-writes len(pages) physically contiguous pages starting
// at page start in a single request — at most one seek, however many
// pages the run holds.  Each element must be exactly one page.  This is
// the coalescing entry point the buffer pool uses when write-back finds
// adjacent dirty pages: n single-page WritePages calls cost up to n
// seeks, one WriteRun costs one.
func (v *Volume) WriteRun(start PageNum, pages [][]byte) error {
	if err := v.checkRun(start, pages); err != nil {
		return err
	}
	return v.write(start, len(pages), true, nil, pages)
}

// write accounts one write request of n pages at start and copies buf,
// then each of pages, into the pages' current slots.
func (v *Volume) write(start PageNum, n int, run bool, buf []byte, pages [][]byte) error {
	done := v.admit()
	v.mu.Lock()
	micros, err := v.begin(start, n, true, run)
	if err == nil {
		ps := v.pageSize
		for i := 0; i < n; i++ {
			dst := v.image(v.writable(start+PageNum(i)), 1)
			if pages != nil {
				copy(dst, pages[i])
			} else {
				copy(dst, buf[i*ps:])
			}
		}
	}
	v.mu.Unlock()
	if done != nil {
		done(micros)
	}
	return err
}

// image returns the bytes of k consecutive slots from slot s.
//
// eos:requires v.mu (shared)
func (v *Volume) image(s int32, k int) []byte {
	off := int64(s) * int64(v.pageSize)
	return v.arena[off : off+int64(k)*int64(v.pageSize)]
}

// writable returns the slot page p's next write goes to.  A page
// written since its last force is written in place; a clean one moves
// to a free slot, and its old slot becomes its pre-image.
//
// eos:requires v.mu
func (v *Volume) writable(p PageNum) int32 {
	if v.pre[p] < 0 {
		top := len(v.free) - 1
		v.pre[p], v.slot[p] = v.slot[p], v.free[top]
		v.free = v.free[:top]
		v.dirtyAt[p] = int32(len(v.dirty))
		v.dirty = append(v.dirty, int32(p))
	}
	return v.slot[p]
}

// settle makes dirty page p durable: its pre-image slot goes back on
// the free stack, and p leaves the dirty list, whose last entry takes
// its place.
//
// eos:requires v.mu
func (v *Volume) settle(p int32) {
	v.free = append(v.free, v.pre[p])
	v.pre[p] = -1
	i, last := v.dirtyAt[p], v.dirty[len(v.dirty)-1]
	v.dirty[i], v.dirtyAt[last] = last, i
	v.dirty = v.dirty[:len(v.dirty)-1]
}

// Force makes the current contents of n pages starting at start durable:
// they will survive a simulated crash.  Forcing already-durable pages is a
// no-op for accounting purposes (the write itself was already charged).
// The cost is O(n), whatever else is dirty.
func (v *Volume) Force(start PageNum, n int) error {
	if err := v.checkRange(start, n); err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for p := int32(start); p < int32(start)+int32(n); p++ {
		if v.pre[p] >= 0 {
			v.settle(p)
		}
	}
	return nil
}

// ForceAll makes every written page durable.  The error is always nil
// for the simulator; the signature matches Device, whose file backend
// can fail the sync.
func (v *Volume) ForceAll() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, p := range v.dirty {
		v.free = append(v.free, v.pre[p])
		v.pre[p] = -1
	}
	v.dirty = v.dirty[:0]
	return nil
}

// ForceAllExcept makes every written page durable except those in skip,
// which stay volatile.
func (v *Volume) ForceAllExcept(skip map[PageNum]bool) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	// Backwards, so the entry settle moves into place was already seen.
	for i := len(v.dirty) - 1; i >= 0; i-- {
		if p := v.dirty[i]; !skip[PageNum(p)] {
			v.settle(p)
		}
	}
	return nil
}

// Crash simulates a power failure: every page written since its last
// force gets its pre-image slot back, so it reverts to its last forced
// image, in time proportional to the dirty pages alone.  Statistics and
// head position are reset, as a restarted system observes a cold
// device.
func (v *Volume) Crash() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, p := range v.dirty {
		v.free = append(v.free, v.slot[p])
		v.slot[p], v.pre[p] = v.pre[p], -1
	}
	v.dirty = v.dirty[:0]
	v.ResetStats()
	return nil
}

// Close releases the volume.  The simulator holds no external
// resources, so Close only exists to satisfy Device.
func (v *Volume) Close() error { return nil }

// DirtyPages reports how many written pages have not been forced.
func (v *Volume) DirtyPages() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.dirty)
}
