// Package crashtest is a systematic crash-state enumeration harness in
// the CrashMonkey/ALICE tradition.  It wraps the store's volumes in a
// tracing device that records every write and force barrier issued by a
// seeded mixed workload, then reconstructs the set of device states a
// power cut could have left behind — clean prefixes between barriers,
// torn multi-page writes, and sampled per-page subsets of the unforced
// writes in a force epoch — and runs full recovery plus machine-checked
// invariants against each one.
//
// The durability model matches what the engine may assume of a real
// disk: a single page (sector) write is atomic, writes become stable
// only when a covering Force returns, and between barriers the kernel
// and device may persist any subset of outstanding page writes in any
// order.  A multi-page write may additionally be torn: an arbitrary
// prefix of its pages reaches the platter.
package crashtest

import (
	"sync"

	"github.com/eosdb/eos/internal/disk"
)

// Kind labels a traced device event.
type Kind uint8

// Event kinds recorded by the tracing device.
const (
	KindWrite Kind = iota
	KindWriteRun
	KindForce
	KindForceAll
	KindForceAllExcept
)

func (k Kind) String() string {
	switch k {
	case KindWrite:
		return "write"
	case KindWriteRun:
		return "writerun"
	case KindForce:
		return "force"
	case KindForceAll:
		return "forceall"
	case KindForceAllExcept:
		return "forceallexcept"
	}
	return "unknown"
}

// Event is one recorded device request.  Write events carry a private
// copy of the written page images; force events carry their coverage.
type Event struct {
	Seq   int
	Dev   int // index of the traced device (0 = data, 1 = log)
	Kind  Kind
	Start disk.PageNum
	N     int    // pages written or forced (0 for ForceAll*)
	Data  []byte // concatenated page images for writes, len = N*pageSize
	Skip  map[disk.PageNum]bool
}

// Clock is the global event sequencer shared by every traced device in
// one run, so the interleaving of data- and log-volume requests is
// totally ordered.
type Clock struct {
	mu     sync.Mutex
	events []Event
}

// Seq reports the number of recorded events (the next sequence number).
func (c *Clock) Seq() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Events returns the recorded trace.  The caller must not mutate it.
func (c *Clock) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

func (c *Clock) record(ev Event) {
	c.mu.Lock()
	ev.Seq = len(c.events)
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Device wraps a disk.Device and records every write and force into the
// shared Clock.  Reads, stats, fault injection and crash calls pass
// through untouched by embedding, so the engine runs unmodified.
type Device struct {
	disk.Device
	clock *Clock
	id    int
}

// NewDevice wraps inner; id distinguishes the device in the trace.
func NewDevice(inner disk.Device, clock *Clock, id int) *Device {
	return &Device{Device: inner, clock: clock, id: id}
}

var _ disk.Device = (*Device)(nil)

// WritePages records a copy of the written pages, then forwards.
func (d *Device) WritePages(start disk.PageNum, n int, buf []byte) error {
	cp := make([]byte, len(buf))
	copy(cp, buf)
	d.clock.record(Event{Dev: d.id, Kind: KindWrite, Start: start, N: n, Data: cp})
	return d.Device.WritePages(start, n, buf)
}

// WriteRun records the gathered pages as one event, then forwards.
func (d *Device) WriteRun(start disk.PageNum, pages [][]byte) error {
	ps := d.PageSize()
	cp := make([]byte, len(pages)*ps)
	for i, p := range pages {
		copy(cp[i*ps:], p)
	}
	d.clock.record(Event{Dev: d.id, Kind: KindWriteRun, Start: start, N: len(pages), Data: cp})
	return d.Device.WriteRun(start, pages)
}

// Force records the barrier and its coverage, then forwards.
func (d *Device) Force(start disk.PageNum, n int) error {
	d.clock.record(Event{Dev: d.id, Kind: KindForce, Start: start, N: n})
	return d.Device.Force(start, n)
}

// ForceAll records the barrier, then forwards.
func (d *Device) ForceAll() error {
	d.clock.record(Event{Dev: d.id, Kind: KindForceAll})
	return d.Device.ForceAll()
}

// ForceAllExcept records the barrier with a copy of skip, then forwards.
func (d *Device) ForceAllExcept(skip map[disk.PageNum]bool) error {
	var cp map[disk.PageNum]bool
	if len(skip) > 0 {
		cp = make(map[disk.PageNum]bool, len(skip))
		for p := range skip {
			cp[p] = true
		}
	}
	d.clock.record(Event{Dev: d.id, Kind: KindForceAllExcept, Skip: cp})
	return d.Device.ForceAllExcept(skip)
}
