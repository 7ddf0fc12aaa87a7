package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

// span is one traced interval: an API call issued by a client (a root
// span, parent = the workload span 0) or one device request it caused.
// Times are nanoseconds since the recorder was created.  Spans hold no
// pointers, so the millions a run records cost the collector nothing.
type span struct {
	ID, Parent int64
	Start, End int64
	Pages      int32
	Name       spanName
}

// spanName numbers the span names: the API calls (an opKind), then the
// device requests, per device and kind.
type spanName uint8

const (
	kindRead = iota
	kindWrite
	kindForce
	numKinds
)

var (
	devNames  = [...]string{"data", "log"}
	kindNames = [numKinds]string{"read", "write", "force"}
)

func deviceSpan(dev, kind int) spanName { return spanName(int(numOps) + dev*numKinds + kind) }

func (n spanName) isDevice() bool { return n >= spanName(numOps) }

func (n spanName) String() string {
	if !n.isDevice() {
		return "eos." + opNames[n]
	}
	i := int(n) - int(numOps)
	return "disk." + devNames[i/numKinds] + "." + kindNames[i%numKinds]
}

// recorder keeps every span of one traced run in memory; it is written
// out (if asked) only when the run has ended.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// attribute is set when one client drives the store: current is then
	// the API-call span in flight, so device requests can name it as their
	// parent.  With two clients current stays 0 and device spans hang off
	// the workload span.
	attribute bool
	current   atomic.Int64
	nextID    atomic.Int64
}

// newRecorder makes a recorder with room for capacity spans before it has
// to grow.
func newRecorder(attribute bool, capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity), attribute: attribute}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// beginOp opens a root span for one API call.
func (r *recorder) beginOp() (id, start int64) {
	id = r.nextID.Add(1)
	if r.attribute {
		r.current.Store(id)
	}
	return id, r.now()
}

func (r *recorder) endOp(id, start int64, kind opKind) {
	end := r.now()
	if r.attribute {
		r.current.Store(0)
	}
	r.add(span{ID: id, Name: spanName(kind), Start: start, End: end})
}

// writeFile dumps the spans as JSON.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type jsonSpan struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Pages  int32  `json:"pages,omitempty"`
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		// One object per line: a run records millions of spans.
		if err = enc.Encode(jsonSpan{s.ID, s.Parent, s.Name.String(), s.Start, s.End, s.Pages}); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// tracedDevice decorates a disk.Device, recording one span per request
// that moves or forces pages.  Everything else passes through.
type tracedDevice struct {
	disk.Device
	dev int // index into devNames
	rec *recorder
}

func (t *tracedDevice) record(kind, pages int, start int64) {
	t.rec.add(span{
		ID:     t.rec.nextID.Add(1),
		Parent: t.rec.current.Load(),
		Name:   deviceSpan(t.dev, kind),
		Start:  start,
		End:    t.rec.now(),
		Pages:  int32(pages),
	})
}

func (t *tracedDevice) ReadPages(start disk.PageNum, n int, buf []byte) error {
	defer t.record(kindRead, n, t.rec.now())
	return t.Device.ReadPages(start, n, buf)
}

func (t *tracedDevice) Read(start disk.PageNum, n int) ([]byte, error) {
	defer t.record(kindRead, n, t.rec.now())
	return t.Device.Read(start, n)
}

func (t *tracedDevice) WritePages(start disk.PageNum, n int, buf []byte) error {
	defer t.record(kindWrite, n, t.rec.now())
	return t.Device.WritePages(start, n, buf)
}

func (t *tracedDevice) WriteRun(start disk.PageNum, pages [][]byte) error {
	defer t.record(kindWrite, len(pages), t.rec.now())
	return t.Device.WriteRun(start, pages)
}

func (t *tracedDevice) Force(start disk.PageNum, n int) error {
	defer t.record(kindForce, n, t.rec.now())
	return t.Device.Force(start, n)
}

func (t *tracedDevice) ForceAll() error {
	defer t.record(kindForce, 0, t.rec.now())
	return t.Device.ForceAll()
}

func (t *tracedDevice) ForceAllExcept(skip map[disk.PageNum]bool) error {
	defer t.record(kindForce, 0, t.rec.now())
	return t.Device.ForceAllExcept(skip)
}

// traceSummary is what a traced run yields besides the spans themselves.
type traceSummary struct {
	// kindDur holds every request's duration, by device span name.
	kindDur map[spanName][]int64
	// covered partitions the part of [from, to) during which at least
	// one device request was in flight, each instant going to the
	// request that started first.
	covered map[spanName]int64
	opTime  int64 // total time inside API calls
	spans   int   // spans of either kind in the interval
}

// summarize attributes the interval [from, to) of a traced run.
func (r *recorder) summarize(from, to int64) traceSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	sum := traceSummary{
		kindDur: map[spanName][]int64{},
		covered: map[spanName]int64{},
	}
	var dev []span
	for _, s := range r.spans {
		if s.Start < from || s.End > to {
			continue
		}
		sum.spans++
		if !s.Name.isDevice() {
			sum.opTime += s.End - s.Start
			continue
		}
		dev = append(dev, s)
		sum.kindDur[s.Name] = append(sum.kindDur[s.Name], s.End-s.Start)
	}
	sort.Slice(dev, func(i, j int) bool { return dev[i].Start < dev[j].Start })
	cursor := from
	for _, s := range dev {
		lo := s.Start
		if lo < cursor {
			lo = cursor
		}
		if s.End > lo {
			sum.covered[s.Name] += s.End - lo
			cursor = s.End
		}
	}
	return sum
}
