package disk

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func testVolume(t *testing.T, pageSize int, numPages PageNum) *Volume {
	t.Helper()
	v, err := NewVolume(pageSize, numPages, DefaultCostModel())
	if err != nil {
		t.Fatalf("NewVolume: %v", err)
	}
	return v
}

func TestNewVolumeValidation(t *testing.T) {
	if _, err := NewVolume(0, 10, DefaultCostModel()); err == nil {
		t.Error("zero page size accepted")
	}
	if _, err := NewVolume(-4, 10, DefaultCostModel()); err == nil {
		t.Error("negative page size accepted")
	}
	if _, err := NewVolume(512, 0, DefaultCostModel()); err == nil {
		t.Error("zero pages accepted")
	}
	if _, err := NewVolume(512, -1, DefaultCostModel()); err == nil {
		t.Error("negative pages accepted")
	}
	// Refused before anything is allocated: slots are numbered by int32.
	if _, err := NewVolume(1, maxVolumePages+1, DefaultCostModel()); err == nil {
		t.Error("more pages than int32 slot numbers accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	v := testVolume(t, 128, 64)
	want := make([]byte, 3*128)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := v.WritePages(5, 3, want); err != nil {
		t.Fatalf("WritePages: %v", err)
	}
	got, err := v.Read(5, 3)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("read data differs from written data")
	}
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRangeChecks(t *testing.T) {
	v := testVolume(t, 64, 8)
	buf := make([]byte, 64)
	cases := []struct {
		name  string
		start PageNum
		n     int
	}{
		{"negative start", -1, 1},
		{"past end", 8, 1},
		{"straddles end", 7, 2},
	}
	for _, c := range cases {
		if err := v.ReadPages(c.start, c.n, make([]byte, c.n*64)); err == nil {
			t.Errorf("read %s: no error", c.name)
		}
		if c.n == 1 {
			if err := v.WritePages(c.start, c.n, buf); err == nil {
				t.Errorf("write %s: no error", c.name)
			}
		}
	}
	if err := v.ReadPages(0, 2, buf); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestSeekAccountingSequentialVsRandom(t *testing.T) {
	v := testVolume(t, 64, 100)
	buf := make([]byte, 64)

	// Sequential scan: one seek for the whole pass.
	for p := PageNum(0); p < 50; p++ {
		if err := v.ReadPages(p, 1, buf); err != nil {
			t.Fatal(err)
		}
	}
	s := v.Stats()
	if s.Seeks != 1 {
		t.Errorf("sequential scan: got %d seeks, want 1", s.Seeks)
	}
	if s.PagesRead != 50 {
		t.Errorf("sequential scan: got %d pages, want 50", s.PagesRead)
	}

	// Random probes: a seek each.
	v.ResetStats()
	probes := []PageNum{40, 3, 77, 12, 51}
	for _, p := range probes {
		if err := v.ReadPages(p, 1, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Stats().Seeks; got != int64(len(probes)) {
		t.Errorf("random probes: got %d seeks, want %d", got, len(probes))
	}
}

func TestMultiPageReadSingleSeek(t *testing.T) {
	v := testVolume(t, 64, 1024)
	v.ResetStats()
	if _, err := v.Read(100, 512); err != nil {
		t.Fatal(err)
	}
	s := v.Stats()
	if s.Seeks != 1 {
		t.Errorf("512-page contiguous read: %d seeks, want 1", s.Seeks)
	}
	if s.PagesRead != 512 {
		t.Errorf("pages read = %d, want 512", s.PagesRead)
	}
}

func TestCostModelCharging(t *testing.T) {
	m := CostModel{SeekMicros: 100, RotationalMicros: 10, TransferMicrosPerPage: 3}
	v, err := NewVolume(64, 16, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Read(0, 4); err != nil { // seek + 4 transfers
		t.Fatal(err)
	}
	if _, err := v.Read(4, 2); err != nil { // sequential: 2 transfers
		t.Fatal(err)
	}
	want := int64(100 + 10 + 4*3 + 2*3)
	if got := v.Stats().Micros; got != want {
		t.Errorf("modelled time = %dus, want %dus", got, want)
	}
}

func TestWriteThenCrashReverts(t *testing.T) {
	v := testVolume(t, 64, 8)
	one := bytes.Repeat([]byte{1}, 64)
	two := bytes.Repeat([]byte{2}, 64)

	if err := v.WritePages(3, 1, one); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := v.WritePages(3, 1, two); err != nil {
		t.Fatal(err)
	}
	if err := v.WritePages(4, 1, two); err != nil {
		t.Fatal(err)
	}
	if got := v.DirtyPages(); got != 2 {
		t.Errorf("dirty pages = %d, want 2", got)
	}
	v.Crash()
	got, err := v.Read(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, one) {
		t.Error("page 3 did not revert to forced image")
	}
	got, err = v.Read(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Error("never-forced page 4 survived the crash")
	}
}

func TestForceAll(t *testing.T) {
	v := testVolume(t, 32, 8)
	payload := bytes.Repeat([]byte{9}, 32)
	for p := PageNum(0); p < 8; p++ {
		if err := v.WritePages(p, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	v.ForceAll()
	if got := v.DirtyPages(); got != 0 {
		t.Errorf("dirty pages after ForceAll = %d, want 0", got)
	}
	v.Crash()
	for p := PageNum(0); p < 8; p++ {
		got, err := v.Read(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("page %d lost after ForceAll+Crash", p)
		}
	}
}

func TestStatsSubAndAccessors(t *testing.T) {
	a := Stats{Reads: 10, Writes: 4, PagesRead: 30, PagesWritten: 8, Seeks: 6, Micros: 1000}
	b := Stats{Reads: 4, Writes: 1, PagesRead: 10, PagesWritten: 2, Seeks: 2, Micros: 400}
	d := a.Sub(b)
	if d.Reads != 6 || d.Writes != 3 || d.PagesRead != 20 || d.PagesWritten != 6 || d.Seeks != 4 || d.Micros != 600 {
		t.Errorf("Sub = %+v", d)
	}
	if a.Accesses() != 14 {
		t.Errorf("Accesses = %d, want 14", a.Accesses())
	}
	if a.PagesMoved() != 38 {
		t.Errorf("PagesMoved = %d, want 38", a.PagesMoved())
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
}

// Property: any sequence of in-range writes followed by reads returns the
// last written value for every page.
func TestQuickWriteReadConsistency(t *testing.T) {
	const pages = 32
	const ps = 16
	f := func(ops []struct {
		Page uint8
		Val  byte
	}) bool {
		v := MustNewVolume(ps, pages, CostModel{})
		shadow := make(map[PageNum][]byte)
		for _, op := range ops {
			p := PageNum(op.Page % pages)
			buf := bytes.Repeat([]byte{op.Val}, ps)
			if err := v.WritePages(p, 1, buf); err != nil {
				return false
			}
			shadow[p] = buf
		}
		for p, want := range shadow {
			got, err := v.Read(p, 1)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: crash never surfaces data that was not forced, and always
// preserves data that was.
func TestQuickCrashDurability(t *testing.T) {
	const pages = 16
	const ps = 8
	f := func(ops []struct {
		Page  uint8
		Val   byte
		Force bool
	}) bool {
		v := MustNewVolume(ps, pages, CostModel{})
		durable := make(map[PageNum][]byte)
		for _, op := range ops {
			p := PageNum(op.Page % pages)
			buf := bytes.Repeat([]byte{op.Val}, ps)
			if err := v.WritePages(p, 1, buf); err != nil {
				return false
			}
			if op.Force {
				if err := v.Force(p, 1); err != nil {
					return false
				}
				durable[p] = buf
			}
		}
		v.Crash()
		for p := PageNum(0); p < pages; p++ {
			want, ok := durable[p]
			if !ok {
				want = make([]byte, ps)
			}
			got, err := v.Read(p, 1)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteRunCoalescing(t *testing.T) {
	m := CostModel{SeekMicros: 100, RotationalMicros: 10, TransferMicrosPerPage: 3}
	v := MustNewVolume(64, 32, m)
	pages := make([][]byte, 4)
	for i := range pages {
		pages[i] = make([]byte, 64)
		for j := range pages[i] {
			pages[i][j] = byte(i + 1)
		}
	}
	if err := v.WriteRun(3, pages); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.Writes != 1 || st.PagesWritten != 4 || st.RunWrites != 1 || st.CoalescedPages != 3 {
		t.Fatalf("run stats: %+v", st)
	}
	if st.Seeks != 1 {
		t.Fatalf("coalesced run cost %d seeks, want 1", st.Seeks)
	}
	got, err := v.Read(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got[i*64] != byte(i+1) {
			t.Fatalf("page %d holds %d, want %d", i, got[i*64], i+1)
		}
	}
	// Sub must difference the new counters too.
	if d := v.Stats().Sub(st); d.RunWrites != 0 || d.CoalescedPages != 0 {
		t.Fatalf("Sub missed run counters: %+v", d)
	}
}

func TestWriteRunValidation(t *testing.T) {
	v := MustNewVolume(64, 8, CostModel{})
	if err := v.WriteRun(0, [][]byte{make([]byte, 63)}); !errors.Is(err, ErrBadLength) {
		t.Fatalf("short page: got %v, want ErrBadLength", err)
	}
	if err := v.WriteRun(7, [][]byte{make([]byte, 64), make([]byte, 64)}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out of range run: got %v, want ErrOutOfRange", err)
	}
	if err := v.WriteRun(0, nil); err != nil {
		t.Fatalf("empty run: %v", err)
	}
}

func TestWriteRunVolatileUntilForce(t *testing.T) {
	v := MustNewVolume(64, 8, CostModel{})
	page := make([]byte, 64)
	page[0] = 0xAB
	if err := v.WriteRun(2, [][]byte{page}); err != nil {
		t.Fatal(err)
	}
	v.Crash()
	got, err := v.Read(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("unforced WriteRun survived a crash")
	}
}

func TestFaultInjection(t *testing.T) {
	v := MustNewVolume(64, 8, CostModel{})
	boom := errors.New("boom")
	buf := make([]byte, 64)

	v.FailAfter(2, boom)
	if err := v.ReadPages(0, 1, buf); err != nil {
		t.Fatalf("request 1: %v", err)
	}
	if err := v.WritePages(0, 1, buf); err != nil {
		t.Fatalf("request 2: %v", err)
	}
	if err := v.ReadPages(0, 1, buf); !errors.Is(err, boom) {
		t.Fatalf("request 3: err = %v, want boom", err)
	}
	if err := v.WritePages(0, 1, buf); !errors.Is(err, boom) {
		t.Fatalf("request 4: err = %v, want boom", err)
	}
	v.ClearFault()
	if err := v.ReadPages(0, 1, buf); err != nil {
		t.Fatalf("after clear: %v", err)
	}
}

func TestTracerObservesRequests(t *testing.T) {
	v := testVolume(t, 64, 64)
	var events []TraceEvent
	v.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	buf := make([]byte, 64)
	if err := v.WritePages(3, 1, buf); err != nil {
		t.Fatal(err)
	}
	if err := v.ReadPages(4, 1, buf); err != nil { // sequential: no seek
		t.Fatal(err)
	}
	if err := v.ReadPages(40, 1, buf); err != nil { // seek
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if !events[0].Write || !events[0].Seek || events[0].Start != 3 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Write || events[1].Seek {
		t.Errorf("event 1 = %+v (sequential read, no seek)", events[1])
	}
	if !events[2].Seek {
		t.Errorf("event 2 = %+v (random read, seek)", events[2])
	}
	v.SetTracer(nil)
	if err := v.ReadPages(0, 1, buf); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Error("tracer fired after being removed")
	}
}

// tracedDevice is a Device that also takes a tracer, as both backends do.
type tracedDevice interface {
	Device
	SetTracer(fn func(TraceEvent))
}

// TestAccounting holds both backends to the one accounting core: the seek
// rule, the counters, zero-page requests, the fault budget and the tracer.
// Each step's counters are a delta; Micros is left out (modelled on one
// backend, measured on the other) and Syncs counts barriers only where a
// barrier is a real sync.
func TestAccounting(t *testing.T) {
	boom := errors.New("boom")
	const ps = 64
	read := func(p PageNum, n int) func(tracedDevice) error {
		return func(v tracedDevice) error { return v.ReadPages(p, n, make([]byte, n*ps)) }
	}
	write := func(p PageNum, n int) func(tracedDevice) error {
		return func(v tracedDevice) error { return v.WritePages(p, n, make([]byte, n*ps)) }
	}
	run := func(p PageNum, n int) func(tracedDevice) error {
		return func(v tracedDevice) error {
			pages := make([][]byte, n)
			for i := range pages {
				pages[i] = make([]byte, ps)
			}
			return v.WriteRun(p, pages)
		}
	}
	then := func(first func(tracedDevice), next func(tracedDevice) error) func(tracedDevice) error {
		return func(v tracedDevice) error { first(v); return next(v) }
	}
	all := func(reqs ...func(tracedDevice) error) func(tracedDevice) error {
		return func(v tracedDevice) error {
			for _, r := range reqs {
				if err := r(v); err != nil {
					return err
				}
			}
			return nil
		}
	}
	// writeEach writes one page at each of pages; writeEvents is what the
	// tracer sees for it, the head starting elsewhere.
	writeEach := func(pages ...PageNum) func(tracedDevice) error {
		reqs := make([]func(tracedDevice) error, len(pages))
		for i, p := range pages {
			reqs[i] = write(p, 1)
		}
		return all(reqs...)
	}
	writeEvents := func(pages ...PageNum) []TraceEvent {
		evs := make([]TraceEvent, len(pages))
		for i, p := range pages {
			evs[i] = TraceEvent{Write: true, Start: p, Pages: 1, Seek: i == 0 || p != pages[i-1]+1}
		}
		return evs
	}
	seq := []PageNum{50, 51, 52, 53, 54, 55, 56, 57, 58, 59}
	scattered := []PageNum{0, 7, 14, 21, 28, 35, 42, 49, 56, 63}

	steps := []struct {
		name   string
		reset  bool // ResetStats before the step
		do     func(tracedDevice) error
		err    error
		delta  Stats
		events []TraceEvent
	}{
		{name: "first request seeks", do: write(3, 1),
			delta:  Stats{Writes: 1, PagesWritten: 1, Seeks: 1},
			events: []TraceEvent{{Write: true, Start: 3, Pages: 1, Seek: true}}},
		{name: "request continuing from the head does not", do: read(4, 1),
			delta:  Stats{Reads: 1, PagesRead: 1},
			events: []TraceEvent{{Start: 4, Pages: 1}}},
		{name: "request elsewhere seeks", do: read(40, 1),
			delta:  Stats{Reads: 1, PagesRead: 1, Seeks: 1},
			events: []TraceEvent{{Start: 40, Pages: 1, Seek: true}}},
		{name: "run is one request", do: run(41, 3),
			delta:  Stats{Writes: 1, PagesWritten: 3, RunWrites: 1, CoalescedPages: 2},
			events: []TraceEvent{{Write: true, Start: 41, Pages: 3}}},
		{name: "zero-page requests count but neither seek nor trace", do: all(read(0, 0), write(90, 0), run(7, 0)),
			delta: Stats{Reads: 1, Writes: 2, RunWrites: 1}},
		{name: "and leave the head where it was", do: read(44, 2),
			delta:  Stats{Reads: 1, PagesRead: 2},
			events: []TraceEvent{{Start: 44, Pages: 2}}},
		{name: "sequential writes seek once", do: writeEach(seq...),
			delta:  Stats{Writes: 10, PagesWritten: 10, Seeks: 1},
			events: writeEvents(seq...)},
		{name: "ResetStats forgets the head", reset: true, do: read(60, 1),
			delta:  Stats{Reads: 1, PagesRead: 1, Seeks: 1},
			events: []TraceEvent{{Start: 60, Pages: 1, Seek: true}}},
		{name: "scattered writes seek every time", do: writeEach(scattered...),
			delta:  Stats{Writes: 10, PagesWritten: 10, Seeks: 10},
			events: writeEvents(scattered...)},
		{name: "fault budget admits a read", do: then(func(v tracedDevice) { v.FailAfter(2, boom) }, read(0, 1)),
			delta:  Stats{Reads: 1, PagesRead: 1, Seeks: 1},
			events: []TraceEvent{{Start: 0, Pages: 1, Seek: true}}},
		{name: "and a write", do: write(1, 1),
			delta:  Stats{Writes: 1, PagesWritten: 1},
			events: []TraceEvent{{Write: true, Start: 1, Pages: 1}}},
		{name: "then reads fail", do: read(2, 1), err: boom},
		{name: "and writes", do: write(2, 1), err: boom},
		{name: "and runs", do: run(2, 2), err: boom},
		{name: "and zero-page requests", do: read(2, 0), err: boom},
		{name: "ClearFault; failed requests left the head", do: then(func(v tracedDevice) { v.ClearFault() }, read(2, 1)),
			delta:  Stats{Reads: 1, PagesRead: 1},
			events: []TraceEvent{{Start: 2, Pages: 1}}},
		{name: "a nil tracer sees nothing", do: then(func(v tracedDevice) { v.SetTracer(nil) }, read(3, 1)),
			delta: Stats{Reads: 1, PagesRead: 1}},
		{name: "ForceAll is one barrier", do: func(v tracedDevice) error { return v.ForceAll() },
			delta: Stats{Syncs: 1}},
	}

	backends := []struct {
		name  string
		open  func(t *testing.T) tracedDevice
		syncs int64 // Syncs per barrier
	}{
		{"sim", func(t *testing.T) tracedDevice { return testVolume(t, ps, 100) }, 0},
		{"file", func(t *testing.T) tracedDevice { return testFileVolume(t, ps, 100, FileOptions{}) }, 1},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			v := b.open(t)
			var events []TraceEvent
			v.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
			for _, st := range steps {
				if st.reset {
					v.ResetStats()
				}
				before := v.Stats()
				events = events[:0]
				if err := st.do(v); !errors.Is(err, st.err) {
					t.Fatalf("%s: err = %v, want %v", st.name, err, st.err)
				}
				got := v.Stats().Sub(before)
				got.Micros = 0
				want := st.delta
				want.Syncs *= b.syncs
				if got != want {
					t.Errorf("%s: counters moved by %#v, want %#v", st.name, got, want)
				}
				if len(events) != len(st.events) {
					t.Errorf("%s: %d trace events %+v, want %+v", st.name, len(events), events, st.events)
					continue
				}
				for i := range events {
					if events[i] != st.events[i] {
						t.Errorf("%s: event %d = %+v, want %+v", st.name, i, events[i], st.events[i])
					}
				}
			}
		})
	}
}
