package crashtest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

// Config tunes one sweep.
type Config struct {
	Seed     int64
	Workload WorkloadConfig
	// Opts configures the engine for the traced workload and for every
	// recovery.  Geometry below overrides the volume shape.
	Opts      eos.Options
	PageSize  int          // default 512
	DataPages disk.PageNum // default 4096
	LogPages  disk.PageNum // default 1024

	// SubsetEvery samples power-cut subset states at every Nth trace
	// position (0 disables); SubsetSamples is how many per position.
	SubsetEvery   int
	SubsetSamples int
	// TornCap bounds the torn splits sampled per multi-page write
	// (0 = all splits).
	TornCap int

	// FileCheckEvery materializes every Nth distinct state into a real
	// FileVolume pair under FileDir, recovers via eos.OpenAt, and
	// differentially compares against the simulator recovery
	// (0 disables).
	FileCheckEvery int
	FileDir        string
	// ReopenEvery runs the close/reopen idempotence check on every Nth
	// distinct state (0 disables).
	ReopenEvery int
	// RecrashEvery injects a fault mid-recovery on every Nth distinct
	// state, crashes, and requires the subsequent clean recovery to
	// pass all checks (0 disables).
	RecrashEvery int

	// MaxViolations stops the sweep early (default 20).
	MaxViolations int
	Logf          func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.PageSize == 0 {
		c.PageSize = 512
	}
	if c.DataPages == 0 {
		c.DataPages = 4096
	}
	if c.LogPages == 0 {
		c.LogPages = 1024
	}
	if c.MaxViolations == 0 {
		c.MaxViolations = 20
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Violation is one invariant failure at one reconstructed crash state, or
// in the traced workload itself.
type Violation struct {
	P      int    // trace position of the crash, or of the workload's read
	Label  string // which state family produced it (prefix/torn/subset/...), or snapshot-coda
	Kind   string // open / oracle / check / leaks / reopen / recrash / file-diff / snapshot
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("P=%d %s [%s]: %s", v.P, v.Label, v.Kind, v.Detail)
}

// Result summarizes a sweep.
type Result struct {
	Events     int // trace length
	Positions  int // crash positions enumerated
	Candidates int // states considered before deduplication
	States     int // distinct states recovered on the simulator
	FileStates int // states additionally recovered on the file backend
	// ReplaceFollowedStates counts the states whose crash falls while a
	// transaction that followed its own replace with another operation on
	// the object runs, or after it ended and before the next one began —
	// the operation read the replaced bytes from the transaction's held
	// pages; Redone those whose recovery re-executed committed operations
	// the recovered roots did not show — a commit no checkpoint followed.
	ReplaceFollowedStates int
	Redone                int
	// ByRefUnforced and ByRefForced count the states whose crash falls while
	// a directed-prefix transaction's segments, which its records name by
	// reference, are written and not yet forced — from its first operation
	// to its commit's data force —, and once that force is done, until the
	// next data-volume force.
	ByRefUnforced, ByRefForced int
	// FilledStates counts the states whose crash falls behind the commit of
	// a transaction whose append filled its tail and left it pending — its
	// record's by-value bytes span two leaf entries, the closed tail and the
	// new one — and before the next checkpoint's master copy, which ends
	// recovery's need of that record.
	FilledStates int
	// SplitStates counts the states whose crash falls behind the commit of
	// a directed-prefix transaction that split an index node — or pushed
	// its root down into new ones — and before the next checkpoint's master
	// copy: recovery must redo the split from the log.
	SplitStates int
	// LiveAcrossStates counts the states whose crash falls behind the start
	// of a checkpoint that a transaction which had logged was live across,
	// and before the next master copy: recovery redoes that transaction from
	// records on both sides of the checkpoint (liveCoda).
	LiveAcrossStates int
	// ImageStates and MasterStates count the states whose crash falls inside
	// a checkpoint's image write or master-copy write: torn, or issued and
	// not yet forced.
	ImageStates  int
	MasterStates int
	Wraps        int64 // times the traced workload's log went round its volume
	Recrashes    int   // re-crash-during-recovery probes run
	Violations   []Violation
}

type sweeper struct {
	cfg    Config
	oracle *Oracle
	events []Event
	// inImage and inMaster mark the trace positions inside a checkpoint's
	// image write and master-copy write (see windows).
	inImage, inMaster map[int]bool
	// followed holds the trace intervals [from, to) from the first
	// operation of a transaction on an object it replaced before to the
	// next transaction's begin (see traceFollowed).
	followed [][2]int
	// byRef holds, per traceByRef line, its first operation's seq and the
	// seqs its Commit call entered and returned at; unforced and forced
	// are the trace intervals [from, to) they give (see ByRefUnforced).
	byRef            [][3]int
	unforced, forced [][2]int
	// filledAt holds the seqs at which the Commit calls of transactions
	// whose append filled a tail returned, and filled the trace intervals
	// [from, to) they give (see FilledStates).
	filledAt []int
	filled   [][2]int
	// splitAt and split are the same for the commits traceSplit names (see
	// SplitStates).
	splitAt []int
	split   [][2]int
	// liveAt and live are the same for the checkpoints traceLive names (see
	// LiveAcrossStates).
	liveAt []int
	live   [][2]int
	seen   map[uint64]bool
	// pageHash caches per-page fingerprints keyed by the page's backing
	// array, so repeated states hash in O(pages) map lookups.
	pageHashes map[*byte]uint64
	zeroHash   uint64
	res        *Result
}

// Sweep traces the seeded workload, enumerates crash states, recovers
// each, and machine-checks the recovery invariants.
func Sweep(cfg Config) (*Result, error) {
	cfg.defaults()
	sw := &sweeper{
		cfg:        cfg,
		seen:       make(map[uint64]bool),
		pageHashes: make(map[*byte]uint64),
		res:        &Result{},
	}
	sw.zeroHash = hashBytes(make([]byte, cfg.PageSize))

	// Phase 1: trace the workload on the simulator.
	clock := &Clock{}
	dataDev := NewDevice(disk.MustNewVolume(cfg.PageSize, cfg.DataPages, disk.DefaultCostModel()), clock, 0)
	logDev := NewDevice(disk.MustNewVolume(cfg.PageSize, cfg.LogPages, disk.DefaultCostModel()), clock, 1)
	st, err := eos.Format(dataDev, logDev, cfg.Opts)
	if err != nil {
		return nil, fmt.Errorf("format traced store: %w", err)
	}
	wl := cfg.Workload
	if wl.Seed == 0 {
		wl.Seed = cfg.Seed
	}
	wl.Trace = sw.traceFollowed(clock, wl.Trace)
	oracle, err := RunWorkload(st, clock, wl)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	sw.oracle = oracle
	sw.res.Violations = append(sw.res.Violations, oracle.Stale...)
	sw.events = clock.Events()
	sw.res.Events = len(sw.events)
	sw.res.Wraps = st.Stats().WAL.Wraps
	sw.inImage, sw.inMaster = windows(sw.events)
	sw.unforced, sw.forced = byRefWindows(sw.events, sw.byRef)
	sw.filled = untilMaster(sw.events, sw.filledAt)
	sw.split = untilMaster(sw.events, sw.splitAt)
	sw.live = untilMaster(sw.events, sw.liveAt)
	cfg.Logf("trace: %d events, %d commits, P0=%d", len(sw.events), len(oracle.Commits), oracle.P0)

	// Phase 2: replay the trace, emitting crash states at every
	// position.
	models := [2]*volModel{
		newVolModel(cfg.PageSize, cfg.DataPages),
		newVolModel(cfg.PageSize, cfg.LogPages),
	}
	for _, ev := range sw.events[:oracle.P0] {
		models[ev.Dev].apply(ev)
	}
	scratch := [2][][]byte{}
	for p := oracle.P0; ; p++ {
		if len(sw.res.Violations) >= cfg.MaxViolations {
			cfg.Logf("stopping at position %d: violation cap reached", p)
			break
		}
		sw.res.Positions++

		// Family 1: clean prefix — every outstanding write durable.
		sw.candidate(models, chooseNewest, nil, p, "prefix", &scratch)
		// Family 2: total loss — nothing since the last barrier made it.
		sw.candidate(models, chooseBase, nil, p, "lost-epoch", &scratch)
		// Family 3: sampled power-cut subsets.
		if cfg.SubsetEvery > 0 && p%cfg.SubsetEvery == 0 {
			for s := 0; s < cfg.SubsetSamples; s++ {
				rng := rand.New(rand.NewSource(cfg.Seed ^ int64(p)*2654435761 ^ int64(s)<<40))
				sw.candidate(models, chooseRand(rng), nil, p,
					fmt.Sprintf("subset-%d", s), &scratch)
			}
		}
		if p == len(sw.events) {
			break
		}
		// Family 4: torn splits of the next multi-page write.
		ev := sw.events[p]
		if (ev.Kind == KindWrite || ev.Kind == KindWriteRun) && ev.N > 1 {
			for _, k := range tornSplits(ev.N, cfg.TornCap, cfg.Seed^int64(p)) {
				sw.candidate(models, chooseNewest, &torn{ev: ev, k: k}, p,
					fmt.Sprintf("torn-%d/%d", k, ev.N), &scratch)
			}
		}
		models[ev.Dev].apply(ev)
	}
	return sw.res, nil
}

// traceFollowed wraps the workload's trace function next, which may be nil,
// to record in sw.followed where a transaction follows its own replace with
// another operation on the same object — and in sw.byRef, sw.filledAt and
// sw.splitAt the transactions the other classes start from.
func (sw *sweeper) traceFollowed(clock *Clock, next func(string, ...any)) func(string, ...any) {
	replaced := map[string]bool{} // the objects the running transaction replaced
	filled := map[int]bool{}      // the transactions an append of which filled a tail
	split := map[int]bool{}       // the transactions whose commit split an index node
	open := false                 // the last interval runs until the next begin
	return func(format string, args ...any) {
		if next != nil {
			next(format, args...)
		}
		switch format {
		case traceByRef:
			sw.byRef = append(sw.byRef, [3]int{args[0].(int), args[1].(int), args[2].(int)})
		case traceFilled:
			filled[args[0].(int)] = true
		case traceSplit:
			split[args[0].(int)] = true
		case traceLive:
			sw.liveAt = append(sw.liveAt, args[0].(int))
		case traceCommit:
			if filled[args[2].(int)] {
				sw.filledAt = append(sw.filledAt, args[1].(int))
			}
			if split[args[2].(int)] {
				sw.splitAt = append(sw.splitAt, args[1].(int))
			}
		case traceBegin:
			if open {
				sw.followed[len(sw.followed)-1][1] = clock.Seq()
			}
			open = false
			clear(replaced)
		case traceOp:
			kind, obj := args[1].(string), args[2].(string)
			if replaced[obj] && !open {
				sw.followed = append(sw.followed, [2]int{clock.Seq(), math.MaxInt})
				open = true
			}
			if kind == "replace" || kind == "read-replace" {
				replaced[obj] = true
			}
		}
	}
}

// inFollowed reports whether trace position p lies in an interval of
// sw.followed.
func (sw *sweeper) inFollowed(p int) bool { return within(sw.followed, p) }

// within reports whether trace position p lies in one of the intervals.
func within(intervals [][2]int, p int) bool {
	for _, iv := range intervals {
		if iv[0] <= p && p < iv[1] {
			return true
		}
	}
	return false
}

// byRefWindows turns each by-reference transaction — its first operation's
// seq and its Commit call's entry and return — into the positions whose
// crash finds its segments written and not forced: from behind its first
// operation through its commit's data force (a crash at a position comes
// before the event there); and those that find them forced: behind that
// force through the next data-volume force.
func byRefWindows(events []Event, byRef [][3]int) (unforced, forced [][2]int) {
	dataForce := func(from, to int) int {
		for i := from; i < to; i++ {
			if events[i].Dev == 0 && events[i].Kind == KindForceAll {
				return i
			}
		}
		return -1
	}
	for _, t := range byRef {
		f := dataForce(t[1], t[2])
		if f < 0 {
			continue
		}
		unforced = append(unforced, [2]int{t[0] + 1, f + 1})
		next := dataForce(f+1, len(events))
		if next < 0 {
			next = len(events)
		}
		forced = append(forced, [2]int{f + 1, next + 1})
	}
	return unforced, forced
}

// untilMaster turns the seq each commit returned at into the positions
// whose crash finds the commit durable and recovery in need of its record
// (a filled tail still pending, a split node page not yet checkpointed):
// from there through the next master-copy write — a one-page write to data
// page 0 or 1 —, the end of the checkpoint that makes the record moot.
func untilMaster(events []Event, commits []int) [][2]int {
	var out [][2]int
	for _, c := range commits {
		end := len(events)
		for i := c; i < len(events); i++ {
			if ev := events[i]; ev.Dev == 0 && (ev.Kind == KindWrite || ev.Kind == KindWriteRun) && ev.N == 1 && ev.Start < 2 {
				end = i
				break
			}
		}
		out = append(out, [2]int{c, end + 1})
	}
	return out
}

// windows finds each checkpoint's master-copy write — a one-page write to
// data page 0 or 1 — and its image write — the last log write before it —
// and returns the trace positions at which each is issued and not yet
// forced: from the one behind the write through its force.  A torn split of
// the write lies at the write's own position, the window's first minus one.
func windows(events []Event) (inImage, inMaster map[int]bool) {
	inImage, inMaster = map[int]bool{}, map[int]bool{}
	mark := func(in map[int]bool, w int) {
		for p := w + 1; p < len(events); p++ {
			in[p] = true
			if ev := events[p]; ev.Dev == events[w].Dev && (ev.Kind == KindForceAll || ev.Kind == KindForce && ev.Start <= events[w].Start && events[w].Start < ev.Start+disk.PageNum(ev.N)) {
				return
			}
		}
	}
	lastLog := -1
	for i, ev := range events {
		if ev.Kind != KindWrite && ev.Kind != KindWriteRun {
			continue
		}
		if ev.Dev == 1 {
			lastLog = i
		} else if ev.N == 1 && ev.Start < 2 && lastLog >= 0 {
			mark(inMaster, i)
			mark(inImage, lastLog)
		}
	}
	return inImage, inMaster
}

// torn overlays the first k pages of a multi-page write onto a state.
type torn struct {
	ev Event
	k  int
}

// tornSplits picks which torn prefixes of an n-page write to test.
func tornSplits(n, limit int, seed int64) []int {
	if limit <= 0 || n-1 <= limit {
		out := make([]int, 0, n-1)
		for k := 1; k < n; k++ {
			out = append(out, k)
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[int]bool{1: true, n - 1: true}
	for len(seen) < limit {
		seen[1+rng.Intn(n-1)] = true
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// candidate resolves one crash state, dedupes it, and (if new) runs the
// full verification battery on it.
func (sw *sweeper) candidate(models [2]*volModel, choose chooser, tr *torn, p int, label string, scratch *[2][][]byte) {
	sw.res.Candidates++
	for dev := 0; dev < 2; dev++ {
		scratch[dev] = models[dev].resolve(choose, scratch[dev])
	}
	if tr != nil {
		ps := models[tr.ev.Dev].ps
		for i := 0; i < tr.k; i++ {
			scratch[tr.ev.Dev][int(tr.ev.Start)+i] = tr.ev.Data[i*ps : (i+1)*ps]
		}
	}
	h := newStateHash()
	for dev := 0; dev < 2; dev++ {
		for _, page := range scratch[dev] {
			h.h = h.h*1099511628211 ^ sw.hashPage(page)
		}
	}
	key := h.sum()
	if sw.seen[key] {
		return
	}
	sw.seen[key] = true
	sw.res.States++
	if sw.inImage[p] || tr != nil && sw.inImage[tr.ev.Seq+1] {
		sw.res.ImageStates++
	}
	if sw.inMaster[p] {
		sw.res.MasterStates++
	}
	if sw.inFollowed(p) {
		sw.res.ReplaceFollowedStates++
	}
	if within(sw.unforced, p) {
		sw.res.ByRefUnforced++
	}
	if within(sw.forced, p) {
		sw.res.ByRefForced++
	}
	if within(sw.filled, p) {
		sw.res.FilledStates++
	}
	if within(sw.split, p) {
		sw.res.SplitStates++
	}
	if within(sw.live, p) {
		sw.res.LiveAcrossStates++
	}

	dataImg := materialize(scratch[0], sw.cfg.PageSize)
	logImg := materialize(scratch[1], sw.cfg.PageSize)
	got, ok := sw.verifySim(dataImg, logImg, p, label)
	if !ok {
		return
	}
	if sw.cfg.ReopenEvery > 0 && sw.res.States%sw.cfg.ReopenEvery == 0 {
		sw.verifyReopen(dataImg, logImg, got, p, label)
	}
	if sw.cfg.RecrashEvery > 0 && sw.res.States%sw.cfg.RecrashEvery == 0 {
		sw.verifyRecrash(dataImg, logImg, p, label)
	}
	if sw.cfg.FileCheckEvery > 0 && sw.res.States%sw.cfg.FileCheckEvery == 0 {
		sw.verifyFile(dataImg, logImg, got, p, label)
	}
}

func (sw *sweeper) hashPage(page []byte) uint64 {
	if page == nil {
		return sw.zeroHash
	}
	key := &page[0]
	if h, ok := sw.pageHashes[key]; ok {
		return h
	}
	h := hashBytes(page)
	sw.pageHashes[key] = h
	return h
}

func (sw *sweeper) violate(p int, label, kind, format string, args ...any) {
	v := Violation{P: p, Label: label, Kind: kind, Detail: fmt.Sprintf(format, args...)}
	sw.res.Violations = append(sw.res.Violations, v)
	sw.cfg.Logf("VIOLATION %s", v)
}

// openState loads a crash state into fresh simulator volumes.
func (sw *sweeper) openState(dataImg, logImg []byte) (*disk.Volume, *disk.Volume, error) {
	vol := disk.MustNewVolume(sw.cfg.PageSize, sw.cfg.DataPages, disk.DefaultCostModel())
	logVol := disk.MustNewVolume(sw.cfg.PageSize, sw.cfg.LogPages, disk.DefaultCostModel())
	if err := vol.WritePages(0, int(sw.cfg.DataPages), dataImg); err != nil {
		return nil, nil, err
	}
	if err := logVol.WritePages(0, int(sw.cfg.LogPages), logImg); err != nil {
		return nil, nil, err
	}
	if err := vol.ForceAll(); err != nil {
		return nil, nil, err
	}
	if err := logVol.ForceAll(); err != nil {
		return nil, nil, err
	}
	return vol, logVol, nil
}

// verifySim recovers the state on the simulator and checks every
// invariant.  It reports the recovered content map on success.
func (sw *sweeper) verifySim(dataImg, logImg []byte, p int, label string) (map[string]uint64, bool) {
	vol, logVol, err := sw.openState(dataImg, logImg)
	if err != nil {
		sw.violate(p, label, "materialize", "%v", err)
		return nil, false
	}
	st, err := eos.Open(vol, logVol, sw.cfg.Opts)
	if err != nil {
		sw.violate(p, label, "open", "recovery failed: %v", err)
		return nil, false
	}
	rs := st.Stats().Recovery
	if rs.Redone > 0 {
		sw.res.Redone++
	}
	got, err := readAll(st)
	if err != nil {
		sw.violate(p, label, "read", "%v", err)
		return nil, false
	}
	minK, maxK := sw.oracle.Bounds(p)
	if _, ok := sw.oracle.Match(got, minK, maxK); !ok {
		sw.violate(p, label, "oracle",
			"recovered content matches no committed state in k=[%d,%d]: %s",
			minK, maxK, sw.diffDetail(st, maxK))
		return nil, false
	}
	if err := st.Check(); err != nil {
		sw.violate(p, label, "check", "%v", err)
		return nil, false
	}
	if err := st.CheckNoLeaks(); err != nil {
		sw.violate(p, label, "leaks", "%v", err)
		return nil, false
	}
	return got, true
}

// verifyReopen checks recovery idempotence: checkpointing the recovered
// store (Close) and opening it again must reproduce identical content.
func (sw *sweeper) verifyReopen(dataImg, logImg []byte, want map[string]uint64, p int, label string) {
	vol, logVol, err := sw.openState(dataImg, logImg)
	if err != nil {
		sw.violate(p, label, "materialize", "%v", err)
		return
	}
	st, err := eos.Open(vol, logVol, sw.cfg.Opts)
	if err != nil {
		sw.violate(p, label, "reopen", "first recovery failed: %v", err)
		return
	}
	if err := st.Close(); err != nil {
		sw.violate(p, label, "reopen", "close after recovery: %v", err)
		return
	}
	st2, err := eos.Open(vol, logVol, sw.cfg.Opts)
	if err != nil {
		sw.violate(p, label, "reopen", "second recovery failed: %v", err)
		return
	}
	got, err := readAll(st2)
	if err != nil {
		sw.violate(p, label, "reopen", "read after reopen: %v", err)
		return
	}
	if !mapsEqual(got, want) {
		sw.violate(p, label, "reopen", "content changed across reopen: %v != %v", got, want)
		return
	}
	if err := st2.Check(); err != nil {
		sw.violate(p, label, "reopen", "check after reopen: %v", err)
	}
}

var errInjected = errors.New("crashtest: injected fault")

// verifyRecrash interrupts recovery itself with an injected I/O fault,
// crashes the volumes, and requires the subsequent clean recovery to
// satisfy every invariant — recovery must be restartable from any of
// its own crash points.
func (sw *sweeper) verifyRecrash(dataImg, logImg []byte, p int, label string) {
	sw.res.Recrashes++
	vol, logVol, err := sw.openState(dataImg, logImg)
	if err != nil {
		sw.violate(p, label, "materialize", "%v", err)
		return
	}
	rng := rand.New(rand.NewSource(sw.cfg.Seed ^ int64(p)<<20))
	budget := int64(1 + rng.Intn(60))
	vol.FailAfter(budget, errInjected)
	st, err := eos.Open(vol, logVol, sw.cfg.Opts)
	vol.ClearFault()
	if err == nil {
		// Fault budget never hit; the store is open and must be sane.
		if cerr := st.Check(); cerr != nil {
			sw.violate(p, label, "recrash", "check after unfaulted open: %v", cerr)
		}
		return
	}
	if !errors.Is(err, errInjected) {
		sw.violate(p, label, "recrash", "faulted recovery returned foreign error: %v", err)
		return
	}
	if err := vol.Crash(); err != nil {
		sw.violate(p, label, "recrash", "crash: %v", err)
		return
	}
	if err := logVol.Crash(); err != nil {
		sw.violate(p, label, "recrash", "crash log: %v", err)
		return
	}
	st2, err := eos.Open(vol, logVol, sw.cfg.Opts)
	if err != nil {
		sw.violate(p, label, "recrash", "clean recovery after interrupted recovery: %v", err)
		return
	}
	got, err := readAll(st2)
	if err != nil {
		sw.violate(p, label, "recrash", "read: %v", err)
		return
	}
	minK, maxK := sw.oracle.Bounds(p)
	if _, ok := sw.oracle.Match(got, minK, maxK); !ok {
		sw.violate(p, label, "recrash",
			"content after interrupted+clean recovery matches no committed state in k=[%d,%d]: got %v",
			minK, maxK, got)
		return
	}
	if err := st2.Check(); err != nil {
		sw.violate(p, label, "recrash", "check: %v", err)
	}
	if err := st2.CheckNoLeaks(); err != nil {
		sw.violate(p, label, "recrash", "leaks: %v", err)
	}
}

// verifyFile materializes the state into real page files, recovers with
// eos.OpenAt, and differentially compares against the simulator
// recovery of the same state.
func (sw *sweeper) verifyFile(dataImg, logImg []byte, want map[string]uint64, p int, label string) {
	dir := sw.cfg.FileDir
	if dir == "" {
		sw.violate(p, label, "file-diff", "FileCheckEvery set without FileDir")
		return
	}
	sw.res.FileStates++
	write := func(name string, pages disk.PageNum, img []byte) error {
		path := filepath.Join(dir, name)
		_ = os.Remove(path)
		fv, err := disk.CreateFileVolume(path, sw.cfg.PageSize, pages, disk.FileOptions{})
		if err != nil {
			return err
		}
		if err := fv.WritePages(0, int(pages), img); err != nil {
			_ = fv.Close()
			return err
		}
		if err := fv.ForceAll(); err != nil {
			_ = fv.Close()
			return err
		}
		return fv.Close()
	}
	if err := write("data.eos", sw.cfg.DataPages, dataImg); err != nil {
		sw.violate(p, label, "file-diff", "materialize data: %v", err)
		return
	}
	if err := write("log.eos", sw.cfg.LogPages, logImg); err != nil {
		sw.violate(p, label, "file-diff", "materialize log: %v", err)
		return
	}
	st, err := eos.OpenAt(dir, sw.cfg.Opts)
	if err != nil {
		sw.violate(p, label, "file-diff", "OpenAt recovery failed: %v", err)
		return
	}
	defer func() {
		if st != nil {
			_ = st.Close()
		}
	}()
	got, err := readAll(st)
	if err != nil {
		sw.violate(p, label, "file-diff", "read: %v", err)
		return
	}
	if !mapsEqual(got, want) {
		sw.violate(p, label, "file-diff",
			"file backend recovered %v, simulator recovered %v", got, want)
		return
	}
	if err := st.Check(); err != nil {
		sw.violate(p, label, "file-diff", "check: %v", err)
		return
	}
	if err := st.Close(); err != nil {
		sw.violate(p, label, "file-diff", "close: %v", err)
	}
	st = nil
}

// diffDetail explains an oracle mismatch against the newest candidate
// state: per-object size differences and the first differing byte.
func (sw *sweeper) diffDetail(st *eos.Store, maxK int) string {
	if maxK == 0 {
		return fmt.Sprintf("recovered objects %v, want empty store", st.List())
	}
	want := sw.oracle.Commits[maxK-1].Contents
	var out []string
	seen := map[string]bool{}
	for _, name := range st.List() {
		seen[name] = true
		o, err := st.Open(name)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: open: %v", name, err))
			continue
		}
		var got []byte
		if sz := o.Size(); sz > 0 {
			if got, err = o.Read(0, sz); err != nil {
				out = append(out, fmt.Sprintf("%s: read: %v", name, err))
				continue
			}
		}
		w, ok := want[name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: unexpected (len %d)", name, len(got)))
		case len(got) != len(w):
			out = append(out, fmt.Sprintf("%s: len %d want %d", name, len(got), len(w)))
		default:
			for i := range got {
				if got[i] != w[i] {
					end := i + 8
					if end > len(got) {
						end = len(got)
					}
					out = append(out, fmt.Sprintf("%s: first diff at byte %d/%d: got %x want %x",
						name, i, len(got), got[i:end], w[i:end]))
					break
				}
			}
		}
	}
	for name := range want {
		if !seen[name] {
			out = append(out, fmt.Sprintf("%s: missing (want len %d)", name, len(want[name])))
		}
	}
	if len(out) == 0 {
		return fmt.Sprintf("identical to k=%d yet hash mismatch?!", maxK)
	}
	return fmt.Sprintf("vs k=%d: %v", maxK, out)
}

// readAll hashes every object in the store.
func readAll(st *eos.Store) (map[string]uint64, error) {
	out := map[string]uint64{}
	for _, name := range st.List() {
		o, err := st.Open(name)
		if err != nil {
			return nil, fmt.Errorf("open %q: %w", name, err)
		}
		var b []byte
		if sz := o.Size(); sz > 0 {
			if b, err = o.Read(0, sz); err != nil {
				return nil, fmt.Errorf("read %q: %w", name, err)
			}
		}
		out[name] = hashBytes(b)
	}
	return out, nil
}
