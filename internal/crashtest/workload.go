package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/eosdb/eos"
)

// Commit is one oracle mark: a transaction whose Commit call entered at
// BeginSeq and returned at RetSeq, leaving the committed store content
// described by State (object name -> content hash).
//
// Both Commit and CommitNoForce force the log before returning, so for
// a crash at trace position P:
//
//   - every commit with RetSeq <= P is durably in the log (its commit
//     record was covered by a returned force) and MUST be visible;
//   - a commit with BeginSeq > P cannot have written its commit record
//     yet and MUST be invisible;
//   - in between, visibility depends on which unforced log pages the
//     power cut preserved.
type Commit struct {
	BeginSeq int
	RetSeq   int
	State    map[string]uint64
	// Sizes mirrors State with object lengths, for violation diagnostics.
	Sizes map[string]int
	// Contents is the full committed content, kept for byte-level
	// violation diagnostics.
	Contents map[string][]byte
}

// Oracle is the ground truth the sweep validates recovered states
// against.
type Oracle struct {
	// P0 is the trace position at which the freshly formatted store was
	// durable; crash states before it are not meaningful.
	P0 int
	// Commits holds one mark per successful commit, in commit order.
	Commits []Commit
}

// StateAt returns the committed content after k commits (k = 0 is the
// empty, freshly formatted store).
func (o *Oracle) StateAt(k int) map[string]uint64 {
	if k == 0 {
		return map[string]uint64{}
	}
	return o.Commits[k-1].State
}

// Bounds reports the inclusive range of commit counts a crash at trace
// position p may legally recover to.
func (o *Oracle) Bounds(p int) (minK, maxK int) {
	for _, c := range o.Commits {
		if c.RetSeq <= p {
			minK++
		}
		if c.BeginSeq <= p {
			maxK++
		}
	}
	return minK, maxK
}

// Match finds the commit count k in [minK, maxK] whose oracle state
// equals got.
func (o *Oracle) Match(got map[string]uint64, minK, maxK int) (int, bool) {
	for k := minK; k <= maxK; k++ {
		if mapsEqual(got, o.StateAt(k)) {
			return k, true
		}
	}
	return 0, false
}

func mapsEqual(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// Trace formats of the workload's events.  A Trace function can tell
// them apart by comparing the format it is handed.
const (
	traceBegin  = "seq %d: txn %d begins"
	traceOp     = "        txn %d: %s on %s (len was %d)"
	traceFill   = "        txn %d: the append on %s continued its tail in place"
	traceCommit = "seq %d-%d: txn %d committed (force=%v)"
	traceAbort  = "seq %d: txn %d aborted"
)

// errStaleRead fails the workload: a transaction's read did not return
// the bytes the transaction itself had written.
var errStaleRead = errors.New("crashtest: transaction read does not see its own writes")

// loserTxn is the number the trace gives the transaction left in flight.
const loserTxn = -1

// WorkloadConfig tunes the seeded churn the sweep traces.
type WorkloadConfig struct {
	// Trace, when set, receives a line per workload action with the
	// clock position, for debugging sweep violations.
	Trace       func(format string, args ...any)
	Seed        int64
	Txns        int // committed-or-aborted transactions to attempt
	Objects     int // object-name pool size (default 6)
	MaxWrite    int // max bytes per mutating op (default 1200)
	MaxObjBytes int // soft per-object size cap (default 48 KiB)
	CheckEvery  int // checkpoint every N transactions (default 10)
	// NoLoser skips the trailing uncommitted transaction (used by the
	// model-validation test, which needs the live store to hold exactly
	// the committed state).
	NoLoser bool
}

func (c *WorkloadConfig) defaults() {
	if c.Objects == 0 {
		c.Objects = 6
	}
	if c.MaxWrite == 0 {
		c.MaxWrite = 1200
	}
	if c.MaxObjBytes == 0 {
		c.MaxObjBytes = 48 << 10
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 10
	}
}

// RunWorkload drives the mixed churn against st (built over traced
// devices sharing clock) and returns the oracle.  It deliberately ends
// with an uncommitted transaction still in flight, so the trace tail
// exercises in-flight undo; the store is NOT closed.
func RunWorkload(st *eos.Store, clock *Clock, cfg WorkloadConfig) (*Oracle, error) {
	cfg.defaults()
	if cfg.Trace == nil {
		cfg.Trace = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	oracle := &Oracle{P0: clock.Seq()}
	model := map[string][]byte{} // committed content

	for i := 0; i < cfg.Txns; i++ {
		if i > 0 && i%cfg.CheckEvery == 0 {
			if err := st.Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint before txn %d: %w", i, err)
			}
		}
		tx, err := st.Begin()
		if err != nil {
			return nil, fmt.Errorf("begin txn %d: %w", i, err)
		}
		cfg.Trace(traceBegin, clock.Seq(), i)
		staged := map[string]*[]byte{} // nil pointer = destroyed in this txn
		nOps := 1 + rng.Intn(3)
		opErr := error(nil)
		prev := ""
		for j := 0; j < nOps && opErr == nil; j++ {
			prev, opErr = randomOp(st, tx, i, prev, rng, cfg, model, staged)
		}
		if errors.Is(opErr, errStaleRead) {
			_ = tx.Abort() // the stale read is the error to report
			return nil, opErr
		}
		if opErr != nil {
			// Space or log pressure: abort, checkpoint to drain, go on.
			if aerr := tx.Abort(); aerr != nil {
				return nil, fmt.Errorf("abort after op error %w: %w", opErr, aerr)
			}
			if cerr := st.Checkpoint(); cerr != nil {
				return nil, fmt.Errorf("checkpoint after aborted txn %d: %w", i, cerr)
			}
			continue
		}
		switch {
		case rng.Intn(10) == 0: // voluntary abort
			if err := tx.Abort(); err != nil {
				return nil, fmt.Errorf("abort txn %d: %w", i, err)
			}
			cfg.Trace(traceAbort, clock.Seq(), i)
		default:
			force := rng.Intn(100) < 70
			beginSeq := clock.Seq()
			if force {
				err = tx.Commit()
			} else {
				err = tx.CommitNoForce()
			}
			if err != nil {
				return nil, fmt.Errorf("commit txn %d: %w", i, err)
			}
			retSeq := clock.Seq()
			cfg.Trace(traceCommit, beginSeq, retSeq, i, force)
			applyStaged(model, staged)
			sizes := make(map[string]int, len(model))
			for n, c := range model {
				sizes[n] = len(c)
			}
			contents := make(map[string][]byte, len(model))
			for n, c := range model {
				contents[n] = append([]byte{}, c...)
			}
			oracle.Commits = append(oracle.Commits, Commit{
				BeginSeq: beginSeq,
				RetSeq:   retSeq,
				State:    snapshotHashes(model),
				Sizes:    sizes,
				Contents: contents,
			})
		}
	}

	if cfg.NoLoser {
		return oracle, nil
	}
	// Leave a loser in flight: its records sit in the log tail and its
	// in-place replaces may be partially durable — recovery must erase
	// every trace of it.
	//eoslint:ignore pairs -- the loser is deliberately left open: the sweep crashes with it in flight so recovery must erase it
	loser, err := st.Begin()
	if err != nil {
		return nil, fmt.Errorf("begin loser: %w", err)
	}
	staged := map[string]*[]byte{}
	prev := ""
	for j := 0; j < 2; j++ {
		if prev, err = randomOp(st, loser, loserTxn, prev, rng, cfg, model, staged); err != nil {
			break // pressure errors are fine here; the point is open records
		}
	}
	// Then, each on a committed object it has not touched yet:
	//   - it continues an open tail in place, so that its bytes sit in the
	//     slack of a page the durable root names when the checkpoint below
	//     forces the volume;
	//   - it cuts a tail and appends: whatever that append writes must stay
	//     clear of the bytes it cut, which the durable root still names;
	//   - it destroys an object: the checkpoint must not journal a
	//     tombstone for it.
	script := []func(name string) (bool, error){
		func(name string) (bool, error) {
			if !hasOpenTail(st, name) {
				return false, nil
			}
			return true, appendOp(st, loser, loserTxn, name, model[name], randBytes(rng, 1+rng.Intn(64)), cfg, staged)
		},
		func(name string) (bool, error) {
			if len(model[name]) < 2 {
				return false, nil
			}
			cfg.Trace(traceOp, loserTxn, "truncate", name, len(model[name]))
			cut := model[name][:len(model[name])/2]
			if err := loser.Truncate(name, int64(len(cut))); err != nil {
				return true, err
			}
			return true, appendOp(st, loser, loserTxn, name, cut, randBytes(rng, 1+rng.Intn(cfg.MaxWrite)), cfg, staged)
		},
		func(name string) (bool, error) {
			cfg.Trace(traceOp, loserTxn, "destroy", name, len(model[name]))
			return true, loser.Destroy(name)
		},
	}
	for _, step := range script {
		for _, name := range sortedNames(model) {
			if _, touched := staged[name]; touched {
				continue
			}
			done, err := step(name)
			if err != nil {
				return nil, fmt.Errorf("loser's scripted operation on %s: %w", name, err)
			}
			if done {
				if _, ok := staged[name]; !ok {
					staged[name] = nil
				}
				break
			}
		}
	}
	// Push the loser's dirty pages toward the device without committing:
	// a soft checkpoint forces data while the transaction stays open.
	if err := st.Checkpoint(); err != nil {
		return nil, fmt.Errorf("soft checkpoint with loser in flight: %w", err)
	}
	return oracle, nil
}

// randomOp performs one operation on tx, keeping model/staged
// bookkeeping in sync, and returns the object it picked.  Half the time
// that is prev, the object of the transaction's previous operation, so
// that sequences on one object — a replace followed by a read, by a
// structural operation, or by nothing but the commit or abort — are
// common.  Two kinds are themselves sequences: a read and a replace of the
// same range, the read-modify-write whose replace is planned on the
// read's page images; and a truncate with an append behind the cut, which
// must not land on the bytes just cut.  Errors are returned for the caller
// to abort on.
func randomOp(st *eos.Store, tx *eos.Txn, txn int, prev string, rng *rand.Rand, cfg WorkloadConfig, model map[string][]byte, staged map[string]*[]byte) (string, error) {
	name := fmt.Sprintf("o%d", rng.Intn(cfg.Objects))
	if prev != "" && rng.Intn(2) == 0 {
		name = prev
	}
	cur, exists := stagedValue(model, staged, name)

	if !exists {
		if err := tx.Create(name, 0); err != nil {
			return name, err
		}
		v := []byte{}
		staged[name] = &v
		cur = v
		// fall through to also write into the fresh object
	}

	data := func(n int) []byte { return randBytes(rng, n) }

	roll := rng.Intn(100)
	big := len(cur) >= cfg.MaxObjBytes
	trace := func(kind string) { cfg.Trace(traceOp, txn, kind, name, len(cur)) }
	switch {
	case roll < 6 && exists: // destroy
		trace("destroy")
		if err := tx.Destroy(name); err != nil {
			return name, err
		}
		staged[name] = nil
	case roll < 34 && !big: // append
		if err := appendOp(st, tx, txn, name, cur, data(1+rng.Intn(cfg.MaxWrite)), cfg, staged); err != nil {
			return name, err
		}
	case roll < 47 && !big: // insert
		trace("insert")
		off := int64(0)
		if len(cur) > 0 {
			off = int64(rng.Intn(len(cur) + 1))
		}
		d := data(1 + rng.Intn(cfg.MaxWrite))
		if err := tx.Insert(name, off, d); err != nil {
			return name, err
		}
		nv := make([]byte, 0, len(cur)+len(d))
		nv = append(nv, cur[:off]...)
		nv = append(nv, d...)
		nv = append(nv, cur[off:]...)
		staged[name] = &nv
	case roll < 60 && len(cur) > 0: // delete a range
		trace("delete")
		off := int64(rng.Intn(len(cur)))
		n := int64(1 + rng.Intn(len(cur)-int(off)))
		if err := tx.Delete(name, off, n); err != nil {
			return name, err
		}
		nv := append(append([]byte{}, cur[:off]...), cur[off+n:]...)
		staged[name] = &nv
	case roll < 82 && len(cur) > 0: // replace in place, one time in three right behind a read of the same range
		readFirst := roll >= 74
		if readFirst {
			trace("read-replace")
		} else {
			trace("replace")
		}
		off := int64(rng.Intn(len(cur)))
		max := len(cur) - int(off)
		if max > cfg.MaxWrite {
			max = cfg.MaxWrite
		}
		d := data(1 + rng.Intn(max))
		if readFirst {
			got, err := tx.Read(name, off, int64(len(d)))
			if err != nil {
				return name, err
			}
			if !bytes.Equal(got, cur[off:off+int64(len(d))]) {
				return name, fmt.Errorf("%w: txn %d, %s [%d,%d)", errStaleRead, txn, name, off, off+int64(len(d)))
			}
		}
		if err := tx.Replace(name, off, d); err != nil {
			return name, err
		}
		nv := append([]byte{}, cur...)
		copy(nv[off:], d)
		staged[name] = &nv
	case roll < 92 && len(cur) > 0: // read back through the transaction
		trace("read")
		off := int64(rng.Intn(len(cur)))
		n := int64(1 + rng.Intn(len(cur)-int(off)))
		got, err := tx.Read(name, off, n)
		if err != nil {
			return name, err
		}
		if !bytes.Equal(got, cur[off:off+n]) {
			return name, fmt.Errorf("%w: txn %d, %s [%d,%d)", errStaleRead, txn, name, off, off+n)
		}
	case len(cur) > 0: // truncate, one time in two with an append right behind the cut
		trace("truncate")
		newSize := int64(rng.Intn(len(cur)))
		if err := tx.Truncate(name, newSize); err != nil {
			return name, err
		}
		nv := append([]byte{}, cur[:newSize]...)
		staged[name] = &nv
		if roll%2 == 0 && !big {
			if err := appendOp(st, tx, txn, name, nv, data(1+rng.Intn(cfg.MaxWrite)), cfg, staged); err != nil {
				return name, err
			}
		}
	default: // empty object: append something small
		if err := appendOp(st, tx, txn, name, cur, data(1+rng.Intn(64)), cfg, staged); err != nil {
			return name, err
		}
	}
	return name, nil
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// appendOp appends d to name, whose content in tx is cur, and tells the
// trace when the append made no new segment: it went on in the tail the
// append before it had left open.
func appendOp(st *eos.Store, tx *eos.Txn, txn int, name string, cur, d []byte, cfg WorkloadConfig, staged map[string]*[]byte) error {
	cfg.Trace(traceOp, txn, "append", name, len(cur))
	before, _ := layout(st, name)
	if err := tx.Append(name, d); err != nil {
		return err
	}
	if after, _ := layout(st, name); before > 0 && after == before {
		cfg.Trace(traceFill, txn, name)
	}
	nv := append(append([]byte{}, cur...), d...)
	staged[name] = &nv
	return nil
}

// layout is name's segment count and the allocated bytes of its segments
// that hold no data; zeros when they cannot be had.
func layout(st *eos.Store, name string) (segments int, unused int64) {
	o, err := st.Open(name)
	if err != nil {
		return 0, 0
	}
	u, err := o.Usage()
	if err != nil {
		return 0, 0
	}
	return u.SegmentCount, u.WastedBytes
}

// hasOpenTail reports whether name's last segment has whole pages of room
// behind its bytes: a plain append left it open.
func hasOpenTail(st *eos.Store, name string) bool {
	_, unused := layout(st, name)
	return unused >= int64(st.PageSize())
}

func sortedNames(model map[string][]byte) []string {
	names := make([]string, 0, len(model))
	for n := range model {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// stagedValue reads name through the transaction's staging overlay.
func stagedValue(model map[string][]byte, staged map[string]*[]byte, name string) ([]byte, bool) {
	if v, ok := staged[name]; ok {
		if v == nil {
			return nil, false
		}
		return *v, true
	}
	v, ok := model[name]
	return v, ok
}

func applyStaged(model map[string][]byte, staged map[string]*[]byte) {
	for name, v := range staged {
		if v == nil {
			delete(model, name)
		} else {
			model[name] = *v
		}
	}
}

func snapshotHashes(model map[string][]byte) map[string]uint64 {
	out := make(map[string]uint64, len(model))
	for name, content := range model {
		out[name] = hashBytes(content)
	}
	return out
}
