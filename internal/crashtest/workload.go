package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/lob"
	"github.com/eosdb/eos/internal/wal"
)

// Commit is one oracle mark: a transaction whose Commit call entered at
// BeginSeq and returned at RetSeq, leaving the committed store content
// described by State (object name -> content hash).
//
// Commit forces the log before returning (and nothing else: only
// checkpoints force the data volume), so for a crash at trace
// position P:
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
	// Stale holds the reads of an open snapshot that did not return what
	// it captured (snapshotCoda); the sweep reports each as a violation.
	Stale []Violation
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
	traceBehind = "        txn %d: the append on %s left its pages pending"
	// traceFilled: the append filled the room of name's open tail and put
	// the rest in a new tail, and wrote neither: its record carries its bytes
	// by value across the two leaf entries.
	traceFilled = "        txn %d: the append on %s filled its tail and left it pending"
	// traceReplaced: the commit of txn left its replaces' pages pending.
	traceReplaced = "        txn %d: the commit left its replaced pages pending"
	// traceSplit: the commit of txn grew name's index, from the first count
	// of node pages to the second: a node split, or the root pushed down.
	traceSplit = "        txn %d: the commit grew %s's index from %d to %d node pages"
	// traceByRef: txn's first operation entered at the first seq, its
	// Commit call at the second and returned at the third; its records name
	// segments it wrote through, which its commit forced.
	traceByRef  = "seq %d-%d-%d: txn %d committed segments it wrote through"
	traceCommit = "seq %d-%d: txn %d committed"
	// traceLive: a checkpoint begins at seq while txn has logged and not
	// ended.
	traceLive  = "seq %d: txn %d is live across a checkpoint"
	traceAbort = "seq %d: txn %d aborted"
)

// errStaleRead fails the workload: a transaction's read did not return
// the bytes the transaction itself had written.
var errStaleRead = errors.New("crashtest: transaction read does not see its own writes")

// loserTxn is the number the trace gives the transaction left in flight.
const loserTxn = -1

// The directed prefix: appendTxns transactions, each appending to every one
// of prefixObjects, then replaceTxns that read and replace a range of each
// before they append, then byRefTxns that insert into the middle of each and
// append more than its tail holds — segments written through, which their
// records name by reference —, committed with no checkpoint between them.
// Then, behind a checkpoint, splitTxns transactions build splitObject, at
// threshold 1, of splitPages pages in one segment, and insert one page at
// every other page boundary of it, right to left, splitInserts a
// transaction: each insert splits the segment it lands in into three — the
// pages to its left, the inserted page with the one it lands on, and the
// page behind them.  With 512-byte pages (50 entries a node) the 25th
// insert pushes the root down over two nodes, and the 38th splits the left
// one, which takes every insert behind the push-down.
const (
	appendTxns   = 6
	replaceTxns  = 10
	byRefTxns    = 2
	splitTxns    = 7
	splitInserts = 6
	splitPages   = 2*splitTxns*splitInserts + 2
)

var prefixObjects = []string{"w0", "w1", "w2", "w3"}

const splitObject = "w4"

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
// exercises a loser recovery must leave no trace of; the store is NOT
// closed.
func RunWorkload(st *eos.Store, clock *Clock, cfg WorkloadConfig) (*Oracle, error) {
	cfg.defaults()
	if cfg.Trace == nil {
		cfg.Trace = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	oracle := &Oracle{P0: clock.Seq()}
	model := map[string][]byte{} // committed content
	if err := directedPrefix(st, clock, cfg, oracle, model); err != nil {
		return nil, err
	}

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
			beginSeq := clock.Seq()
			err := tx.Commit()
			if errors.Is(err, wal.ErrLogFull) {
				// The log has no room for the roots the commit would hand
				// the next checkpoint: the commit is refused, nothing of it
				// logged, and the transaction is left to abort — log
				// pressure like an operation's.
				if aerr := tx.Abort(); aerr != nil {
					return nil, fmt.Errorf("abort after refused commit of txn %d: %w", i, aerr)
				}
				if cerr := st.Checkpoint(); cerr != nil {
					return nil, fmt.Errorf("checkpoint after refused commit of txn %d: %w", i, cerr)
				}
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("commit txn %d: %w", i, err)
			}
			oracle.mark(cfg, beginSeq, clock.Seq(), i, model, staged)
		}
	}

	if cfg.NoLoser {
		return oracle, nil
	}
	// Leave a loser in flight: its records sit in the log tail and the
	// pages its structural operations wrote may be durable — recovery must
	// erase every trace of it.
	//eoslint:ignore pairs -- the loser is deliberately left open: the sweep crashes with it in flight so recovery must erase it
	loser, err := st.Begin()
	if err != nil {
		return nil, fmt.Errorf("begin loser: %w", err)
	}
	cfg.Trace(traceBegin, clock.Seq(), loserTxn)
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
	if err := snapshotCoda(st, clock, cfg, oracle, model); err != nil {
		return oracle, err
	}
	return oracle, liveCoda(st, clock, cfg, oracle, model)
}

// snapshotCoda keeps a snapshot of splitObject open across two checkpoints
// while transactions insert into the object, and then reads it back.  The
// first insert leaves the index pages it shadowed in dirty frames, and the
// root the snapshot captures names them; each later insert shadows them
// again.  Those pages must wait for the snapshot in the reclamation queue,
// frames and all, whatever the checkpoints flush and release.  A read that
// differs from what the snapshot captured goes to oracle.Stale.  It runs
// last, beside the loser, so that the states before it are the workload's
// without it.
func snapshotCoda(st *eos.Store, clock *Clock, cfg WorkloadConfig, oracle *Oracle, model map[string][]byte) error {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5a4e))
	ps := st.PageSize()
	insert := func(i int) error {
		txn := -2 - appendTxns - replaceTxns - byRefTxns - splitTxns - i
		tx, err := st.Begin()
		if err != nil {
			return fmt.Errorf("begin snapshot coda txn %d: %w", i, err)
		}
		cfg.Trace(traceBegin, clock.Seq(), txn)
		staged := map[string]*[]byte{}
		if _, err := insertOp(tx, txn, splitObject, model[splitObject], 2*ps, randBytes(rng, ps), cfg, staged); err != nil {
			_ = tx.Abort() // the insert's error is the one to report
			return fmt.Errorf("snapshot coda txn %d: %w", i, err)
		}
		beginSeq := clock.Seq()
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("commit snapshot coda txn %d: %w", i, err)
		}
		oracle.mark(cfg, beginSeq, clock.Seq(), txn, model, staged)
		return nil
	}
	if err := insert(0); err != nil {
		return err
	}
	captured := model[splitObject]
	sn, err := st.OpenSnapshot(splitObject)
	if err != nil {
		return err
	}
	defer sn.Close()
	for i := 1; i <= 2; i++ {
		if err := insert(i); err != nil {
			return err
		}
		if err := st.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint %d under the snapshot: %w", i, err)
		}
	}
	got := make([]byte, len(captured))
	if _, err := sn.ReadAt(got, 0); err != nil || !bytes.Equal(got, captured) {
		oracle.Stale = append(oracle.Stale, Violation{P: clock.Seq(), Label: "snapshot-coda", Kind: "snapshot",
			Detail: fmt.Sprintf("a snapshot of %s held across two checkpoints read %d bytes unlike those it captured (%v)", splitObject, diffBytes(got, captured), err)})
	}
	return nil
}

// liveCoda is the directed prefix of the class "a transaction live across
// a checkpoint".  It runs behind the snapshot coda, beside the loser, which
// holds the log's start: no checkpoint here can move it, so one takes an
// image only to release what the reclamation queue holds.  One transaction
// inserts into splitObject and stays live across two checkpoints: the first
// releases the snapshot coda's runs, the second has nothing to release and
// takes no image, so recovery starts from the first one's master copy and
// redoes every commit since.  The transaction commits; the next inserts
// behind it, and a last checkpoint logs an image for their frees.
func liveCoda(st *eos.Store, clock *Clock, cfg WorkloadConfig, oracle *Oracle, model map[string][]byte) error {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x11fe))
	ps := st.PageSize()
	for i := 0; i < 2; i++ {
		txn := -5 - appendTxns - replaceTxns - byRefTxns - splitTxns - i
		tx, err := st.Begin()
		if err != nil {
			return fmt.Errorf("begin live coda txn %d: %w", i, err)
		}
		cfg.Trace(traceBegin, clock.Seq(), txn)
		staged := map[string]*[]byte{}
		cur := model[splitObject]
		for j := 0; j < 3; j++ {
			if cur, err = insertOp(tx, txn, splitObject, cur, rng.Intn(len(cur)/ps)*ps, randBytes(rng, ps), cfg, staged); err != nil {
				_ = tx.Abort() // the insert's error is the one to report
				return fmt.Errorf("live coda txn %d: %w", i, err)
			}
		}
		if i == 0 {
			err = st.Checkpoint()
			cfg.Trace(traceLive, clock.Seq(), txn)
			if err == nil {
				err = st.Checkpoint()
			}
			if err != nil {
				_ = tx.Abort() // the checkpoint's error is the one to report
				return fmt.Errorf("checkpoint beside live coda txn %d: %w", i, err)
			}
		}
		beginSeq := clock.Seq()
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("commit live coda txn %d: %w", i, err)
		}
		oracle.mark(cfg, beginSeq, clock.Seq(), txn, model, staged)
	}
	if err := st.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint behind the live coda: %w", err)
	}
	return nil
}

// diffBytes counts the positions where a and b differ, of the shorter's.
func diffBytes(a, b []byte) int {
	n := 0
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// directedPrefix runs transactions that commit plain appends, the next ones
// behind a read and a replace of the same range (commit_small's
// transaction), the last ones an insert and an append that write segments
// through, and no checkpoint between them.  Every crash inside it finds
// committed bytes that live only in the log — appended and replaced pages
// pending in memory, a filled tail among them, its append's bytes by value
// across two leaf entries —; recovery must redo them from the log alone.  And
// it finds
// segments a record names by reference written and not yet forced, or
// forced behind a commit that only the log holds.  Behind a checkpoint, its
// last transactions split an index node (splitPrefix).  Its objects' names
// sort behind the random workload's, whose operations and loser never pick
// them.
func directedPrefix(st *eos.Store, clock *Clock, cfg WorkloadConfig, oracle *Oracle, model map[string][]byte) error {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7a11))
	for i := 0; i < appendTxns+replaceTxns+byRefTxns; i++ {
		txn := -2 - i // the trace numbers the prefix's transactions below the loser's
		byRef := i >= appendTxns+replaceTxns
		tx, err := st.Begin()
		if err != nil {
			return fmt.Errorf("begin prefix txn %d: %w", i, err)
		}
		cfg.Trace(traceBegin, clock.Seq(), txn)
		opSeq := clock.Seq()
		staged := map[string]*[]byte{}
		for _, name := range prefixObjects {
			cur, exists := stagedValue(model, staged, name)
			if !exists {
				err = tx.Create(name, 0)
			}
			if err == nil && i >= appendTxns && !byRef {
				cur, err = readReplaceOp(tx, txn, name, cur, rng, cfg, staged)
			}
			n := 100 + rng.Intn(300)
			if err == nil && byRef {
				cur, err = insertOp(tx, txn, name, cur, len(cur)/2, randBytes(rng, 600), cfg, staged)
				n = 3000 // more than the open tail holds: a new segment, written through
			}
			if err == nil {
				err = appendOp(st, tx, txn, name, cur, randBytes(rng, n), cfg, staged)
			}
			if err != nil {
				_ = tx.Abort() // the append's error is the one to report
				return fmt.Errorf("prefix txn %d on %s: %w", i, name, err)
			}
		}
		beginSeq := clock.Seq()
		replaced := st.Stats().LOB.ReplacedPages
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("commit prefix txn %d: %w", i, err)
		}
		if st.Stats().LOB.ReplacedPages > replaced {
			cfg.Trace(traceReplaced, txn)
		}
		if byRef {
			cfg.Trace(traceByRef, opSeq, beginSeq, clock.Seq(), txn)
		}
		oracle.mark(cfg, beginSeq, clock.Seq(), txn, model, staged)
	}
	return splitPrefix(st, clock, cfg, oracle, model, rng)
}

// splitPrefix runs the directed prefix's splitTxns transactions on
// splitObject and traces each commit that grew the object's index.  Its
// checkpoint leaves the wrapping log room for them.
func splitPrefix(st *eos.Store, clock *Clock, cfg WorkloadConfig, oracle *Oracle, model map[string][]byte, rng *rand.Rand) error {
	if err := st.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint before the split txns: %w", err)
	}
	ps := st.PageSize()
	page := splitPages // the last insert went in front of this page of the first segment
	for i := 0; i < splitTxns; i++ {
		txn := -2 - appendTxns - replaceTxns - byRefTxns - i
		tx, err := st.Begin()
		if err != nil {
			return fmt.Errorf("begin split txn %d: %w", i, err)
		}
		cfg.Trace(traceBegin, clock.Seq(), txn)
		staged := map[string]*[]byte{}
		cur, exists := model[splitObject]
		if !exists {
			err = tx.Create(splitObject, 1)
			if err == nil {
				cur, err = insertOp(tx, txn, splitObject, cur, 0, randBytes(rng, splitPages*ps), cfg, staged)
			}
		}
		indexBefore := usage(st, splitObject).IndexPages
		for n := 0; err == nil && n < splitInserts; n++ {
			page -= 2
			cur, err = insertOp(tx, txn, splitObject, cur, page*ps, randBytes(rng, ps), cfg, staged)
		}
		if err != nil {
			_ = tx.Abort() // the insert's error is the one to report
			return fmt.Errorf("split txn %d: %w", i, err)
		}
		beginSeq := clock.Seq()
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("commit split txn %d: %w", i, err)
		}
		if after := usage(st, splitObject).IndexPages; after > indexBefore {
			cfg.Trace(traceSplit, txn, splitObject, indexBefore, after)
		}
		oracle.mark(cfg, beginSeq, clock.Seq(), txn, model, staged)
	}
	return nil
}

// insertOp inserts d at byte off of name, whose content in tx is cur, and
// returns the new content.
func insertOp(tx *eos.Txn, txn int, name string, cur []byte, off int, d []byte, cfg WorkloadConfig, staged map[string]*[]byte) ([]byte, error) {
	cfg.Trace(traceOp, txn, "insert", name, len(cur))
	if err := tx.Insert(name, int64(off), d); err != nil {
		return nil, err
	}
	nv := append(append(append([]byte{}, cur[:off]...), d...), cur[off:]...)
	staged[name] = &nv
	return nv, nil
}

// readReplaceOp reads a range of name, whose content in tx is cur, checks
// it, and replaces it with fresh bytes; it returns the new content.
func readReplaceOp(tx *eos.Txn, txn int, name string, cur []byte, rng *rand.Rand, cfg WorkloadConfig, staged map[string]*[]byte) ([]byte, error) {
	n := 1 + rng.Intn(min(len(cur), 200))
	off := rng.Intn(len(cur) - n + 1)
	cfg.Trace(traceOp, txn, "read-replace", name, len(cur))
	got, err := tx.Read(name, int64(off), int64(n))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, cur[off:off+n]) {
		return nil, errStaleRead
	}
	d := randBytes(rng, n)
	if err := tx.Replace(name, int64(off), d); err != nil {
		return nil, err
	}
	nv := append([]byte{}, cur...)
	copy(nv[off:], d)
	staged[name] = &nv
	return nv, nil
}

// mark records the commit of transaction txn, whose Commit call entered at
// beginSeq and returned at retSeq with the changes staged holds, in the
// model and as the oracle's next commit.
func (o *Oracle) mark(cfg WorkloadConfig, beginSeq, retSeq, txn int, model map[string][]byte, staged map[string]*[]byte) {
	cfg.Trace(traceCommit, beginSeq, retSeq, txn)
	applyStaged(model, staged)
	sizes := make(map[string]int, len(model))
	for n, c := range model {
		sizes[n] = len(c)
	}
	contents := make(map[string][]byte, len(model))
	for n, c := range model {
		contents[n] = append([]byte{}, c...)
	}
	o.Commits = append(o.Commits, Commit{
		BeginSeq: beginSeq,
		RetSeq:   retSeq,
		State:    snapshotHashes(model),
		Sizes:    sizes,
		Contents: contents,
	})
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
// trace when the append made no new segment — it went on in the tail the
// append before it had left open — and when it wrote nothing: its pages are
// pending.
func appendOp(st *eos.Store, tx *eos.Txn, txn int, name string, cur, d []byte, cfg WorkloadConfig, staged map[string]*[]byte) error {
	cfg.Trace(traceOp, txn, "append", name, len(cur))
	before := usage(st, name).SegmentCount
	open := hasOpenTail(st, name)
	writes := st.Volume().Stats().Writes
	if err := tx.Append(name, d); err != nil {
		return err
	}
	after := usage(st, name).SegmentCount
	if before > 0 && after == before {
		cfg.Trace(traceFill, txn, name)
	}
	if st.Volume().Stats().Writes == writes {
		cfg.Trace(traceBehind, txn, name)
		if open && after == before+1 {
			cfg.Trace(traceFilled, txn, name)
		}
	}
	nv := append(append([]byte{}, cur...), d...)
	staged[name] = &nv
	return nil
}

// usage is name's storage footprint; zero when it cannot be had.
func usage(st *eos.Store, name string) lob.UsageInfo {
	o, err := st.Open(name)
	if err != nil {
		return lob.UsageInfo{}
	}
	u, err := o.Usage()
	if err != nil {
		return lob.UsageInfo{}
	}
	return u
}

// hasOpenTail reports whether name's last segment has whole pages of room
// behind its bytes: a plain append left it open.
func hasOpenTail(st *eos.Store, name string) bool {
	return usage(st, name).WastedBytes >= int64(st.PageSize())
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
