// Package lockorder defines the Analyzer that enforces the storage
// engine's documented latch acquisition order, within a function and
// across any chain of calls.
//
// The engine's locks form a lattice, acquired strictly downward (the
// table is ssa.LockRanks):
//
//	rank 5   Store.ckptMu       (one checkpoint at a time)
//	rank 10  Store.mu           (store manager: catalog, txn table)
//	rank 15  LockTable.mu       (transaction lock manager)
//	rank 20  catEntry.latch     (per-object RW latch)
//	rank 30  Pending.mu         (the write-behind set: pending pages and their writes)
//	rank 30  deferredAlloc.mu   (transaction deferred-free list; a leaf)
//	rank 33  EpochManager.mu    (reader epochs and the reclamation queue; drops pool frames under it)
//	rank 35  Manager.mu         (buddy superdirectory latch)
//	rank 38  Space.mu           (one buddy space: directory visits, counters, scan hint)
//	rank 40  Pool.mu            (buffer pool: frames, LRU list, write-back)
//	rank 45  Log.forceMu        (group-commit leader force)
//	rank 50  Log.mu             (write-ahead log buffer + tail state)
//	rank 60  Volume.mu          (disk volume image)
//	rank 62  FileVolume.mu      (file backend crash-shadow map)
//	rank 70  account.mu         (both volumes' accounting core: counters, faults, tracer)
//
// Acquiring a lock whose rank is lower than one already held inverts
// the lattice; two goroutines taking the same pair in opposite orders
// deadlock under load, and such hangs reproduce only under the exact
// interleaving that the paper's §4.5 concurrency tests rarely hit.
//
// The analyzer computes per-function lock summaries bottom-up over the
// ssa call graph:
//
//   - Acquires(f): every ranked lock f may acquire, directly or
//     through any chain of callees (static, CHA-resolved interface,
//     and cross-package calls via exported LockFact object facts),
//     each with a representative call chain for the diagnostic.
//
//   - The locks each point of a function may hold come from a forward
//     may-hold dataflow: Lock/RLock adds, Unlock/RUnlock removes, a
//     deferred unlock holds the lock to function exit, and joins take
//     the union over incoming paths, iterated to a fixed point.  A lock
//     held on any one path into a point counts as held there.
//
//   - A direct acquisition ranked below a held lock is an inversion.  A
//     call whose callee transitively acquires a lock ranked below a
//     held one is an interprocedural inversion, and a re-acquisition of
//     a held singleton engine lock (Store.mu, Log.mu, ...) through a
//     call is a guaranteed self-deadlock — Go mutexes are not
//     reentrant.
//
//   - Every held-then-acquired pair also becomes an edge in a global
//     lock graph, merged across packages through a package fact; a
//     cycle among same-rank locks (which the rank check alone admits)
//     is reported with the full edge list.
//
// Per-instance locks (catEntry.latch, deferredAlloc.mu) are exempt from
// the self-deadlock check: two instances of the same field (the source
// and destination latches of a copy) may legitimately nest, and
// summaries track lock identity by lattice key, not by instance.
// Function literals are not analyzed (a goroutine body is its own
// acquisition context, and the ssa IR does not model closures), and
// dynamic calls that resolve to nothing (func values) are ignored — the
// conservative direction for a linter that must stay quiet on clean
// code.
package lockorder

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"github.com/eosdb/eos/internal/analysis/ignore"
	"github.com/eosdb/eos/internal/analysis/ssa"
)

const doc = `check that latches are acquired in the lattice order, across calls (whole-program)

Locks rank manager → lock-table → object → txn → pool → wal → disk.
Taking a lower-ranked lock while holding a higher-ranked one —
directly, or in any function reachable from the call site — is an
inversion: the opposite nesting exists somewhere else in the engine,
and the pair deadlocks under concurrent load.  A lock held on any path
into a point counts as held there.  Re-acquiring a held singleton
engine lock through any call chain self-deadlocks immediately
(sync.Mutex is not reentrant), and opposite-order nesting of same-rank
locks forms a cycle the rank lattice cannot see.  Summaries propagate
across packages via analysis facts.`

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       doc,
	Requires:  []*analysis.Analyzer{ssa.Analyzer, ignore.Analyzer},
	Run:       run,
	FactTypes: []analysis.Fact{new(LockFact), new(GraphFact)},
}

// lattice is the order diagnostics quote.
const lattice = "the lattice order is manager → lock-table → object → txn → pool → wal → disk"

// Acq is one transitive lock acquisition of a function.
type Acq struct {
	Key    string   // lattice key ("Store.mu")
	Rank   int      // lattice rank
	Shared bool     // RLock rather than Lock
	Via    []string // call chain below the summarized function; empty = acquired directly
	Pos    string   // "file:line" of the Lock call itself
}

// LockFact is the exported per-function summary: every ranked lock the
// function may acquire, directly or transitively.
type LockFact struct {
	Acquires []Acq
}

// AFact marks LockFact as an analysis fact.
func (*LockFact) AFact() {}

func (f *LockFact) String() string {
	keys := make([]string, len(f.Acquires))
	for i, a := range f.Acquires {
		keys[i] = a.Key
	}
	return "acquires(" + strings.Join(keys, ",") + ")"
}

// Edge is one held→acquired ordering observed somewhere in the
// program.
type Edge struct {
	From, To         string
	FromRank, ToRank int
	Fn               string   // label of the function holding From
	Via              []string // call chain when the acquisition is in a callee
	Pos              string   // "file:line" of the acquisition or call site
}

// GraphFact is the exported package-level lock graph: this package's
// edges merged with every imported package's graph, so the root
// package of a build sees the whole program's orderings.
type GraphFact struct {
	Edges []Edge
}

// AFact marks GraphFact as an analysis fact.
func (*GraphFact) AFact() {}

func (f *GraphFact) String() string { return fmt.Sprintf("lockgraph(%d edges)", len(f.Edges)) }

// singletonKeys are the lattice keys whose owner exists once per
// store: re-acquiring one of these while it is held is a guaranteed
// self-deadlock.  Per-instance locks (object latches, per-transaction
// mutexes) may nest across instances and are excluded.  So is Pool.mu:
// the pool's pin wait drops and retakes it inside its caller's hold,
// which a summary cannot tell from a re-acquisition.
var singletonKeys = map[string]bool{
	"Store.ckptMu":    true,
	"Store.mu":        true,
	"Pending.mu":      true,
	"LockTable.mu":    true,
	"EpochManager.mu": true,
	"Manager.mu":      true,
	"Log.forceMu":     true,
	"Log.mu":          true,
	"Volume.mu":       true,
	"FileVolume.mu":   true,
	"account.mu":      true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	pr := pass.ResultOf[ssa.Analyzer].(*ssa.Program)
	ig := ignore.For(pass)

	c := &checker{pass: pass, pr: pr, ig: ig, summaries: make(map[*ssa.Func]*LockFact)}
	pr.Solve(func(f *ssa.Func) { c.summaries[f] = &LockFact{} }, c.updateSummary)
	for _, f := range pr.Funcs {
		c.checkFunc(f)
	}
	c.exportFacts()
	c.checkCycles()
	return nil, nil
}

type checker struct {
	pass      *analysis.Pass
	pr        *ssa.Program
	ig        *ignore.Reporter
	summaries map[*ssa.Func]*LockFact
	edges     []Edge      // edges discovered in this package
	edgePos   []token.Pos // parallel: local position for reporting
	merged    *GraphFact  // this package's edges merged with imports'
}

// updateSummary recomputes f's summary from its instructions and its
// callees' current summaries, reporting whether it grew.  The sets grow
// toward the finite lattice key set, so Solve terminates.
func (c *checker) updateSummary(f *ssa.Func) bool {
	sum := c.summaries[f]
	have := make(map[string]bool, len(sum.Acquires))
	for _, a := range sum.Acquires {
		have[a.Key] = true
	}
	grew := false
	add := func(a Acq) {
		if have[a.Key] {
			return
		}
		have[a.Key] = true
		sum.Acquires = append(sum.Acquires, a)
		grew = true
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Kind == ssa.KLock {
				add(Acq{Key: in.LockKey, Rank: in.LockRank, Shared: in.Shared,
					Pos: c.posString(in.Call.Pos())})
				continue
			}
			for _, callee := range in.Callees {
				for _, a := range c.calleeAcquires(callee) {
					via := ssa.Chain(ssa.FuncLabel(c.pass.Pkg, callee), a.Via)
					add(Acq{Key: a.Key, Rank: a.Rank, Shared: a.Shared, Via: via, Pos: a.Pos})
				}
			}
		}
	}
	return grew
}

// calleeAcquires returns the Acquires of callee's summary.
func (c *checker) calleeAcquires(callee *types.Func) []Acq {
	if sum := ssa.Summary(c.pr, c.summaries, callee); sum != nil {
		return sum.Acquires
	}
	return nil
}

// held is one lock some path may hold.
type held struct {
	key    string
	rank   int
	shared bool
	sticky bool // deferred unlock: held to function exit
}

// heldSet is the may-hold state at one point: each lock some incoming
// path holds, with how many instances (capped, so the lattice is
// finite).
type heldSet map[held]int

const maxInstances = 2

// join folds o into s (pointwise maximum), reporting whether s grew.
func (s heldSet) join(o heldSet) bool {
	grew := false
	for h, n := range o {
		if n > s[h] {
			s[h] = n
			grew = true
		}
	}
	return grew
}

// sorted lists the held locks in lattice order, for deterministic
// reports and edges.
func (s heldSet) sorted() []held {
	out := make([]held, 0, len(s))
	for h := range s {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		if a.key != b.key {
			return a.key < b.key
		}
		return !a.shared && b.shared || a.shared == b.shared && !a.sticky && b.sticky
	})
	return out
}

// checkFunc runs the may-hold dataflow over f to a fixed point, then
// replays each reachable block once from its converged entry state,
// checking acquisitions and call sites and recording lock-graph edges.
func (c *checker) checkFunc(f *ssa.Func) {
	if f.Entry == nil {
		return
	}
	in := make([]heldSet, len(f.Blocks))
	in[f.Entry.Index] = heldSet{}
	work := []*ssa.Block{f.Entry}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		out := c.transfer(f, b, in[b.Index], nil)
		for _, s := range b.Succs {
			first := in[s.Index] == nil
			if first {
				in[s.Index] = heldSet{}
			}
			if in[s.Index].join(out) || first {
				work = append(work, s)
			}
		}
	}
	// Reported (call site, lock key) pairs, to report each once even
	// when several CHA candidates trip it.
	reported := make(map[string]bool)
	for _, b := range f.Blocks {
		if in[b.Index] != nil {
			c.transfer(f, b, in[b.Index], reported)
		}
	}
}

// transfer applies b's lock events to a copy of entry and returns the
// exit state.  With reported non-nil it also checks and records every
// acquisition and call site against the state at that point.
func (c *checker) transfer(f *ssa.Func, b *ssa.Block, entry heldSet, reported map[string]bool) heldSet {
	st := make(heldSet, len(entry))
	st.join(entry)
	for i := range b.Instrs {
		in := &b.Instrs[i]
		switch in.Kind {
		case ssa.KLock:
			acq := Acq{Key: in.LockKey, Rank: in.LockRank, Shared: in.Shared}
			if reported != nil {
				hs := st.sorted()
				for _, h := range hs {
					c.addEdge(h, acq, f, nil, in.Call.Pos())
				}
				if len(hs) > 0 && hs[len(hs)-1].rank > acq.Rank {
					h := hs[len(hs)-1]
					c.ig.Report(in.Call.Pos(),
						"lock order inversion: acquiring %s (rank %d, %s) while holding %s (rank %d, %s); %s",
						acq.Key, acq.Rank, ssa.RankName(acq.Rank), h.key, h.rank, ssa.RankName(h.rank), lattice)
				}
			}
			h := held{key: in.LockKey, rank: in.LockRank, shared: in.Shared, sticky: in.Deferred}
			if st[h] < maxInstances {
				st[h]++
			}
		case ssa.KUnlock:
			h := held{key: in.LockKey, rank: in.LockRank, shared: in.Shared}
			if st[h] == 0 {
				break
			}
			if st[h]--; st[h] == 0 {
				delete(st, h)
			}
			if in.Deferred {
				h.sticky = true
				if st[h] < maxInstances {
					st[h]++
				}
			}
		default:
			if reported == nil || len(st) == 0 {
				continue
			}
			hs := st.sorted()
			for _, callee := range in.Callees {
				label := ssa.FuncLabel(c.pass.Pkg, callee)
				for _, a := range c.calleeAcquires(callee) {
					chain := append([]string{label}, a.Via...)
					for _, h := range hs {
						c.addEdge(h, a, f, chain, in.Call.Pos())
						c.checkPair(f, h, a, chain, in.Call.Pos(), reported)
					}
				}
			}
		}
	}
	return st
}

// checkPair reports an interprocedural inversion or singleton
// self-deadlock for one held lock against one transitive acquisition.
func (c *checker) checkPair(f *ssa.Func, h held, a Acq, chain []string, pos token.Pos, reported map[string]bool) {
	key := fmt.Sprintf("%d|%s|%s", pos, h.key, a.Key)
	if reported[key] {
		return
	}
	switch {
	case a.Rank < h.rank:
		reported[key] = true
		c.ig.Report(pos,
			"interprocedural lock order inversion: call chain %s acquires %s (rank %d, %s) at %s while %s holds %s (rank %d, %s); %s",
			strings.Join(chain, " → "), a.Key, a.Rank, ssa.RankName(a.Rank), a.Pos,
			ssa.FuncLabel(c.pass.Pkg, f.Obj), h.key, h.rank, ssa.RankName(h.rank), lattice)
	case a.Key == h.key && singletonKeys[a.Key] && !(h.shared && a.Shared):
		reported[key] = true
		c.ig.Report(pos,
			"self-deadlock: call chain %s re-acquires %s at %s while %s already holds it; engine mutexes are not reentrant",
			strings.Join(chain, " → "), a.Key, a.Pos, ssa.FuncLabel(c.pass.Pkg, f.Obj))
	}
}

// addEdge records one held→acquired ordering for the global lock
// graph.  Self-edges carry no ordering information and are dropped.
func (c *checker) addEdge(h held, a Acq, f *ssa.Func, via []string, pos token.Pos) {
	if h.key == a.Key {
		return
	}
	c.edges = append(c.edges, Edge{
		From: h.key, To: a.Key,
		FromRank: h.rank, ToRank: a.Rank,
		Fn:  ssa.FuncLabel(c.pass.Pkg, f.Obj),
		Via: via,
		Pos: c.posString(pos),
	})
	c.edgePos = append(c.edgePos, pos)
}

// exportFacts publishes each function's summary and the package's
// merged lock graph.
func (c *checker) exportFacts() {
	for f, sum := range c.summaries {
		if len(sum.Acquires) == 0 {
			continue
		}
		sort.Slice(sum.Acquires, func(i, j int) bool { return sum.Acquires[i].Key < sum.Acquires[j].Key })
		c.pass.ExportObjectFact(f.Obj, sum)
	}
	merged := &GraphFact{}
	seen := make(map[string]bool)
	addAll := func(edges []Edge) {
		for _, e := range edges {
			k := e.From + "→" + e.To + "@" + e.Pos
			if seen[k] {
				continue
			}
			seen[k] = true
			merged.Edges = append(merged.Edges, e)
		}
	}
	addAll(c.edges)
	for _, imp := range c.pass.Pkg.Imports() {
		var g GraphFact
		if c.pass.ImportPackageFact(imp, &g) {
			addAll(g.Edges)
		}
	}
	c.pass.ExportPackageFact(merged)
	c.merged = merged
}

// checkCycles looks for cycles among same-rank edges of the merged
// graph.  Rank-inverting orderings are already diagnosed pairwise; a
// same-rank cycle (Pending.mu → deferredAlloc.mu somewhere, the reverse
// elsewhere) is the case the lattice admits silently.
func (c *checker) checkCycles() {
	adj := make(map[string][]int)
	for i, e := range c.merged.Edges {
		if e.FromRank != e.ToRank {
			continue
		}
		adj[e.From] = append(adj[e.From], i)
	}
	// For every local same-rank edge, search for a path back from its
	// target to its source through same-rank edges: a cycle.
	reportedCycle := make(map[string]bool)
	for i, e := range c.edges {
		if e.FromRank != e.ToRank {
			continue
		}
		if path := c.findPath(adj, e.To, e.From, 8); path != nil {
			cycleKey := cycleID(append([]Edge{e}, path...))
			if reportedCycle[cycleKey] {
				continue
			}
			reportedCycle[cycleKey] = true
			var legs []string
			legs = append(legs, fmt.Sprintf("%s → %s (%s, %s)", e.From, e.To, e.Fn, e.Pos))
			for _, pe := range path {
				legs = append(legs, fmt.Sprintf("%s → %s (%s, %s)", pe.From, pe.To, pe.Fn, pe.Pos))
			}
			c.ig.Report(c.edgePos[i],
				"deadlock cycle among same-rank locks: %s; two goroutines taking these in opposite orders hang",
				strings.Join(legs, "; "))
		}
	}
}

// findPath searches the same-rank edge graph for a path from src to
// dst (bounded depth), returning the edge list.
func (c *checker) findPath(adj map[string][]int, src, dst string, depth int) []Edge {
	if depth == 0 {
		return nil
	}
	for _, i := range adj[src] {
		e := c.merged.Edges[i]
		if e.To == dst {
			return []Edge{e}
		}
		if rest := c.findPath(adj, e.To, dst, depth-1); rest != nil {
			return append([]Edge{e}, rest...)
		}
	}
	return nil
}

// cycleID canonicalizes a cycle's identity independent of the starting
// edge.
func cycleID(edges []Edge) string {
	keys := make([]string, len(edges))
	for i, e := range edges {
		keys[i] = e.From + "→" + e.To
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

func (c *checker) posString(pos token.Pos) string {
	p := c.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", trimPath(p.Filename), p.Line)
}

// trimPath keeps the last two path segments: enough to identify the
// file, stable across checkouts.
func trimPath(file string) string {
	parts := strings.Split(file, "/")
	if len(parts) <= 2 {
		return file
	}
	return strings.Join(parts[len(parts)-2:], "/")
}
