// Package lockorder defines an Analyzer that enforces the storage
// engine's documented latch acquisition order.
//
// The engine's locks form a lattice, acquired strictly downward:
//
//	rank 10  Store.mu           (store manager: catalog, txn table)
//	rank 15  LockTable.mu       (transaction lock manager)
//	rank 20  catEntry.latch     (per-object RW latch)
//	rank 25  catEntry.inPlace   (one in-place read-modify-write under the shared latch)
//	rank 30  Txn.wmu            (transaction write set)
//	rank 30  deferredAlloc.mu   (transaction deferred-free list)
//	rank 33  EpochManager.mu    (epoch bookkeeping; leaf-like)
//	rank 35  Manager.mu         (buddy superdirectory latch)
//	rank 38  Pool.flushMu       (buffer pool whole-pool write-back)
//	rank 40  shard.mu           (buffer pool shard)
//	rank 45  Log.forceMu        (group-commit leader force)
//	rank 50  Log.mu             (write-ahead log buffer + tail state)
//	rank 56  Dispatcher.mu      (async I/O close gate)
//	rank 57  Batch.mu           (per-submitter completion state)
//	rank 60  Volume.mu          (disk volume image)
//	rank 62  FileVolume.mu      (file backend crash-shadow map)
//	rank 70  Volume.accMu       (disk access-time accounting)
//	rank 72  FileVolume.accMu   (file backend accounting + fault state)
//
// Acquiring a lock whose rank is lower than one already held inverts
// the lattice; two goroutines taking the same pair in opposite orders
// deadlock under load, and such hangs reproduce only under the exact
// interleaving that the paper's §4.5 concurrency tests rarely hit.
// The check is intraprocedural and flow-approximate: within one
// function, Lock/RLock calls on ranked locks are tracked in source
// order against Unlock/RUnlock (a deferred unlock holds to function
// exit), and any acquisition that goes upward is reported.
//
// The -order flag extends or overrides the lattice with
// "Type.field=rank" entries, comma-separated.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"github.com/eosdb/eos/internal/analysis/ignore"
	"github.com/eosdb/eos/internal/analysis/ssa"
)

const doc = `check that latches are acquired in the documented lattice order

Locks rank manager → lock-table → object → txn → pool-shard → wal →
disk.  Taking a lower-ranked lock while holding a higher-ranked one is
an inversion: the opposite nesting exists somewhere else in the engine,
and the pair deadlocks under concurrent load.`

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "lockorder",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer, ignore.Analyzer},
	Run:      run,
}

// defaultOrder is the engine's lattice, keyed by "Type.field" of the
// mutex field.  Matching is by type and field name (not import path)
// so the analysistest fixtures can declare stand-in types.  The table
// is owned by the ssa facility so the intraprocedural check here and
// the whole-program deadlock pass can never disagree about a rank.
var defaultOrder = ssa.LockRanks()

// rankName labels the lattice levels for diagnostics.
func rankName(r int) string {
	switch {
	case r < 15:
		return "manager"
	case r < 20:
		return "lock-table"
	case r < 30:
		return "object"
	case r < 40:
		return "txn"
	case r < 50:
		return "pool-shard"
	case r < 60:
		return "wal"
	default:
		return "disk"
	}
}

var orderFlag string

func init() {
	Analyzer.Flags.StringVar(&orderFlag, "order", "",
		`extra lattice entries, comma-separated "Type.field=rank"`)
}

func run(pass *analysis.Pass) (interface{}, error) {
	order := make(map[string]int, len(defaultOrder))
	for k, v := range defaultOrder {
		order[k] = v
	}
	if orderFlag != "" {
		for _, ent := range strings.Split(orderFlag, ",") {
			kv := strings.SplitN(strings.TrimSpace(ent), "=", 2)
			if len(kv) != 2 {
				return nil, fmt.Errorf("lockorder: bad -order entry %q", ent)
			}
			r, err := strconv.Atoi(kv[1])
			if err != nil {
				return nil, fmt.Errorf("lockorder: bad -order rank %q", kv[1])
			}
			order[kv[0]] = r
		}
	}

	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ig := ignore.For(pass)
	nodeFilter := []ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}
	insp.Preorder(nodeFilter, func(n ast.Node) {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			checkFunc(pass, ig, order, body)
		}
	})
	return nil, nil
}

// held is one currently held lock.
type held struct {
	key    string
	rank   int
	sticky bool // deferred unlock: held to function exit
}

// checkFunc walks body in source order, maintaining the held-lock set.
// Nested function literals are handled by their own visit (a closure
// may run on another goroutine, where the enclosing lock set does not
// apply).
func checkFunc(pass *analysis.Pass, ig *ignore.Reporter, order map[string]int, body *ast.BlockStmt) {
	var stack []held
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if key, method, ok := lockEvent(pass, order, n.Call); ok {
				switch method {
				case "Unlock", "RUnlock":
					for i := range stack {
						if stack[i].key == key && !stack[i].sticky {
							stack[i].sticky = true
							break
						}
					}
				}
			}
			return false
		case *ast.CallExpr:
			key, method, ok := lockEvent(pass, order, n)
			if !ok {
				return true
			}
			rank := order[key]
			switch method {
			case "Lock", "RLock":
				for _, h := range stack {
					if h.rank > rank {
						ig.Report(n.Pos(),
							"lock order inversion: acquiring %s (rank %d, %s) while holding %s (rank %d, %s); the lattice order is manager → lock-table → object → txn → pool-shard → wal → disk",
							key, rank, rankName(rank), h.key, h.rank, rankName(h.rank))
						break
					}
				}
				stack = append(stack, held{key: key, rank: rank})
			case "Unlock", "RUnlock":
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i].key == key && !stack[i].sticky {
						stack = append(stack[:i], stack[i+1:]...)
						break
					}
				}
			}
		}
		return true
	})
}

// lockEvent classifies call as a Lock/RLock/Unlock/RUnlock on a ranked
// mutex field, returning the lattice key and method name.
func lockEvent(pass *analysis.Pass, order map[string]int, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	method := sel.Sel.Name
	switch method {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	// The receiver must itself be a field selector: owner.field.Lock().
	fieldSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	selection, ok := pass.TypesInfo.Selections[fieldSel]
	if !ok {
		return "", "", false
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || !field.IsField() {
		return "", "", false
	}
	owner := ownerTypeName(selection.Recv())
	if owner == "" {
		return "", "", false
	}
	key := owner + "." + field.Name()
	if _, ranked := order[key]; !ranked {
		return "", "", false
	}
	return key, method, true
}

// ownerTypeName returns the name of the named struct type that t
// denotes (unwrapping pointers), or "".
func ownerTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
