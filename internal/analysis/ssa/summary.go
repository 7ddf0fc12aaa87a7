package ssa

// The interprocedural half every whole-program pass shares: per-function
// summaries solved bottom-up over the call-graph condensation, and a
// callee's summary looked up in this package or imported as a fact from
// the package that declares it.

import (
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// Solve computes per-function summaries bottom-up: component by component
// in SCCs order (callees first), it calls init on every member, then runs
// each update over the members, one update after the other, until a round
// of that update changes nothing.  An update reports whether it changed
// its function's summary; each must only move a summary one way through
// a finite lattice, so every round terminates.
func (pr *Program) Solve(init func(*Func), updates ...func(*Func) bool) {
	for _, scc := range pr.SCCs {
		for _, f := range scc {
			init(f)
		}
		for _, update := range updates {
			for changed := true; changed; {
				changed = false
				for _, f := range scc {
					if update(f) {
						changed = true
					}
				}
			}
		}
	}
}

// Summary returns callee's summary: local's entry when callee is declared
// in this package (still converging while Solve is in callee's
// component), else the fact callee's package exported, else nil.
func Summary[F any, PF interface {
	*F
	analysis.Fact
}](pr *Program, local map[*Func]PF, callee *types.Func) PF {
	if f, ok := pr.ByObj[callee]; ok {
		return local[f]
	}
	fact := PF(new(F))
	if pr.Pass.ImportObjectFact(callee, fact) {
		return fact
	}
	return nil
}

// MaxChain bounds the call chains summaries record for diagnostics.
const MaxChain = 8

// Chain returns head followed by rest, cut to MaxChain entries.
func Chain(head string, rest []string) []string {
	out := append([]string{head}, rest...)
	if len(out) > MaxChain {
		out = out[:MaxChain]
	}
	return out
}
