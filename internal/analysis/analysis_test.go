package analysis_test

import (
	"strings"
	"testing"

	eosanalysis "github.com/eosdb/eos/internal/analysis"
)

// TestRegistry checks the suite is wired coherently: unique names,
// documented, runnable, and one registry entry per analyzer package.
func TestRegistry(t *testing.T) {
	as := eosanalysis.Analyzers()
	if len(as) != 10 {
		t.Fatalf("Analyzers() returned %d analyzers, want 10", len(as))
	}
	seen := make(map[string]bool)
	for _, a := range as {
		if a.Name == "" || seen[a.Name] {
			t.Errorf("analyzer name %q is empty or duplicated", a.Name)
		}
		seen[a.Name] = true
		if a.Run == nil {
			t.Errorf("%s: nil Run", a.Name)
		}
		if !strings.Contains(a.Doc, "\n") {
			t.Errorf("%s: Doc should have a summary line and a body", a.Name)
		}
	}
	for _, name := range []string{
		"pairs", "lockorder", "atomicfield", "walfirst", "errwrap",
		"useafterunpin", "guardedby", "forcedom", "racecheck",
		"unusedignore",
	} {
		if !seen[name] {
			t.Errorf("registry is missing %s", name)
		}
	}
}
