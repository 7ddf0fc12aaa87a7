package ignore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	tests := []struct {
		text   string
		ok     bool
		names  []string
		reason string
	}{
		{"//eoslint:ignore pairs -- pin handed to caller", true, []string{"pairs"}, "pin handed to caller"},
		{"// eoslint:ignore pairs -- leading space form", true, []string{"pairs"}, "leading space form"},
		{"//eoslint:ignore pairs,guardedby -- two analyzers", true, []string{"pairs", "guardedby"}, "two analyzers"},
		{"//eoslint:ignore all -- everything", true, []string{"all"}, "everything"},
		{"//eoslint:ignore pairs", true, []string{"pairs"}, ""},
		{"//eoslint:ignore  pairs ,  guardedby  --  spaced  ", true, []string{"pairs", "guardedby"}, "spaced"},
		{"//eoslint:ignore", true, nil, ""},
		{"//eoslint:ignore -- reason with no names", true, nil, "reason with no names"},
		{"//eoslint:ignore pairs -- a -- b", true, []string{"pairs"}, "a -- b"},
		{"// just a comment", false, nil, ""},
		{"//eoslint:ignored pairs -- not a directive (prefix must end at the name)", false, nil, ""},
	}
	for _, tt := range tests {
		d, ok := parse(tt.text)
		if ok != tt.ok {
			t.Errorf("parse(%q) ok = %v, want %v", tt.text, ok, tt.ok)
			continue
		}
		if !ok {
			continue
		}
		if len(d.Names) != len(tt.names) || (len(d.Names) > 0 && !reflect.DeepEqual(d.Names, tt.names)) {
			t.Errorf("parse(%q) names = %q, want %q", tt.text, d.Names, tt.names)
		}
		if d.Reason != tt.reason {
			t.Errorf("parse(%q) reason = %q, want %q", tt.text, d.Reason, tt.reason)
		}
	}
}

// TestDocCommentSpan checks that a directive in a function's doc
// comment covers the whole body, and that line directives cover only
// their own and the following line.
func TestDocCommentSpan(t *testing.T) {
	src := `package p

//eoslint:ignore pairs -- whole function is exempt
func f() {
	x := 1
	_ = x
}

func g() {
	//eoslint:ignore guardedby -- just the next line
	y := 2
	_ = y
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	l := parseFiles(fset, []*ast.File{f})
	if n := len(l.All()); n != 2 {
		t.Fatalf("parsed %d directives, want 2", n)
	}
	fDecl := f.Decls[0].(*ast.FuncDecl)
	gDecl := f.Decls[1].(*ast.FuncDecl)
	// A position inside f's body matches pairs.
	if _, ok := l.match(fDecl.Body.List[0].Pos(), "pairs"); !ok {
		t.Errorf("doc-comment directive does not cover function body")
	}
	// The span directive does not cover g.
	if _, ok := l.match(gDecl.Body.List[0].Pos(), "pairs"); ok {
		t.Errorf("doc-comment directive leaked into the next function")
	}
	if len(l.Unused()) != 1 { // guardedby line directive never matched
		t.Errorf("Unused() = %d directives, want 1", len(l.Unused()))
	}
}

// FuzzParse feeds arbitrary comment text to the directive parser: it
// must never panic, and any parse that succeeds must satisfy the
// directive grammar's basic shape (trimmed, non-empty names; reason
// only after a "--").
func FuzzParse(f *testing.F) {
	seeds := []string{
		"//eoslint:ignore pairs -- reason",
		"// eoslint:ignore pairs,guardedby,useafterunpin -- multi list",
		"//eoslint:ignore lockorder -- interprocedural pass name",
		"//eoslint:ignore walfirst,leaksip -- whole-program pair",
		"//eoslint:ignore lockorder,walfirst,leaksip -- full ssa suite",
		"//eoslint:ignore forcedom -- crash-ordering dominance pass name",
		"//eoslint:ignore racecheck -- lockset pass name",
		"//eoslint:ignore forcedom,racecheck -- v4 whole-program pair",
		"//eoslint:ignore leaksip -- writeNode only allocates when passed page 0",
		"//eoslint:ignore all",
		"//eoslint:ignore -- reason only",
		"//eoslint:ignore ,,,",
		"//eoslint:ignore pairs --",
		"//eoslint:ignore pairs -- -- double",
		"//eoslint:ignore\tpairs\t--\ttabs",
		"//eoslint:ignore p\x00q -- NUL in name",
		"//eoslint:ignore \xff\xfe -- invalid utf8",
		"//not a directive at all",
		"//eoslint:ignorepairs -- missing separator",
		"/*eoslint:ignore pairs -- block comment*/",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, ok := parse(text)
		if !ok {
			if d != nil {
				t.Fatalf("parse(%q) returned non-nil directive with ok=false", text)
			}
			return
		}
		for _, n := range d.Names {
			if n == "" {
				t.Fatalf("parse(%q) produced an empty analyzer name", text)
			}
			if n != "" && (n[0] == ' ' || n[len(n)-1] == ' ') {
				t.Fatalf("parse(%q) produced untrimmed name %q", text, n)
			}
		}
		if d.Reason != "" && len(d.Reason) != len(strings.TrimSpace(d.Reason)) {
			t.Fatalf("parse(%q) produced untrimmed reason %q", text, d.Reason)
		}
	})
}
