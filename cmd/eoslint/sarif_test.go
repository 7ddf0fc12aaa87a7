package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const vetStream = `# github.com/eosdb/eos/internal/wal
{
	"github.com/eosdb/eos/internal/wal": {
		"lockorder": [
			{
				"posn": "/src/eos/internal/wal/log.go:42:2",
				"message": "interprocedural lock order inversion: call chain a → b"
			}
		],
		"pairs": []
	}
}
# github.com/eosdb/eos/internal/buffer
{
	"github.com/eosdb/eos/internal/buffer": {
		"pairs": [
			{
				"posn": "/src/eos/internal/buffer/pool.go:7:10",
				"message": "interprocedural pin leak: call chain pinPage acquires pg"
			}
		]
	}
}
# github.com/eosdb/eos/internal/eos
{
	"github.com/eosdb/eos/internal/eos": {
		"forcedom": [
			{
				"posn": "/src/eos/internal/eos/txn.go:100:9",
				"message": "in-place overwrite Object.Replace is not dominated by a WAL force of its pre-image record",
				"related": [
					{
						"posn": "/src/eos/internal/eos/txn.go:90:12",
						"message": "candidate WAL force of its pre-image record here does not dominate the overwrite"
					}
				]
			}
		]
	}
}
`

func TestCollectDiagnostics(t *testing.T) {
	diags := collectDiagnostics([]byte(vetStream))
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %+v", len(diags), diags)
	}
	byAnalyzer := map[string]diag{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = d
	}
	d, ok := byAnalyzer["lockorder"]
	if !ok {
		t.Fatalf("no lockorder diagnostic in %+v", diags)
	}
	if d.File != "/src/eos/internal/wal/log.go" || d.Line != 42 || d.Column != 2 {
		t.Errorf("lockorder posn parsed as %q:%d:%d", d.File, d.Line, d.Column)
	}
	if !strings.Contains(d.Message, "lock order inversion") {
		t.Errorf("lockorder message = %q", d.Message)
	}
	if _, ok := byAnalyzer["pairs"]; !ok {
		t.Errorf("no pairs diagnostic in %+v", diags)
	}
	fd, ok := byAnalyzer["forcedom"]
	if !ok {
		t.Fatalf("no forcedom diagnostic in %+v", diags)
	}
	if len(fd.Related) != 1 {
		t.Fatalf("forcedom diagnostic has %d related positions, want 1", len(fd.Related))
	}
	r := fd.Related[0]
	if r.File != "/src/eos/internal/eos/txn.go" || r.Line != 90 || r.Column != 12 {
		t.Errorf("related posn parsed as %q:%d:%d", r.File, r.Line, r.Column)
	}
	if !strings.Contains(r.Message, "does not dominate") {
		t.Errorf("related message = %q", r.Message)
	}
}

func TestCollectDiagnosticsEmpty(t *testing.T) {
	if diags := collectDiagnostics([]byte("# pkg\n{\"pkg\": {\"pairs\": []}}\n")); len(diags) != 0 {
		t.Fatalf("clean stream produced %+v", diags)
	}
}

func TestSplitPosn(t *testing.T) {
	for _, tc := range []struct {
		posn string
		file string
		line int
		col  int
	}{
		{"/a/b.go:10:3", "/a/b.go", 10, 3},
		{"b.go:7:1", "b.go", 7, 1},
		{"b.go", "b.go", 1, 1},
	} {
		file, line, col := splitPosn(tc.posn)
		if file != tc.file || line != tc.line || col != tc.col {
			t.Errorf("splitPosn(%q) = %q,%d,%d want %q,%d,%d",
				tc.posn, file, line, col, tc.file, tc.line, tc.col)
		}
	}
}

func TestWriteSARIF(t *testing.T) {
	diags := collectDiagnostics([]byte(vetStream))
	var buf bytes.Buffer
	if err := writeSARIF(&buf, diags); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "eoslint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	// The rule inventory covers the whole suite, including the
	// whole-program passes, regardless of which analyzers fired; each
	// invariant has one rule.
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
		if r.ShortDesc.Text == "" || strings.Contains(r.ShortDesc.Text, "\n") {
			t.Errorf("rule %s shortDescription = %q", r.ID, r.ShortDesc.Text)
		}
	}
	for _, want := range []string{"pairs", "lockorder", "forcedom", "racecheck", "unusedignore"} {
		if !ruleIDs[want] {
			t.Errorf("rule inventory missing %q (have %v)", want, ruleIDs)
		}
	}
	if len(run.Tool.Driver.Rules) != 9 {
		t.Errorf("rule inventory has %d rules, want 9", len(run.Tool.Driver.Rules))
	}
	if len(run.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(run.Results))
	}
	var sawRelated bool
	for _, res := range run.Results {
		if !ruleIDs[res.RuleID] {
			t.Errorf("result ruleId %q not in rule inventory", res.RuleID)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result has %d locations", len(res.Locations))
		}
		loc := res.Locations[0].Physical
		if loc.Artifact.URIBaseID != "%SRCROOT%" {
			t.Errorf("uriBaseId = %q", loc.Artifact.URIBaseID)
		}
		if loc.Region.StartLine == 0 {
			t.Errorf("missing startLine in %+v", loc)
		}
		for _, rel := range res.Related {
			sawRelated = true
			if rel.Physical.Artifact.URIBaseID != "%SRCROOT%" {
				t.Errorf("related uriBaseId = %q", rel.Physical.Artifact.URIBaseID)
			}
			if rel.Physical.Region.StartLine != 90 || rel.Physical.Region.StartColumn != 12 {
				t.Errorf("related region = %+v", rel.Physical.Region)
			}
			if rel.Message == nil || !strings.Contains(rel.Message.Text, "does not dominate") {
				t.Errorf("related message = %+v", rel.Message)
			}
		}
	}
	if !sawRelated {
		t.Errorf("no result carried relatedLocations")
	}
}
