// SARIF 2.1.0 conversion for the -sarif mode: the `go vet -json`
// diagnostic stream becomes a single-run static-analysis log suitable
// for GitHub code scanning, with one reportingDescriptor per analyzer
// in the suite (metadata taken from the analyzers' own Doc strings).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	eosanalysis "github.com/eosdb/eos/internal/analysis"
)

// diag is one parsed diagnostic from the `go vet -json` stream.
type diag struct {
	Analyzer string
	File     string
	Line     int
	Column   int
	Message  string
	Related  []related
}

// related is a secondary position attached to a diagnostic — for
// forcedom, the discharge that exists but fails to dominate the event;
// for racecheck, the lockset-disjoint conflicting access.
type related struct {
	File    string
	Line    int
	Column  int
	Message string
}

// collectDiagnostics parses a `go vet -json` stream (interleaved
// `# package` comment lines and per-package JSON objects) into a flat
// diagnostic list.
func collectDiagnostics(stream []byte) []diag {
	var clean []byte
	for _, line := range bytes.Split(stream, []byte("\n")) {
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte("#")) {
			continue
		}
		clean = append(clean, line...)
		clean = append(clean, '\n')
	}
	type vetRelated struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	type vetDiag struct {
		Posn    string       `json:"posn"`
		Message string       `json:"message"`
		Related []vetRelated `json:"related"`
	}
	var diags []diag
	dec := json.NewDecoder(bytes.NewReader(clean))
	for {
		var unit map[string]map[string][]vetDiag
		if err := dec.Decode(&unit); err != nil {
			return diags // end of stream or malformed tail
		}
		for _, byAnalyzer := range unit {
			for analyzer, list := range byAnalyzer {
				for _, d := range list {
					file, line, col := splitPosn(d.Posn)
					var rel []related
					for _, r := range d.Related {
						rf, rl, rc := splitPosn(r.Posn)
						rel = append(rel, related{
							File: rf, Line: rl, Column: rc, Message: r.Message,
						})
					}
					diags = append(diags, diag{
						Analyzer: analyzer,
						File:     file,
						Line:     line,
						Column:   col,
						Message:  d.Message,
						Related:  rel,
					})
				}
			}
		}
	}
}

// splitPosn splits a "file:line:col" position (the file part may
// itself contain colons only on exotic platforms; parse from the
// right).
func splitPosn(posn string) (file string, line, col int) {
	file = posn
	line, col = 1, 1
	if i := strings.LastIndex(file, ":"); i >= 0 {
		if n, err := strconv.Atoi(file[i+1:]); err == nil {
			col = n
			file = file[:i]
		}
	}
	if i := strings.LastIndex(file, ":"); i >= 0 {
		if n, err := strconv.Atoi(file[i+1:]); err == nil {
			line = n
			file = file[:i]
		}
	}
	return file, line, col
}

// relativeURI makes file relative to the working directory when
// possible: code-scanning matches results to checkout paths, and
// %SRCROOT% marks the base as the repository root.
func relativeURI(file string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(file)
}

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID              string    `json:"id"`
	ShortDesc       sarifText `json:"shortDescription"`
	FullDesc        sarifText `json:"fullDescription"`
	DefaultSeverity struct {
		Level string `json:"level"`
	} `json:"defaultConfiguration"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
	Related   []sarifLocation `json:"relatedLocations,omitempty"`
}

type sarifLocation struct {
	Physical sarifPhysical `json:"physicalLocation"`
	Message  *sarifText    `json:"message,omitempty"`
}

type sarifPhysical struct {
	Artifact sarifArtifact `json:"artifactLocation"`
	Region   sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// writeSARIF emits the diagnostics as a SARIF 2.1.0 log.  Rules cover
// the whole suite (not just analyzers that fired) so code scanning
// can show the full rule inventory.
func writeSARIF(w io.Writer, diags []diag) error {
	var rules []sarifRule
	for _, a := range eosanalysis.Analyzers() {
		short := a.Doc
		if i := strings.IndexByte(short, '\n'); i >= 0 {
			short = short[:i]
		}
		r := sarifRule{
			ID:        a.Name,
			ShortDesc: sarifText{Text: short},
			FullDesc:  sarifText{Text: a.Doc},
		}
		r.DefaultSeverity.Level = "warning"
		rules = append(rules, r)
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		res := sarifResult{
			RuleID:  d.Analyzer,
			Level:   "warning",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				Physical: sarifPhysical{
					Artifact: sarifArtifact{
						URI:       relativeURI(d.File),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{
						StartLine:   d.Line,
						StartColumn: d.Column,
					},
				},
			}},
		}
		for _, r := range d.Related {
			msg := sarifText{Text: r.Message}
			res.Related = append(res.Related, sarifLocation{
				Physical: sarifPhysical{
					Artifact: sarifArtifact{
						URI:       relativeURI(r.File),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{
						StartLine:   r.Line,
						StartColumn: r.Column,
					},
				},
				Message: &msg,
			})
		}
		results = append(results, res)
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "eoslint",
				InformationURI: "https://github.com/eosdb/eos",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&log); err != nil {
		return fmt.Errorf("encode sarif: %w", err)
	}
	return nil
}
