// Command eoslint runs the storage engine's custom static analyzers
// (atomicfield, errwrap, useafterunpin, guardedby, the whole-program
// passes pairs, lockorder, forcedom and racecheck, and the unusedignore
// audit) over Go packages.
//
// Usage:
//
//	go run ./cmd/eoslint ./...         # analyze packages (drives go vet)
//	go run ./cmd/eoslint -json ./...   # machine-readable diagnostics
//	go run ./cmd/eoslint -sarif ./...  # SARIF 2.1.0 on stdout
//	eoslint help [analyzer]            # describe analyzers and flags
//
// The binary speaks the `go vet -vettool` unitchecker protocol
// (-V=full, -flags, unit.cfg); invoked with ordinary package patterns
// it re-executes itself through `go vet -vettool=<self>`, so one
// binary serves both as the driver and as the vet backend, and the
// analysis benefits from go vet's build cache and modular fact
// propagation.
//
// With -json, diagnostics are emitted in `go vet -json` format: one
// JSON object per package mapping package ID to analyzer name to a
// list of {posn, message} diagnostics.  Unlike plain `go vet -json`
// (which always exits 0), eoslint still exits 1 when any diagnostic
// was reported, so scripted callers need not parse the stream to learn
// whether the tree is clean.
//
// With -sarif, the same diagnostics are converted to a SARIF 2.1.0
// log on stdout (rule metadata taken from the analyzers' docs) for
// GitHub code-scanning upload; the exit code is 1 when any result is
// present, as with -json.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	eosanalysis "github.com/eosdb/eos/internal/analysis"
)

func main() {
	if vetProtocol(os.Args[1:]) {
		unitchecker.Main(eosanalysis.Analyzers()...) // does not return
	}

	jsonMode := false
	sarifMode := false
	patterns := make([]string, 0, len(os.Args)-1)
	for _, a := range os.Args[1:] {
		switch a {
		case "-json", "--json":
			jsonMode = true
		case "-sarif", "--sarif":
			sarifMode = true
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "eoslint: cannot locate own executable: %v\n", err)
		os.Exit(1)
	}
	args := []string{"vet", "-vettool=" + exe}
	if jsonMode || sarifMode {
		args = append(args, "-json")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stdout = os.Stdout
	// go vet writes its -json stream (like its plain diagnostics) to
	// stderr; tee it so the exit code can reflect what was reported.
	// In SARIF mode the stream is captured only: stdout carries the
	// converted log and stderr stays reserved for real errors.
	var out bytes.Buffer
	switch {
	case sarifMode:
		cmd.Stderr = &out
	case jsonMode:
		cmd.Stderr = io.MultiWriter(os.Stderr, &out)
	default:
		cmd.Stderr = os.Stderr
	}
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if sarifMode {
			os.Stderr.Write(out.Bytes())
		}
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "eoslint: %v\n", err)
		os.Exit(1)
	}
	if sarifMode {
		diags := collectDiagnostics(out.Bytes())
		if err := writeSARIF(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "eoslint: %v\n", err)
			os.Exit(1)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
		return
	}
	if jsonMode && jsonHasDiagnostics(out.Bytes()) {
		os.Exit(1)
	}
}

// jsonHasDiagnostics reports whether a `go vet -json` stream contains
// any diagnostic.  The stream interleaves `# package` comment lines
// with JSON objects of the form
// {"pkgID": {"analyzer": [{"posn": ..., "message": ...}, ...]}}.
func jsonHasDiagnostics(stream []byte) bool {
	var clean []byte
	for _, line := range bytes.Split(stream, []byte("\n")) {
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte("#")) {
			continue
		}
		clean = append(clean, line...)
		clean = append(clean, '\n')
	}
	dec := json.NewDecoder(bytes.NewReader(clean))
	for {
		var unit map[string]map[string][]json.RawMessage
		if err := dec.Decode(&unit); err != nil {
			return false // end of stream or malformed tail: trust the exit code
		}
		for _, byAnalyzer := range unit {
			for _, diags := range byAnalyzer {
				if len(diags) > 0 {
					return true
				}
			}
		}
	}
}

// vetProtocol reports whether args look like a `go vet -vettool`
// invocation (or an explicit unitchecker request such as `help`)
// rather than package patterns.
func vetProtocol(args []string) bool {
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") || a == "help" ||
			strings.HasPrefix(a, "-V") || strings.HasPrefix(a, "-flags") {
			return true
		}
	}
	return false
}
