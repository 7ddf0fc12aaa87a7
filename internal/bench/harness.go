// Package bench implements the experiment harness that regenerates every
// quantitative claim and worked example of the paper (see DESIGN.md §3
// for the experiment index E1–E13).  Each experiment produces a Table;
// cmd/eosbench prints them, and the repository-root benchmark file wraps
// them in testing.B targets.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/eosdb/eos/internal/buddy"
	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
)

// Table is one experiment's result: headers, rows, and the paper claim
// it reproduces.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper statement being checked
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "paper: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// FprintCSV renders the table as CSV (one header row, then data rows),
// for feeding plots.
func (t *Table) FprintCSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
		}
		return s
	}
	cells := make([]string, len(t.Headers))
	for i, h := range t.Headers {
		cells[i] = esc(h)
	}
	fmt.Fprintln(w, strings.Join(cells, ","))
	for _, r := range t.Rows {
		cells = cells[:0]
		for _, c := range r {
			cells = append(cells, esc(c))
		}
		fmt.Fprintln(w, strings.Join(cells, ","))
	}
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{"e1", "allocation map encoding and skip-scan (Fig 2-3)", E1AmapLocate},
		{"e2", "one directory access per alloc/free (§3.3)", E2AllocDirectoryIO},
		{"e3", "arbitrary-size alloc/free walkthrough (Fig 4)", E3Figure4},
		{"e4", "search cost worked example (§4.2, Fig 5)", E4SearchCost},
		{"e5", "storage utilization vs threshold T (§4.4)", E5UtilizationVsT},
		{"e6", "clustering preservation under updates (§4.4)", E6SeqReadAfterUpdates},
		{"e7", "cross-system comparison (§2, [Bili91b])", E7Comparison},
		{"e8", "internal fragmentation (§1 obj.5, [Selt91])", E8Fragmentation},
		{"e9", "superdirectory ablation (§3.3)", E9Superdirectory},
		{"e10", "adaptive threshold ablation (§4.4, [Bili91a])", E10AdaptiveT},
		{"e11", "append growth policies (§4.1, Fig 5a-b)", E11AppendGrowth},
		{"e12", "recovery overhead and correctness (§4.5)", E12Recovery},
		{"e13", "update cost vs object size (§1 obj.3)", E13UpdateCostVsObjectSize},
		{"e14", "EXODUS leaf size: search vs utilization (§2)", E14ExodusLeafSizeTension},
		{"e15", "object compaction after heavy editing", E15Compaction},
		{"e16", "application workload mix (§1 motivation)", E16ApplicationWorkloads},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Stack is one freshly formatted storage stack for an experiment.
type Stack struct {
	Vol   disk.Device
	Pool  *buffer.Pool
	Buddy *buddy.Manager
	LM    *lob.Manager
}

// Volume backend selection for the experiment harness.  The default
// simulator reports modelled seek/transfer costs; the file backend
// runs the same experiments against real temp-dir page files, where
// Stats().Micros is measured wall-clock time instead.  Set by
// cmd/eosbench's -backend flag before any stack is built.
var (
	// UseFileBackend routes NewStack* volumes to disk.FileVolume.
	UseFileBackend bool
	// FileBackendDir is where file-backed volumes are created (one
	// numbered file per stack); empty means os.TempDir().
	FileBackendDir string

	fileVolSeq atomic.Int64
)

// newBenchVolume builds one experiment volume on the selected backend.
func newBenchVolume(pageSize int, pages disk.PageNum) (disk.Device, error) {
	if !UseFileBackend {
		return disk.NewVolume(pageSize, pages, disk.DefaultCostModel())
	}
	dir := FileBackendDir
	if dir == "" {
		dir = os.TempDir()
	}
	name := fmt.Sprintf("eosbench-%d-%d.eos", os.Getpid(), fileVolSeq.Add(1))
	fv, err := disk.CreateFileVolume(filepath.Join(dir, name), pageSize, pages, disk.FileOptions{})
	if err != nil {
		return nil, err
	}
	fileVolsMu.Lock()
	fileVols = append(fileVols, fv)
	fileVolsMu.Unlock()
	return fv, nil
}

// Experiments build stacks freely and never tear them down (the
// simulator needs none), so file-backed volumes are tracked here and
// released in one sweep when the run ends.
var (
	fileVolsMu sync.Mutex
	fileVols   []*disk.FileVolume // eos:guardedby fileVolsMu
)

// CleanupFileVolumes closes and deletes every file-backed experiment
// volume created so far; cmd/eosbench defers it around the run.
func CleanupFileVolumes() {
	fileVolsMu.Lock()
	vols := fileVols
	fileVols = nil
	fileVolsMu.Unlock()
	for _, fv := range vols {
		_ = fv.Close()
		_ = os.Remove(fv.Path())
	}
}

// stackGeometry is the default experiment geometry: 1 KB pages, which
// give 2 MB maximum segments and ~3.8 MB buddy spaces.
const (
	benchPageSize = 1024
	benchSpaceCap = 3920
)

// NewStack formats a stack of numSpaces buddy spaces with the given lob
// configuration.
func NewStack(numSpaces int, cfg lob.Config) (*Stack, error) {
	return NewStackGeometry(benchPageSize, numSpaces, benchSpaceCap, cfg, true)
}

// NewStackGeometry formats a stack with explicit geometry.
func NewStackGeometry(pageSize, numSpaces, capacity int, cfg lob.Config, superdir bool) (*Stack, error) {
	pages := disk.PageNum(1 + numSpaces*(capacity+1))
	vol, err := newBenchVolume(pageSize, pages)
	if err != nil {
		return nil, err
	}
	pool, err := buffer.NewPool(vol, 256)
	if err != nil {
		return nil, err
	}
	bm, err := buddy.FormatVolume(pool, vol, 1, numSpaces, capacity, superdir)
	if err != nil {
		return nil, err
	}
	lm, err := lob.NewManager(vol, pool, bm, cfg)
	if err != nil {
		return nil, err
	}
	return &Stack{Vol: vol, Pool: pool, Buddy: bm, LM: lm}, nil
}

// ResetIO flushes caches and zeroes the I/O counters so a measurement
// starts cold.
func (s *Stack) ResetIO() error {
	if err := s.Pool.FlushAll(); err != nil {
		return err
	}
	s.Vol.ResetStats()
	return nil
}

// ColdIO additionally drops the buffer pool, so index pages are
// re-fetched from disk.
func (s *Stack) ColdIO() error {
	if err := s.Pool.FlushAll(); err != nil {
		return err
	}
	s.Pool.DiscardAll()
	s.Vol.ResetStats()
	return nil
}

// Pattern produces deterministic bytes for workloads.
func Pattern(seed, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(seed*131 + i*7)
	}
	return out
}

// fmtF renders a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtPct renders a ratio as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// fmtMS renders simulated microseconds as milliseconds.
func fmtMS(us int64) string { return fmt.Sprintf("%.2fms", float64(us)/1000) }

// fmtI renders an int64.
func fmtI(v int64) string { return fmt.Sprintf("%d", v) }
