// Command perf is the repository's benchmark: four workloads driven
// through the public eos API, on in-memory volumes or on O_DIRECT files,
// reporting what a client pays (end-to-end metrics) and, in a traced run,
// where the time went layer by layer.  See README.md.
//
//	go run ./perf -workload all -seed 1 -repeats 3 -json out.json
//	go run ./perf -workload all -seed 1 -trace 1
//	go run ./perf compare A.json B.json
//	go run ./perf spec > BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"

	"github.com/eosdb/eos"
)

// An untraced invocation repeats a workload's set-up at least setupRuns
// times, and up to setupRunsMax while they have taken less than
// setupBudget together.  setup_s is the fastest of them: the sandbox only
// ever adds time (other tenants of the host, a collection), in bursts that
// miss some of a dozen set-ups but can cover most of them, which is what a
// median would need them not to.
const (
	setupRuns    = 3
	setupRunsMax = 15
	setupBudget  = 2500 * time.Millisecond
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

type config struct {
	seed    int64
	seconds int
	repeats int
	trace   bool
	smoke   bool // smoke sizing on sim volumes (the tier-1 test)
	corrupt bool // the tier-1 test's deliberately corrupted reads
	back    *backend
	spans   string // file the traced run's spans are written to
}

// outcome is what one workload reported.
type outcome struct {
	Workload  string `json:"workload"`
	Unit      string `json:"unit"`
	Units     int    `json:"units"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Deterministic says whether the count metrics of the repeats were
	// equal: "yes", "no" (which fails a one-client workload), or "n/a"
	// for one repeat or two clients.
	Deterministic string         `json:"deterministic"`
	EndToEnd      values         `json:"end_to_end"`
	PerLayer      values         `json:"per_layer"`
	Failures      map[string]int `json:"failures,omitempty"`
	Violations    []string       `json:"violations,omitempty"`
}

// resultFile is what -json writes and compare reads.
type resultFile struct {
	Environment environment         `json:"environment"`
	Workloads   map[string]*outcome `json:"workloads"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, out io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], out)
	}
	if len(args) == 1 && args[0] == "spec" {
		return specMain(out)
	}
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: ingest_scan, edit_mix, commit_small, read_under_write or all")
	seed := fs.Int64("seed", 1, "seed of the generated operation streams")
	seconds := fs.Int("seconds", defaultSeconds, "length of the measured phase: the fixed op counts are scaled to last about this long on the sandbox")
	trace := fs.Int("trace", 0, "1 traces the measured instances, runs the layer probes, and reports the per-layer metrics instead of the end-to-end ones")
	repeats := fs.Int("repeats", 1, "measured repeats per workload; timed metrics report their median")
	jsonPath := fs.String("json", "", "write all results to this file (the input of compare)")
	spans := fs.String("spans", "", "with -trace 1, write the traced run's spans to this file as JSON")
	backendName := fs.String("backend", "sim", "sim keeps the volumes in memory; file keeps them in O_DIRECT files under -dir")
	dir := fs.String("dir", ".bench_build", "with -backend file, the directory the volume files are created under (in a sub-directory removed on exit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *repeats < 1 || fs.NArg() > 0 || (*backendName != "sim" && *backendName != "file") {
		fmt.Fprintln(os.Stderr, "perf: -seconds and -repeats must be at least 1, -backend sim or file, and there are no positional arguments")
		return 2
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := findWorkload(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perf: unknown workload %q\n", *name)
		return 2
	}

	back := &backend{sim: true}
	if *backendName == "file" {
		// The volume files live in a directory of their own, removed on
		// every way out.
		err := os.MkdirAll(*dir, 0o755)
		if err == nil {
			back.dir, err = os.MkdirTemp(*dir, "perf-vol-")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perf: %v\n", err)
			return 1
		}
		defer os.RemoveAll(back.dir)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			os.RemoveAll(back.dir)
			os.Exit(130)
		}()
		back.sim, back.direct = false, true
	}
	cfg := config{seed: *seed, seconds: *seconds, repeats: *repeats, trace: *trace != 0, back: back, spans: *spans}
	file := resultFile{Workloads: map[string]*outcome{}}
	status := 0
	for _, w := range selected {
		oc, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perf: %s: %v\n", w.name, err)
			return 1
		}
		file.Workloads[w.name] = oc
		printOutcome(out, oc, cfg.trace)
		if !oc.Correct {
			status = 1
		}
	}
	file.Environment = captureEnvironment(cfg.back, cfg.seed, cfg.seconds, cfg.repeats)
	if *jsonPath != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perf: write %s: %v\n", *jsonPath, err)
			return 1
		}
	}
	if len(selected) == 1 {
		if err := printContractLine(out, file.Workloads[selected[0].name], cfg.trace); err != nil {
			fmt.Fprintf(os.Stderr, "perf: %v\n", err)
			return 1
		}
	}
	return status
}

// newRun prepares one instance of w; rec is nil for an untraced one.
func newRun(w *workload, cfg config, pay payload, rec *recorder) *run {
	sz := w.full
	if cfg.smoke {
		sz = w.smoke
	}
	units := int(math.Round(sz.perSecond * float64(cfg.seconds)))
	if units < 1 {
		units = 1
	}
	if units < w.clients {
		units = w.clients
	}
	back := cfg.back
	if rec != nil && w.name == "commit_small" && !back.sim {
		// The traced commit_small run checks strict durability: its
		// file volumes drop every unforced page at the crash, as sim
		// volumes always do.
		shadowed := *back
		shadowed.shadow = true
		back = &shadowed
	}
	return &run{w: w, sz: sz, seed: cfg.seed, units: units, back: back, rec: rec, pay: pay, corrupt: cfg.corrupt}
}

// payloadBytes is the size of the random buffer all written bytes are cut
// from: the largest object plus room to vary where it starts.
const payloadBytes = 24 << 20

// runWorkload measures cfg.repeats instances of a workload.  Untraced, it
// first repeats the set-up alone until setup_s has its samples, and
// reports the end-to-end metrics; traced, every instance records spans,
// the probes run, and only per-layer metrics are reported (end-to-end
// metrics are never taken from a traced run).
func runWorkload(w *workload, cfg config) (*outcome, error) {
	size := payloadBytes
	if cfg.smoke {
		size = 1 << 20
	}
	pay := newPayload(cfg.seed, size)
	oc := &outcome{Workload: w.name, Unit: w.unit, Correct: true, Deterministic: "n/a", Failures: map[string]int{}}
	var setupTimes []float64
	var spent time.Duration
	setUp := func(rec *recorder) (*run, error) {
		r := newRun(w, cfg, pay, rec)
		d, err := r.setUp()
		spent += d
		setupTimes = append(setupTimes, d.Seconds())
		return r, err
	}
	// Set-ups that are only timed come first, so the measured instances
	// are the last ones built.
	for i := cfg.repeats; !cfg.trace && (i < setupRuns || i < setupRunsMax && spent < setupBudget); i++ {
		r, err := setUp(nil)
		if err != nil {
			return nil, err
		}
		r.release()
	}
	var measured []values
	var rec *recorder
	for i := 0; i < cfg.repeats; i++ {
		if cfg.trace {
			rec = newRecorder(w.clients == 1, 1<<20)
		}
		r, err := setUp(rec)
		if err != nil {
			return nil, err
		}
		if err := r.measure(); err != nil {
			r.release()
			return nil, err
		}
		oc.absorb(r)
		measured = append(measured, r.vals)
	}
	merged, differing := mergeRepeats(measured)
	merged.setN("setup_s", "s", slices.Min(setupTimes), len(setupTimes))
	if len(measured) > 1 && w.clients == 1 {
		oc.Deterministic = "yes"
		if len(differing) > 0 {
			oc.Deterministic = "no"
			oc.Violations = append(oc.Violations, fmt.Sprintf("nondeterministic: %v differ between repeats of one seed", differing))
			oc.Correct = false
		}
	}
	oc.PerLayer = values{}
	if !cfg.trace {
		// The counts and API latencies are worth reading untraced too.
		for _, d := range perLayer {
			if x, ok := merged[d.Name]; ok {
				oc.PerLayer[d.Name] = x
			}
		}
		var err error
		oc.EndToEnd, err = merged.project(endToEnd, false)
		return oc, err
	}
	ps := fullProbes
	if cfg.smoke {
		ps = smokeProbes
	}
	if err := runProbes(cfg.back, ps, cfg.seed, pay, merged); err != nil {
		return nil, err
	}
	if cfg.spans != "" {
		if err := rec.writeFile(cfg.spans + "." + w.name + ".json"); err != nil {
			return nil, err
		}
	}
	var err error
	oc.PerLayer, err = merged.project(perLayer, true)
	return oc, err
}

// setUp creates the volumes, then formats the store and populates it.
// It returns how long the format and the population took: that is
// setup_s.  Creating the volumes is left out: a sim volume clears its
// whole capacity in memory, which costs more than formatting a store and
// says nothing about the engine.
func (r *run) setUp() (time.Duration, error) {
	var err error
	if r.vols, err = r.back.openVolumes(r.sz.dataPages, r.sz.logPages, r.rec); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if r.store, err = eos.Format(r.vols.data, r.vols.log, storeOptions(r.w, r.sz)); err != nil {
		r.release()
		return 0, fmt.Errorf("format store: %w", err)
	}
	if err := r.w.setup(r); err != nil {
		r.release()
		return 0, err
	}
	return time.Since(t0), nil
}

// absorb adds a finished run's op counts and violations to the outcome.
func (oc *outcome) absorb(r *run) {
	oc.Units = r.units
	a, f := r.totals()
	oc.Attempted += a
	oc.Failed += f
	for _, c := range r.clients {
		for msg, n := range c.failures {
			oc.Failures[msg] += n
		}
	}
	if len(r.incorrect) > 0 {
		oc.Correct = false
		oc.Violations = append(oc.Violations, r.incorrect...)
	}
}

// mergeRepeats reduces the repeats of one workload to one value per
// metric — the median — and names the count metrics that were not the
// same in all of them.
func mergeRepeats(runs []values) (merged values, differing []string) {
	merged = values{}
	for name, first := range runs[0] {
		xs := make([]float64, len(runs))
		same := true
		for i, v := range runs {
			xs[i] = v[name].Value
			same = same && xs[i] == first.Value
		}
		if !same && isCount(name, first.Unit) {
			differing = append(differing, name)
		}
		first.Value = median(xs)
		merged[name] = first
	}
	sort.Strings(differing)
	return merged, differing
}

// isCount reports whether a metric is made of counts the engine keeps,
// which repeat exactly when one client drives the store.
func isCount(name, unit string) bool {
	switch unit {
	case "count", "pages", "B", "1/MB", "levels":
		return true
	}
	switch name {
	case "model_io_ms_per_op", "read_amp", "space_amp", "write_amp", "buffer.hit_rate":
		return true
	}
	return false
}

func printOutcome(out io.Writer, oc *outcome, traced bool) {
	fmt.Fprintf(out, "== %s: %d %s, attempted %d, failed %d, correct %v, deterministic %s\n",
		oc.Workload, oc.Units, oc.Unit, oc.Attempted, oc.Failed, oc.Correct, oc.Deterministic)
	fmt.Fprintf(out, "error_rate %d/%d = %g\n", oc.Failed, oc.Attempted, float64(oc.Failed)/float64(oc.Attempted))
	printValues(out, endToEnd, oc.EndToEnd)
	printValues(out, perLayer, oc.PerLayer)
	msgs := make([]string, 0, len(oc.Failures))
	for msg := range oc.Failures {
		msgs = append(msgs, msg)
	}
	sort.Strings(msgs)
	for _, msg := range msgs {
		fmt.Fprintf(out, "failed x%d: %s\n", oc.Failures[msg], msg)
	}
	for _, v := range oc.Violations {
		fmt.Fprintf(out, "VIOLATION: %s\n", v)
	}
	if traced {
		force := oc.PerLayer["disk.log.force_s"].Value + oc.PerLayer["disk.data.force_s"].Value
		share := oc.PerLayer["share.disk_log_force"].Value + oc.PerLayer["share.disk_data_force"].Value
		fmt.Fprintf(out, "force time (log+data) %.3f s, %.1f %% of wall time\n", force, share*100)
	}
}

func printValues(out io.Writer, defs []metricDef, v values) {
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			continue
		}
		if x.Samples > 0 {
			fmt.Fprintf(out, "%s %.6g %s n=%d\n", d.Name, x.Value, x.Unit, x.Samples)
		} else {
			fmt.Fprintf(out, "%s %.6g %s\n", d.Name, x.Value, x.Unit)
		}
	}
}

// printContractLine prints the one JSON object a benchmark driver reads:
// the end-to-end metrics of an untraced invocation, the per-layer ones of
// a traced one.
func printContractLine(out io.Writer, oc *outcome, traced bool) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := oc.EndToEnd
	if traced {
		src = oc.PerLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{oc.Correct, oc.Attempted, oc.Failed, map[string]metric{}}
	for name, x := range src {
		if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
			return fmt.Errorf("metric %s is not a number", name)
		}
		line.Metrics[name] = metric{x.Value, x.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

// readResults loads a file written by -json.
func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(filepath.Clean(path))
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Workloads) == 0 {
		return nil, errors.New(path + ": no workloads in file")
	}
	return &f, nil
}

// specMain prints BENCHMARK.json as the tables in this package define it.
func specMain(out io.Writer) int {
	type workloadSpec struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricSpec struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{Command: []string{"bash", "perf/run.sh"}, Paths: []string{"perf"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadSpec{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		spec.EndToEnd = append(spec.EndToEnd, metricSpec{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, metricSpec{d.Name, d.Unit, d.Better, nil})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf spec: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", data)
	return 0
}
