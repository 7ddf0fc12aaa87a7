package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeConfig runs a workload at about 1 % of its op counts on sim
// volumes, twice with one seed so that count metrics can be checked for
// equality.
func smokeConfig(seed int64, trace bool) config {
	return config{seed: seed, seconds: 10, repeats: 2, trace: trace, smoke: true, back: &backend{sim: true}}
}

func smoke(t *testing.T, w *workload, seed int64, trace bool) *outcome {
	t.Helper()
	oc, err := runWorkload(w, smokeConfig(seed, trace))
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !oc.Correct || oc.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d violations=%v failures=%v", w.name, oc.Correct, oc.Failed, oc.Violations, oc.Failures)
	}
	return oc
}

func TestWorkloadsSmoke(t *testing.T) {
	traced := map[string]values{}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			untraced := smoke(t, w, 1, false)
			for _, d := range endToEnd {
				x, ok := untraced.EndToEnd[d.Name]
				if !ok || x.Value <= 0 || math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
					t.Errorf("end-to-end metric %s = %v (present %v): every workload reports every one, never 0", d.Name, x.Value, ok)
				}
			}
			oc := smoke(t, w, 1, true)
			traced[w.name] = oc.PerLayer
			if len(oc.EndToEnd) != 0 {
				t.Errorf("a traced run reported end-to-end metrics")
			}
			for _, d := range perLayer {
				if x, ok := oc.PerLayer[d.Name]; !ok || math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", d.Name, x.Value, ok)
				}
			}
			if w.clients > 1 {
				return
			}
			if oc.Deterministic != "yes" {
				t.Errorf("count metrics of two same-seed runs differ: %v", oc.Violations)
			}
			var shares float64
			for name, x := range oc.PerLayer {
				if strings.HasPrefix(name, "share.") {
					shares += x.Value
				}
			}
			if math.Abs(shares-1) > 0.05 {
				t.Errorf("share.* sum to %.3f, want 1 +- 0.05", shares)
			}
			if oc.PerLayer["disk.data.reads"] != untraced.PerLayer["disk.data.reads"] {
				t.Errorf("tracing changed what the engine does: %v device reads traced, %v untraced",
					oc.PerLayer["disk.data.reads"].Value, untraced.PerLayer["disk.data.reads"].Value)
			}
			other := smoke(t, w, 2, true)
			same := true
			for _, name := range []string{"disk.data.pages_written", "disk.data.seeks", "buddy.spaces_visited"} {
				same = same && oc.PerLayer[name].Value == other.PerLayer[name].Value
			}
			if same {
				t.Errorf("count metrics are the same for seeds 1 and 2: the seed does not reach the generator")
			}
		})
	}
	// The workloads stress different layers the way their rationale
	// says, checked on counts (which repeat).
	edit, commit := traced["edit_mix"], traced["commit_small"]
	if edit == nil || commit == nil {
		return
	}
	if edit["wal.appends"].Value != 0 || edit["wal.flushed_bytes"].Value != 0 {
		t.Errorf("edit_mix uses the WAL: appends %v, flushed %v", edit["wal.appends"].Value, edit["wal.flushed_bytes"].Value)
	}
	if edit["lob.segments_allocated"].Value == 0 || edit["buddy.allocs"].Value == 0 {
		t.Errorf("edit_mix does not exercise lob and buddy")
	}
	if commit["wal.leader_forces"].Value == 0 || commit["eos.recovery_s"].Value <= 0 {
		t.Errorf("commit_small: leader forces %v, recovery %v s", commit["wal.leader_forces"].Value, commit["eos.recovery_s"].Value)
	}
}

func TestOracleCatchesCorruptedRead(t *testing.T) {
	cfg := smokeConfig(1, false)
	cfg.repeats, cfg.corrupt = 1, true
	oc, err := runWorkload(findWorkload("edit_mix"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Correct || len(oc.Violations) == 0 {
		t.Fatalf("a flipped byte in every compared read went unnoticed")
	}
}

// TestModelMatchesBytes drives the piece-table model and a plain byte
// slice with the same random edits.
func TestModelMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pay := newPayload(7, 1<<16)
	var m model
	var ref []byte
	for i := 0; i < 5000; i++ { // enough for the blocks to split and empty
		n := 1 + rng.Intn(60)
		src, data := pay.slice(rng, n)
		switch op := rng.Intn(4); {
		case op == 0 || len(ref) < 100:
			off := rng.Intn(len(ref) + 1)
			m.insert(int64(off), src, n)
			ref = append(ref[:off], append(append([]byte(nil), data...), ref[off:]...)...)
		case op == 1:
			off := rng.Intn(len(ref) - n + 1)
			m.delete(int64(off), int64(n))
			ref = append(ref[:off], ref[off+n:]...)
		case op == 2:
			off := rng.Intn(len(ref) - n + 1)
			m.replace(int64(off), src, n)
			copy(ref[off:], data)
		default:
			m.append(src, n)
			ref = append(ref, data...)
		}
		if m.size != int64(len(ref)) {
			t.Fatalf("step %d: model size %d, reference %d", i, m.size, len(ref))
		}
		off := rng.Intn(len(ref))
		end := off + rng.Intn(len(ref)-off) + 1
		if err := m.check(pay, int64(off), ref[off:end]); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := m.check(pay, 0, ref); err != nil {
		t.Fatal(err)
	}
	ref[len(ref)/2] ^= 1
	if err := m.check(pay, 0, ref); err == nil {
		t.Fatal("a flipped byte passed the check")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "perf" || strings.Join(spec.Command, " ") != "bash perf/run.sh" {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s / %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s metric %s: bound %v, want %v (present: %v)", kind, d.Name, g.Bound, d.Bound, bounded)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

func TestContractLine(t *testing.T) {
	cfg := smokeConfig(3, false)
	cfg.repeats = 1
	oc, err := runWorkload(findWorkload("ingest_scan"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := printContractLine(&buf, oc, false); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("%v in %q", err, buf.String())
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("keys of %s", buf.String())
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, direct bool) string {
		f := resultFile{Environment: environment{Backend: "file", DirectIO: direct}, Workloads: map[string]*outcome{}}
		for _, w := range workloads {
			oc := &outcome{Workload: w.name, Correct: true, Attempted: 10, EndToEnd: values{}}
			for _, d := range endToEnd {
				x := 100.0
				if d.Name == "model_io_ms_per_op" {
					x /= scale
				}
				oc.EndToEnd[d.Name] = value{Value: x, Unit: d.Unit}
			}
			f.Workloads[w.name] = oc
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1, true)
	var out bytes.Buffer
	if code := compareMain([]string{base, write("same.json", 1.02, true)}, &out); code != 0 {
		t.Errorf("2 %% apart: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{base, write("slow.json", 0.7, true)}, &out); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("43 %% more modelled I/O: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{base, write("fast.json", 1.5, true)}, &out); code != 0 || !strings.Contains(out.String(), "improved") {
		t.Errorf("a third less modelled I/O: exit %d\n%s", code, out.String())
	}
	if code := compareMain([]string{base, write("buffered.json", 1, false)}, &out); code != 2 {
		t.Errorf("direct_io differs: exit %d, want a refusal", code)
	}
}
