package main

import (
	"fmt"
	"sort"
)

// metricDef describes one reported metric.  BENCHMARK.json repeats
// these tables; the smoke test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share
}

// endToEnd are the costs a client of the store pays that this sandbox can
// measure repeatably: every one but setup_s and live_heap_mb is made of
// counts the engine keeps, which one seed repeats exactly.  Every workload
// reports every one of them, from untraced runs only.  The wall-clock
// throughputs and latencies are per-layer metrics (eos.*): see README.md
// for how far they drift here.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"model_io_ms_per_op", "ms", "lower", 0.15},
	{"read_amp", "ratio", "lower", 0.15},
	{"write_amp", "ratio", "lower", 0.05},
	{"space_amp", "ratio", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.25},
}

// opKind names a public-API operation the clients issue.
type opKind int

const (
	opRead opKind = iota
	opInsert
	opDelete
	opReplace
	opAppend
	opTxn
	opSnapshotRead
	opCheckpoint
	opDestroy
	numOps
)

var opNames = [numOps]string{
	"read", "insert", "delete", "replace", "append", "txn", "snapshot_read", "checkpoint", "destroy",
}

// perLayer lists the single-layer metrics, layer = module name.  Counts
// are Store.Stats() / Device.Stats() deltas over the measured phase;
// eos.* latencies come from the untraced run, disk.*_s, share.* and
// eos.engine_self_s from the traced one, probes from scratch stores.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	for _, op := range opNames {
		add("lower", "us", "eos."+op+".p50_us", "eos."+op+".p99_us")
		add("higher", "count", "eos."+op+".count")
	}
	add("lower", "s", "eos.checkpoint.total_s", "eos.recovery_s", "eos.engine_self_s")
	add("higher", "1/s", "eos.ops_per_s")
	add("higher", "MB/s", "eos.append_mbps", "eos.scan_mbps")
	add("lower", "1/op", "eos.allocs_per_op")
	add("lower", "B/op", "eos.alloc_bytes_per_op")

	add("higher", "count", "txn.epoch_advances")
	add("lower", "pages", "txn.retired_pages", "txn.pending_pages_end")
	add("lower", "count", "txn.open_snapshots_end")
	add("lower", "ns", "txn.lock_release_ns")

	add("lower", "count", "lob.segments_allocated", "lob.segments_freed", "lob.node_splits",
		"lob.node_merges", "lob.shadowed_index_pages")
	add("lower", "B", "lob.bytes_reshuffled")
	add("lower", "pages", "lob.pages_reshuffled", "lob.index_pages")
	add("higher", "count", "lob.snapshot_reads")
	add("lower", "1/MB", "lob.segments_per_mb")
	add("lower", "levels", "lob.tree_height_max")
	add("higher", "pages", "lob.min_segment_pages")
	for _, op := range opNames[:opTxn] {
		add("lower", "us", "lob."+op+".p50_us")
	}

	add("lower", "count", "buddy.allocs", "buddy.frees", "buddy.spaces_visited", "buddy.failed_attempts")
	add("higher", "count", "buddy.spaces_skipped")
	add("higher", "pages", "buddy.free_pages_end")
	add("lower", "ns", "buddy.alloc_ns", "buddy.free_ns")

	add("higher", "count", "buffer.hits", "buffer.flush_skips")
	add("lower", "count", "buffer.misses", "buffer.evictions", "buffer.flushes")
	add("higher", "ratio", "buffer.hit_rate")
	add("lower", "ns", "buffer.fix_hit_ns")
	add("lower", "us", "buffer.fix_miss_us", "buffer.flush_all_us")

	add("lower", "count", "wal.appends", "wal.forces", "wal.leader_forces")
	add("higher", "count", "wal.force_noops", "wal.piggybacks")
	add("lower", "B", "wal.flushed_bytes", "wal.bytes_per_commit")
	add("higher", "ratio", "wal.commits_per_leader_force")
	add("lower", "ns", "wal.append_ns")
	add("lower", "us", "wal.force_us")

	for _, dev := range []string{"data", "log"} {
		p := "disk." + dev + "."
		add("lower", "count", p+"reads", p+"writes", p+"seeks", p+"syncs")
		add("lower", "pages", p+"pages_read", p+"pages_written")
		add("higher", "count", p+"run_writes")
		add("higher", "pages", p+"coalesced_pages")
		add("lower", "s", p+"read_s", p+"write_s", p+"force_s")
		add("lower", "us", p+"read_p50_us", p+"write_p50_us", p+"force_p50_us")
	}

	add("lower", "ratio", "share.engine", "share.disk_data_read", "share.disk_data_write",
		"share.disk_data_force", "share.disk_log_write", "share.disk_log_force", "share.generator")
	add("lower", "%", "perf.trace_overhead_pct")
	add("lower", "s", "perf.generator_s")
	return defs
}

// value is one measured metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// values holds everything one run measured, by metric name.
type values map[string]value

func (v values) set(name, unit string, x float64) { v[name] = value{Value: x, Unit: unit} }

func (v values) setN(name, unit string, x float64, samples int) {
	v[name] = value{Value: x, Unit: unit, Samples: samples}
}

// percentile returns the q-quantile (0 < q < 1) of sorted, by the
// nearest-rank rule; 0 for no samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(d []int64) []int64 {
	s := append([]int64(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func sum(d []int64) int64 {
	var t int64
	for _, x := range d {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setLatency records p50 and p99 of durations (ns) under prefix, in µs.
func (v values) setLatency(prefix string, d []int64) {
	s := sortedCopy(d)
	v.setN(prefix+".p50_us", "us", float64(percentile(s, 0.50))/1e3, len(s))
	v.setN(prefix+".p99_us", "us", float64(percentile(s, 0.99))/1e3, len(s))
	v.set(prefix+".count", "count", float64(len(s)))
}

// project returns the metrics named in defs.  Every workload reports
// every end-to-end metric, so a missing one is an error unless fill is
// set, which makes a metric that does not apply read 0.
func (v values) project(defs []metricDef, fill bool) (values, error) {
	out := values{}
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok && !fill {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		x.Unit = d.Unit
		out[d.Name] = x
	}
	return out, nil
}
