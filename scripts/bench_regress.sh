#!/usr/bin/env bash
# bench_regress.sh — compare the read-path (BenchmarkParallelRead*,
# BenchmarkParallelScan*) and write-path (BenchmarkParallelCommit*)
# benchmarks against the checked-in baseline and fail on >10%
# regressions, and gate the snapshot read mode's intra-run ratios.
# The read-path benchmarks compare a one-shard pool at queue depth 1
# (serialized) with an eight-shard pool at depth 16 (parallel); the
# write-path ones run group commit alone (group), the only log path.
#
# Usage: scripts/bench_regress.sh [baseline-file]
#
# Three benchmark passes run:
#
#   gate  — the raw in-memory *Mem benchmarks with -benchmem.  The
#           hard gate compares allocs/op: allocation counts on the
#           read and commit paths are deterministic, so a >10%
#           increase is a real code change (extra staging copies,
#           per-read goroutines, per-commit force bookkeeping,
#           lock-splitting gone wrong), never machine noise.
#   info  — ns/op deltas for everything, plus the latency-simulated
#           *Lat benchmarks and a benchstat comparison when benchstat
#           is installed.  Wall-clock times are printed but do not
#           fail the script: on shared runners unchanged code drifts
#           well past any usable threshold (50%+ observed), so a
#           timing gate would be red noise — eyeball the info rows
#           and the benchstat table when the gate flags nothing.
#   snap  — BenchmarkSnapshotScan* (latency-simulated scans under an
#           8-writer storm).  The hard gate here compares ratios
#           WITHIN the run, which cancels machine drift: lock-free
#           snapshot scans must sustain >=3x the locked-scan
#           throughput under the storm, and >=90% of the idle-store
#           scan throughput (BENCH_snapshot_scan.json records the
#           accepted numbers).
#   realio — BenchmarkRealIO* (file-backed volumes: pwritev runs,
#           durable commits, pool reads on real page files).  allocs/op rows gate like the *Mem
#           pass; ns/op depends on the runner's filesystem and is
#           informational (BENCH_real_io.json records accepted
#           numbers and the vectored-vs-pagewise ratio).
#
# Regenerate the baseline after intentional read- or write-path
# changes:
#
#   { go test -run '^$' -bench 'BenchmarkParallel.*Mem' -cpu=1,8 \
#         -benchtime=2000x -count=5 -benchmem . ;
#     go test -run '^$' -bench 'BenchmarkParallel.*Lat' -cpu=1,8 \
#         -benchtime=100x -count=3 . ;
#     go test -run '^$' -bench 'BenchmarkSnapshotScan' -cpu=8 \
#         -benchtime=200x -count=2 . ;
#     go test -run '^$' -bench 'BenchmarkRealIO' \
#         -benchtime=50x -count=3 -benchmem . ; } > bench/baseline.txt

set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${1:-bench/baseline.txt}"
THRESHOLD_PCT=10
CURRENT="$(mktemp)"
trap 'rm -f "$CURRENT"' EXIT

if [[ ! -f "$BASELINE" ]]; then
    echo "baseline $BASELINE not found" >&2
    exit 2
fi

echo "running read+write-path benchmarks (gate: *Mem allocs/op, info: ns/op and *Lat)..."
{
    go test -run '^$' -bench 'BenchmarkParallel.*Mem' -cpu=1,8 \
        -benchtime=2000x -count=5 -benchmem .
    go test -run '^$' -bench 'BenchmarkParallel.*Lat' -cpu=1,8 \
        -benchtime=100x -count=3 .
    go test -run '^$' -bench 'BenchmarkSnapshotScan' -cpu=8 \
        -benchtime=200x -count=2 .
    go test -run '^$' -bench 'BenchmarkRealIO' \
        -benchtime=50x -count=3 -benchmem .
} | tee "$CURRENT"

# Snapshot read-mode gate: intra-run throughput ratios (best MB/s per
# mode over -count runs; scheduler spikes only ever make a run slower).
awk '
/^BenchmarkSnapshotScan/ {
    for (i = 3; i < NF; i++) if ($(i + 1) == "MB/s" && $i > best[$1]) best[$1] = $i
}
END {
    idle = best["BenchmarkSnapshotScanIdle-8"]
    locked = best["BenchmarkSnapshotScanUnderWrites/locked-8"]
    snap = best["BenchmarkSnapshotScanUnderWrites/snapshot-8"]
    if (idle == 0 || locked == 0 || snap == 0) {
        print "snapshot gate: benchmark rows missing"; exit 1
    }
    status = 0
    r = snap / locked
    flag = (r >= 3.0) ? "ok" : "REGRESSION"; if (r < 3.0) status = 1
    printf "\n== snapshot read-mode gate (intra-run ratios) ==\n"
    printf "snapshot vs locked under storm   %6.1f vs %6.1f MB/s  ratio %4.2fx  (>=3.0x)  %s\n", snap, locked, r, flag
    r = snap / idle
    flag = (r >= 0.9) ? "ok" : "REGRESSION"; if (r < 0.9) status = 1
    printf "snapshot under storm vs idle     %6.1f vs %6.1f MB/s  ratio %4.2fx  (>=0.90x) %s\n", snap, idle, r, flag
    exit status
}
' "$CURRENT"

if command -v benchstat >/dev/null 2>&1; then
    echo
    echo "== benchstat comparison (baseline vs current) =="
    benchstat "$BASELINE" "$CURRENT"
fi

# Per-benchmark minima over -count runs (scheduler spikes only ever
# make a run slower).  allocs/op rows gate; ns/op rows are info.
awk -v thresh="$THRESHOLD_PCT" '
function record(file, name, metric, v) {
    if (!((file, name, metric) in best) || v < best[file, name, metric])
        best[file, name, metric] = v
    names[name] = 1
}
/^Benchmark/ {
    file = (FILENAME == base ? "base" : "cur")
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op")     record(file, $1, "ns", $i)
        if ($(i + 1) == "allocs/op") record(file, $1, "allocs", $i)
    }
}
END {
    status = 0
    printf "\n== regression gate (allocs/op >%d%% fails; ns/op informational) ==\n", thresh
    for (n in names) {
        if ((("base" SUBSEP n SUBSEP "ns") in best) && (("cur" SUBSEP n SUBSEP "ns") in best)) {
            b = best["base", n, "ns"]; c = best["cur", n, "ns"]
            printf "%-55s ns/op     base %12.0f  cur %12.0f  %+7.1f%%  info\n", n, b, c, (c - b) / b * 100
        }
        if ((("base" SUBSEP n SUBSEP "allocs") in best) && (("cur" SUBSEP n SUBSEP "allocs") in best)) {
            b = best["base", n, "allocs"]; c = best["cur", n, "allocs"]
            delta = (b > 0) ? (c - b) / b * 100 : (c > 0 ? 100 : 0)
            flag = "ok"
            if (delta > thresh) { flag = "REGRESSION"; status = 1 }
            printf "%-55s allocs/op base %12.0f  cur %12.0f  %+7.1f%%  %s\n", n, b, c, delta, flag
        }
    }
    exit status
}
' base="$BASELINE" "$BASELINE" "$CURRENT"
