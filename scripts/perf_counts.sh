#!/usr/bin/env bash
# Count gate for the end-to-end benchmark: build ./perf at a base commit
# and at the working tree, run both on every workload with one seed, and
# fail if `perf compare` finds an end-to-end metric (other than the
# wall-clock setup_s) worse by more than its BENCHMARK.json bound.  The gated metrics are made of counts the
# engine keeps (model I/O time, read/write/space amplification), which
# one seed repeats exactly on the one-client workloads and to well under
# the bounds on the two-client ones, so one run a side suffices.  The run
# has the length BENCHMARK.json declares (perf's default), not a shorter
# one: the costs per operation depend on how far the objects have grown
# — at a fifth of the length commit_small's objects have no index page
# yet, and a change that trades a rewritten page per append for those
# index pages looks 5 % worse in write_amp where the declared run shows
# it 12 % better (EXPERIMENTS.md §P23).  About three minutes.
#
#   scripts/perf_counts.sh [base-ref]
#
# base-ref defaults to the merge base with origin/main, or HEAD~1 when
# HEAD is on origin/main (or there is no such ref).
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-}"
if [ -z "$base" ]; then
    base="$(git merge-base HEAD origin/main 2>/dev/null || true)"
    if [ -z "$base" ] || [ "$base" = "$(git rev-parse HEAD)" ]; then
        base="$(git rev-parse HEAD~1)"
    fi
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$base" | tar -x -C "$work/base"

echo "==> perf at base $(git rev-parse --short "$base")"
(cd "$work/base" && go build -o "$work/perf-base" ./perf)
"$work/perf-base" -workload all -seed 1 -json "$work/base.json" >/dev/null
echo "==> perf at the working tree"
go build -o "$work/perf-head" ./perf
"$work/perf-head" -workload all -seed 1 -json "$work/head.json" >/dev/null

# compare exits 1 when a metric crossed its bound.  setup_s is the one
# gated metric that is wall-clock (the fastest of a few sub-second
# set-ups) and moves 20 % between identical runs on a shared runner, so
# it is reported here but does not fail the gate on its own.
status=0
table="$("$work/perf-head" compare "$work/base.json" "$work/head.json")" || status=$?
echo "$table"
if [ "$status" -eq 1 ] && ! echo "$table" | grep -w regressed | grep -qv ' setup_s '; then
    echo "only setup_s (wall-clock) crossed its bound: reported, not gated"
    status=0
fi
exit "$status"
