#!/usr/bin/env bash
# Fails when a name in a `-run` pattern of the CI workflow matches no test
# in the package that step runs.  `go test -run` takes a pattern that
# matches nothing as a pass, so without this a renamed or deleted test
# drops out of a CI list (the race stress steps, the crash sweep) silently.
#
#   scripts/check_run_lists.sh [workflow]
#
# workflow defaults to .github/workflows/ci.yml.  Each `go test ... -run
# 'A|B|C' <package>` line is split at `|`; every alternative (the part
# before a `/`, which names a subtest) must match one of the package's
# tests as `go test -list .` prints them.
set -euo pipefail
cd "$(dirname "$0")/.."

wf="${1:-.github/workflows/ci.yml}"
status=0
checked=0
declare -A listed
while read -r pat pkg; do
    if [ -z "${listed[$pkg]+x}" ]; then
        listed[$pkg]="$(go test -list . "$pkg" | grep -E '^(Test|Example|Benchmark|Fuzz)' || true)"
    fi
    IFS='|' read -ra alts <<<"$pat"
    for alt in "${alts[@]}"; do
        checked=$((checked + 1))
        if ! grep -qE -- "${alt%%/*}" <<<"${listed[$pkg]}"; then
            echo "$wf: -run alternative '$alt' matches no test in $pkg"
            status=1
        fi
    done
done < <(grep -oE "go test [^']*-run '[^']*' +[^ ]+" "$wf" | sed -E "s/.*-run '([^']*)' +([^ ]+)$/\1 \2/")
if [ "$checked" -eq 0 ]; then
    echo "$wf: no -run pattern found"
    status=1
fi
[ "$status" -eq 0 ] && echo "$wf: all $checked -run alternatives name a test"
exit "$status"
