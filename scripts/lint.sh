#!/usr/bin/env bash
# Static-analysis entry point: identical locally and in CI.
#
#   scripts/lint.sh            run every available linter
#   scripts/lint.sh eoslint    run only the eoslint suite
#   scripts/lint.sh --fixtures smoke-check the analyzers against their
#                              bad fixtures: every pass must still
#                              produce diagnostics there (guards
#                              against a silently-neutered pass)
#
# eoslint (the repo's own go/analysis suite) always runs.  The external
# tools — golangci-lint and govulncheck — run when installed and are
# skipped with a notice otherwise, so an offline checkout can still
# lint the storage-engine invariants that matter most.
set -u
cd "$(dirname "$0")/.."

only="${1:-all}"
failed=0

step() {
    echo "==> $1"
}

if [ "$only" = "--fixtures" ] || [ "$only" = "fixtures" ]; then
    step "analyzer fixture smoke (every bad fixture must still trip its pass)"
    go test -count=1 -run TestBadFixturesProduceDiagnostics ./internal/analysis/
    exit $?
fi

step "eoslint (pin/latch/atomic/error invariants, and the whole-program leak/deadlock/WAL-and-force-ordering/lockset passes)"
if ! go run ./cmd/eoslint ./...; then
    failed=1
fi

if [ "$only" = "eoslint" ]; then
    exit "$failed"
fi

step "go vet self-check (the linter codebase itself stays clean)"
if ! go vet ./internal/analysis/... ./cmd/eoslint; then
    failed=1
fi

if command -v golangci-lint >/dev/null 2>&1; then
    step "golangci-lint"
    if ! golangci-lint run ./...; then
        failed=1
    fi
else
    step "golangci-lint not installed; skipping (CI installs it)"
fi

if command -v govulncheck >/dev/null 2>&1; then
    step "govulncheck"
    if ! govulncheck ./...; then
        failed=1
    fi
else
    step "govulncheck not installed; skipping (CI installs it)"
fi

exit "$failed"
