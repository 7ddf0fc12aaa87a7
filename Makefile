GO ?= go

.PHONY: build test race lint eoslint lint-fixtures perf-counts

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full static analysis: eoslint (every analyzer, per-package and
# whole-program, in one run), a go vet self-check over the linter's own
# packages, plus golangci-lint and govulncheck when installed
# (scripts/lint.sh skips missing external tools).
lint:
	scripts/lint.sh

# Just the repo's own invariant analyzers.
eoslint:
	scripts/lint.sh eoslint

# Smoke-check that every bad fixture still trips its analyzer.
lint-fixtures:
	scripts/lint.sh --fixtures

# Count gate: the end-to-end benchmark at the merge base against the
# working tree, failing on any metric worse than its BENCHMARK.json bound.
perf-counts:
	scripts/perf_counts.sh
