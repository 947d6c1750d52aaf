.PHONY: all build test race vet lint lint-sarif lint-debt fuzz cover bench bench-go bench-cache obs-smoke replay-check crash-recovery clean

all: build vet lint test

build:
	go build ./...

# softsoa-lint is the repo's own stdlib-only analyzer suite
# (internal/analysis): six intraprocedural analyzers (determinism,
# ctxfirst, lockcheck, errcheck, gohygiene, writecheck) plus four
# interprocedural ones over the module call graph (atomiccheck,
# lockorder, leakcheck, hotpath). Exits 0 clean, 1 with findings,
# 2 on usage/load errors. Before it, gofmt must list no tracked Go
# file (tracked only, so module caches under .bench_build are skipped).
lint:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; \
	fi
	go run ./cmd/softsoa-lint ./...

# Same findings as a SARIF 2.1.0 log, for code-scanning upload.
lint-sarif:
	go run ./cmd/softsoa-lint -sarif lint.sarif ./...

# Suppression-debt report: every //lint:ignore with its age; stale
# directives (no longer firing) are marked ! and should be deleted.
lint-debt:
	go run ./cmd/softsoa-lint -debt ./...

# Short fuzz pass over the sccp parser/compiler, mirroring CI.
fuzz:
	go test ./internal/sccp -run '^$$' -fuzz FuzzParseAndCompile -fuzztime 10s

test:
	go test ./...

# The dependability layer's concurrency guarantees (per-session
# critical sections, breaker board, retry loop) are only meaningfully
# tested under the race detector.
race:
	go test -race ./...

vet:
	go vet ./...

cover:
	go test -coverprofile=coverage.out ./...
	go tool cover -func=coverage.out | tail -1

# Reproducible benchmark report: E-series anchors, the indexed-eval
# ablation, and the branch-and-bound workload grid. Writes
# BENCH_pr3.json (no timestamps, so reruns diff cleanly).
bench:
	go run ./cmd/softsoa-bench -out BENCH_pr3.json

# One-shot smoke pass over the go-test E-series benchmarks.
bench-go:
	go test -bench . -benchtime 1x -run '^$$' .

# Solve-cache report: the CI-sized grid plus the cache group — cold vs
# replayed negotiation plans. Every hot row asserts result equality
# with its cold partner before timing and records the speedup; ratios
# are machine-dependent snapshots.
bench-cache:
	go run ./cmd/softsoa-bench -short -cache -out BENCH_pr8.json

# End-to-end observability smoke: boot brokerd with the ops listener
# and a journal directory, scrape /v1/metrics, fetch the negotiation's
# flight-recorder journal, and replay it with softsoa-replay.
obs-smoke:
	./scripts/obs-smoke.sh

# E21 durability check: SIGKILL a brokerd mid-traffic (plus a torn
# WAL frame) and a SIGTERM drain, then compare the recovered state
# byte-exact against a never-crashed control. CRASH_DIFF_DIR collects
# a diff artifact on failure.
crash-recovery:
	go test -race -run 'TestBrokerdCrashRecovery|TestBrokerdGracefulDrain' -v .

# Replay every golden journal fixture against the current engine: the
# recorded programs and the broker's pinned journals. Any semantic
# drift in the nmsccp transition system shows up as a rule-by-rule
# mismatch.
replay-check:
	@for j in testdata/journals/*.jsonl internal/broker/testdata/journals/*.jsonl; do \
		go run ./cmd/softsoa-replay $$j || exit 1; \
	done

clean:
	rm -f coverage.out
