GO ?= go
BENCHTIME ?= 1x
BENCH_JSON ?= BENCH_pr9.json
# Packages the bench targets run over. CI's bench job narrows this to the
# hot packages so base-vs-head comparisons finish in budget.
BENCH_PKGS ?= ./...
# Statement-coverage floor for `make cover`. Set just under the measured
# total (70.4% when introduced, 71.9% after the binenc/superblock work,
# 71.0% after the two-channel/successor-technique work) so genuine
# regressions fail while run-to-run jitter in timing-dependent paths does
# not.
COVER_FLOOR ?= 70.0
# Per-target budget for `make fuzz-smoke` (7 targets; CI budgets 105s total).
FUZZTIME ?= 15s
# Where `make profile` drops its pprof bundles.
PROFILE_DIR ?= /tmp/pgss-profile
# Benchmarks `make profile` runs under the profiler.
PROFILE_BENCH ?= BenchmarkAblation

.PHONY: build test vet fmt-check lint lint-custom lint-fix vuln race bench bench-json bench-check profile cover fuzz-smoke validate chaos-smoke bench-smoke loc ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The lint bar is two layers: staticcheck (generic, installed in CI from a
# pinned version, skipped locally when absent so `make ci` works on minimal
# toolchains) and pgss-lint (the repo's own analyzer suite, pure stdlib, so
# it always runs). See internal/analysis and DESIGN.md for what it enforces.
lint: lint-custom
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs it)"; fi

lint-custom:
	$(GO) run ./cmd/pgss-lint ./...

# Apply every suggested fix (errwrap %v->%w rewrites, exhaustive case
# stubs), then prove the fixers converged: a second pass that still wants
# to edit anything is an analyzer bug. The second run tolerates exit 1
# (unfixable findings may legitimately remain) but fails on a non-empty
# diff.
lint-fix:
	$(GO) run ./cmd/pgss-lint -fix ./... || true
	@out="$$($(GO) run ./cmd/pgss-lint -fix -diff ./... | grep '^[-+@]' || true)"; \
	if [ -n "$$out" ]; then \
		echo "lint-fix: not idempotent, second pass still produces edits:"; \
		echo "$$out"; exit 1; fi

# Known-vulnerability scan. govulncheck needs network access for the vuln DB,
# so locally it runs only when installed; CI runs it in a blocking job at a
# pinned version.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (CI runs it)"; fi

# The campaign runner and the suite's singleflight recording are concurrent;
# the race detector is part of the acceptance bar, not an optional extra.
race:
	$(GO) test -race ./...

# All BENCH_PKGS packages, one iteration each: a smoke run that proves every
# benchmark still compiles and executes. Raise BENCHTIME for real
# measurements.
bench:
	$(GO) test -bench . -benchtime $(BENCHTIME) -run '^$$' $(BENCH_PKGS)

# Machine-readable benchmark snapshot (see cmd/pgss-benchdiff). ns/op values
# are only comparable on the same hardware; the snapshot records CPU count.
bench-json:
	$(GO) build -o /tmp/pgss-benchdiff ./cmd/pgss-benchdiff
	$(GO) test -bench . -benchtime $(BENCHTIME) -run '^$$' $(BENCH_PKGS) \
		| /tmp/pgss-benchdiff -parse -o $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# Compare a fresh run against the committed snapshot. Only meaningful on the
# machine that produced the baseline; CI instead benches base vs head on one
# runner (see .github/workflows/ci.yml).
bench-check:
	$(GO) build -o /tmp/pgss-benchdiff ./cmd/pgss-benchdiff
	$(GO) test -bench . -benchtime $(BENCHTIME) -run '^$$' $(BENCH_PKGS) \
		| /tmp/pgss-benchdiff -parse -o /tmp/pgss-bench-head.json
	/tmp/pgss-benchdiff -baseline $(BENCH_JSON) -current /tmp/pgss-bench-head.json -max-regress 15

# CPU + heap pprof bundles of PROFILE_BENCH (the ablation suite by
# default), for flamegraph comparisons across PRs. Inspect with
# `go tool pprof $(PROFILE_DIR)/cpu.pb.gz`.
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -bench '$(PROFILE_BENCH)' -benchtime $(BENCHTIME) -run '^$$' \
		-cpuprofile $(PROFILE_DIR)/cpu.pb.gz -memprofile $(PROFILE_DIR)/heap.pb.gz \
		-o $(PROFILE_DIR)/pgss.test .
	@echo "wrote $(PROFILE_DIR)/cpu.pb.gz and $(PROFILE_DIR)/heap.pb.gz"

# Statement coverage with a floor: fails when total coverage drops below
# COVER_FLOOR percent.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' \
		|| { echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Run each native fuzz target for FUZZTIME on top of the committed seed
# corpus. `go test` allows one -fuzz pattern per invocation, hence one run
# per target.
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzConfigValidate$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bbv -run '^$$' -fuzz '^FuzzTrackerStream$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bbv -run '^$$' -fuzz '^FuzzMAVAdditivity$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/phase -run '^$$' -fuzz '^FuzzClassify$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzCheckpointResume$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/binenc -run '^$$' -fuzz '^FuzzFrameDecoder$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sampling -run '^$$' -fuzz '^FuzzTwoPhaseConfig$$' -fuzztime $(FUZZTIME)

# Differential validation: 200 generated cases through oracle, serial,
# parallel (all layouts) and periodic live runs, all invariants checked.
validate:
	$(GO) run ./cmd/pgss-validate -cases 200 -seed 1

# Chaos harness smoke: seeded campaigns under injected faults (torn journal
# writes, dropped fsyncs, worker panics/stalls, power loss) must degrade
# gracefully and resume to results bit-identical to an uninterrupted run.
chaos-smoke:
	$(GO) run ./cmd/pgss-chaos -seeds 10 -seed 100

# The benchmark/ harness is its own Go module (it builds against this one
# through a replace directive), so the root `go test ./...` never compiles
# it. Vet and test it here so a refactor of the packages it imports cannot
# break it unnoticed.
bench-smoke:
	cd benchmark && GOFLAGS=-buildvcs=false $(GO) vet ./... && GOFLAGS=-buildvcs=false $(GO) test ./...

# Non-test Go lines outside testdata/ and the benchmark/ module: the code
# size figure recorded per change in CHANGES.md.
loc:
	@find . \( -path ./benchmark -o -name testdata -o -name '.?*' \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

ci: build vet fmt-check lint test race validate chaos-smoke bench-smoke

clean:
	$(GO) clean ./...
