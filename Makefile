# CoolPIM reproduction — developer entry points.

GO ?= go
BENCH_DATE := $(shell date +%Y%m%d)
VETTOOL := bin/coolpim-vet

.PHONY: all build test vet lint lint-fixtures race bench bench-json bench-smoke figs-check sweep-smoke obs-smoke serve-smoke clean

# Default: a tree that builds, passes the static-analysis suite, and
# passes the tests — in that order, so lint failures surface fast.
all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the whole static gate: formatting, standard vet, and the
# repo's own analyzer suite (cmd/coolpim-vet) over every package via the
# -vettool protocol. Any diagnostic fails the target.
lint:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go' | grep -v '/testdata/')); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) build -o $(VETTOOL) ./cmd/coolpim-vet
	$(GO) vet -vettool=$(CURDIR)/$(VETTOOL) ./...

# lint-fixtures tests the analyzers themselves: every testdata-driven
# fixture suite, the call-graph unit tests, the fact round-trip
# byte-identity test, and the vetx unitchecker-protocol test.
lint-fixtures:
	$(GO) test ./internal/analyzers/... ./cmd/coolpim-vet

# -timeout 20m: under the race detector the internal/system suite runs
# ~15x slower and exceeds go test's default 10m per-package limit on
# small (1-2 core) hosts.
race:
	$(GO) test -race -timeout 20m ./...

# bench writes a dated machine-readable benchmark snapshot (one pass per
# benchmark; the paper-figure benchmarks report their headline quantity
# as a custom metric).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -json . > BENCH_full_$(BENCH_DATE).json
	@echo "wrote BENCH_full_$(BENCH_DATE).json"

# The performance trajectory: bench-json regenerates the committed
# BENCH_<n>.json snapshots (event-engine ns/op + allocs/op, cube
# read/PIM throughput, one full-system run's wall time). Each PR that
# claims a speedup commits the next numbered snapshot; benchstat-style
# comparison against the previous one is the review artifact.
BENCH_NEXT := $(shell n=$$(ls BENCH_[0-9]*.json 2>/dev/null | wc -l); echo $$((n+1)))
BENCH_SUBSTRATE := ^(BenchmarkEventEngine|BenchmarkCubeReadThroughput|BenchmarkCubePIMThroughput)$$
BENCH_THERMAL := ^(BenchmarkThermalStep|BenchmarkSolveSteady)$$
BENCH_COUPLER := ^BenchmarkApplyPowerTick$$
BENCH_CLUSTER := ^(BenchmarkShardedEngine|BenchmarkMultiCubeSystem)$$

bench-json:
	@( $(GO) test -run '^$$' -bench '$(BENCH_SUBSTRATE)' -benchmem . && \
	   $(GO) test -run '^$$' -bench '$(BENCH_THERMAL)' -benchmem . && \
	   $(GO) test -run '^$$' -bench '$(BENCH_COUPLER)' -benchmem ./internal/system && \
	   $(GO) test -run '^$$' -bench '$(BENCH_CLUSTER)' -benchtime 3x -benchmem . && \
	   $(GO) test -run '^$$' -bench '^BenchmarkFig10Speedup$$/^dc$$/^Naive-Offloading$$' -benchtime 3x . \
	 ) | $(GO) run ./cmd/benchjson -out BENCH_$(BENCH_NEXT).json

# bench-smoke is the CI guard: a fixed, tiny iteration count over the
# substrate micro-benches so they cannot silently stop compiling or
# start failing, piped through benchjson to keep the tooling honest.
bench-smoke:
	( $(GO) test -run '^$$' -bench '$(BENCH_SUBSTRATE)|$(BENCH_THERMAL)|^(BenchmarkDRAMBankSchedule|BenchmarkCacheAccess|BenchmarkPowerModel)$$' \
		-benchtime 100x -benchmem . && \
	  $(GO) test -run '^$$' -bench '$(BENCH_CLUSTER)' -benchtime 1x -benchmem . && \
	  $(GO) test -run '^$$' -bench '$(BENCH_COUPLER)' -benchtime 100x -benchmem ./internal/system \
	) | $(GO) run ./cmd/benchjson

# figs-check regenerates the committed closed-loop time series with the
# paper profile and fails on any byte difference — the guard that keeps
# results_fig14.txt in lockstep with the simulator (and, since the
# stencil kernel is pinned bit-identical to the reference model, with
# the thermal arithmetic itself).
figs-check:
	$(GO) run ./cmd/figures -exp fig14 -profile paper | diff -u results_fig14.txt - \
		&& echo "results_fig14.txt up to date"

# sweep-smoke exercises the fault-tolerant campaign runner end to end:
# a TestProfile 2x2 matrix through coolpim-sweep, killed after two runs
# (exit 3, the interrupt hook), then resumed from the JSONL ledger. The
# resumed campaign must reuse exactly the two completed cells.
sweep-smoke:
	$(GO) build -o bin/coolpim-sweep ./cmd/coolpim-sweep
	rm -f bin/sweep-smoke.ledger bin/sweep-smoke.prom
	bin/coolpim-sweep -profile test -workloads dc,pagerank -policies baseline,naive \
		-parallel 2 -ledger bin/sweep-smoke.ledger -metrics-out bin/sweep-smoke.prom \
		-interrupt-after 2; \
	status=$$?; if [ $$status -ne 3 ]; then \
		echo "expected interrupt exit 3, got $$status"; exit 1; fi
	grep -q '^runner_jobs_completed_total 2' bin/sweep-smoke.prom \
		|| { echo "interrupted campaign left stale metrics:"; cat bin/sweep-smoke.prom; exit 1; }
	bin/coolpim-sweep -profile test -workloads dc,pagerank -policies baseline,naive \
		-parallel 2 -ledger bin/sweep-smoke.ledger -resume \
		| tee /dev/stderr | grep -q "executed 2, from ledger 2, failed 0"
	@echo "sweep-smoke OK"

# obs-smoke exercises the live observability plane end to end: a short
# sim with the diagnostics HTTP server held open, /metrics + /healthz +
# /spans fetched live, and the Chrome trace export validated as
# trace_event JSON (see scripts/obs_smoke.sh).
obs-smoke:
	scripts/obs_smoke.sh

# serve-smoke exercises the simulation service end to end: coolpim-serve
# on an ephemeral port, three concurrent identical campaign submissions,
# asserting exactly one execution (two cache hits), byte-identical
# responses, and one ledger entry per matrix cell (see
# scripts/serve_smoke.sh).
serve-smoke:
	scripts/serve_smoke.sh

clean:
	rm -f BENCH_full_*.json trace.jsonl metrics.prom series.csv
	rm -rf bin
