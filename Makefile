GO ?= go

.PHONY: all build vet lint lint-self lint-hot lint-graph lint-selftest lint-all lint-json test race chaos chaos-recovery chaos-dist bench bench-smoke bench-alloc bench-vector check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (internal/lint via cmd/hanalint),
# including the interprocedural analyzers (lockorder, ctxflow, resleak).
# Exits non-zero on any finding; suppress deliberate violations in source
# with //lint:ignore <analyzer> <reason>.
lint:
	$(GO) run ./cmd/hanalint ./...

# The linter does not exempt itself — or anything else: `lint` already
# covers the whole module, the analyzer sources and drivers included, so
# self-lint is the same invocation. Deliberate violations carry
# //lint:ignore <analyzer> <reason> in source.
lint-self: lint

# Hot-path performance lint: the allocation/boxing analyzers (hotalloc,
# boxval, stringcmp, deferhot) over the whole module, then the
# compiler-assisted escape gate — `go build -gcflags=-m` heap escapes inside
# hot functions diffed against internal/lint/escapes_baseline.txt. A new
# escape fails; refresh deliberate changes with
# `go run ./cmd/hanalint -write-escapes .`.
lint-hot:
	$(GO) run ./cmd/hanalint -analyzers hotalloc,boxval,stringcmp,deferhot ./...
	$(GO) run ./cmd/hanalint -escapes .

# Dump the global lock-acquisition graph (Graphviz DOT on stdout), derived
# from the interprocedural summaries. Render with:
#   make -s lint-graph | dot -Tsvg > lockgraph.svg
# Ranked nodes (internal/lint/lockrank.go) carry their rank in the label.
lint-graph:
	$(GO) run ./cmd/hanalint -lockgraph

# Prove the analyzers still catch their fixture corpus: the unit tests
# assert exact diagnostic positions, and the driver must FAIL on the
# deliberately-bad fixtures.
lint-selftest:
	$(GO) test ./internal/lint
	@if $(GO) run ./cmd/hanalint -root internal/lint/testdata/src ./... >/dev/null 2>&1; then \
		echo "hanalint found nothing in the bad-fixture corpus — analyzers are broken"; exit 1; \
	else \
		echo "hanalint correctly rejects the fixture corpus"; \
	fi

# Everything static in one gate: the full analyzer suite (guardedby,
# atomicmix and guardcall included — the fault-site coverage check runs as
# part of guardcall), the hot-path escape diff (stale baseline entries
# fail; fix with -prune-escapes), and the fixture self-test.
lint-all: lint lint-hot lint-selftest

# Machine-readable findings for the CI artifact. Always exits 0 here: the
# human-readable `lint` gate above is what fails the build; this target
# only records what it saw.
lint-json:
	-$(GO) run ./cmd/hanalint -json ./... > hanalint-findings.json
	@echo "wrote hanalint-findings.json"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Deterministic fault-injection suite (internal/chaos): seeded fault
# schedules against the full federated stack, run repeatedly under the
# race detector. See DESIGN.md "Fault model" for the site names.
chaos:
	$(GO) test -race -count=3 -skip 'TestDist' ./internal/chaos

# Distributed-execution chaos (internal/chaos dist tests): worker death
# mid-fragment with replica failover, all-replicas-down clean failure,
# transient worker faults absorbed by the guarded caller, and 2PC across
# worker participants — every completed query byte-identical, every
# failure classified, never a hang.
chaos-dist:
	$(GO) test -race -count=2 -run 'TestDist' ./internal/chaos

# Kill-at-random-point crash-recovery matrix (internal/chaos crashpoint
# harness): seeded workloads wedged at every WAL/checkpoint fault site,
# un-synced WAL tail discarded at a random byte, recovered state compared
# byte-for-byte with a no-crash oracle. Writes the per-combo JSON report
# that CI uploads as an artifact.
chaos-recovery:
	CHAOS_RECOVERY_REPORT=$(CURDIR)/CHAOS_recovery.json $(GO) test -race -count=1 -run 'TestCrashpoint' ./internal/chaos

bench:
	$(GO) test -bench=. -benchmem

# One iteration of every benchmark (compile + run sanity, not timing), plus
# the morsel-executor report. Speedup > 1 needs GOMAXPROCS > 1; the JSON
# records num_cpu so single-core runners are self-explaining, and the
# target never fails on the measured ratio.
bench-smoke:
	$(GO) test -bench . -benchtime=1x -run '^$$' .
	$(GO) run ./cmd/benchpar -sf 0.02 -workers 4 -iters 3 -out BENCH_parallel.json

# Allocation profile of the scan/agg/join workloads at SF 0.02: allocs/op,
# bytes/op, ns/op per workload. Writes the `after` section only; the
# checked-in BENCH_hotpath.json additionally embeds the pre-optimization
# `before` figures, captured once with -hotpath-before.
bench-alloc:
	$(GO) run ./cmd/benchpar -sf 0.02 -workers 4 -iters 5 -hotpath BENCH_hotpath.json

# Row-vs-vectorized executor comparison at SF 0.1: the same scan/agg/join
# workloads through the classic row path (engine.WithRowExec) and the
# default batch path, ns/op and allocs/op per workload.
bench-vector:
	$(GO) run ./cmd/benchpar -sf 0.1 -workers 4 -iters 3 -vector BENCH_vector.json

# Everything CI runs.
check: build vet lint lint-self lint-hot lint-selftest race chaos chaos-recovery chaos-dist
