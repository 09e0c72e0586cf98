GO ?= go

.PHONY: all build loc fmt vet lint lint-hot lint-graph lint-selftest lint-all lint-json test race equiv chaos chaos-recovery chaos-dist fuzz-smoke bench bench-smoke check

all: check

build:
	$(GO) build ./...

# Non-test Go lines per internal package and for the module: the count every
# CHANGES.md entry quotes (fixtures under testdata included, as always).
loc:
	@for d in internal/*/; do printf '%-24s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); done
	@printf '%-24s %6d\n' module $$(find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)

# Fails when gofmt would rewrite a file (the lint fixtures under testdata
# are deliberately left alone).
fmt:
	@out="$$(gofmt -l . | grep -v /testdata/)"; if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-specific static analysis (internal/lint via cmd/hanalint),
# including the interprocedural analyzers (lockorder, ctxflow, resleak).
# Exits non-zero on any finding; suppress deliberate violations in source
# with //lint:ignore <analyzer> <reason>. Covers the whole module — the
# analyzer sources and drivers included; the linter does not exempt itself.
lint:
	$(GO) run ./cmd/hanalint ./...

# Hot-path escape gate: `go build -gcflags=-m` heap escapes inside hot
# functions (`hanalint -hot`) diffed against internal/lint/escapes_baseline.txt.
# A new escape fails, and so does a baseline entry the compiler no longer
# reports; refresh deliberate changes with
# `go run ./cmd/hanalint -write-escapes .` or `-prune-escapes .`. Per-row
# allocations the compiler cannot see are pinned by the ZeroAllocs /
# SubLinearAllocs tests.
lint-hot:
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

# Everything static in one gate: the seven analyzers (the fault-site
# coverage check runs as part of guardcall), the hot-path escape diff (stale
# baseline entries fail; fix with -prune-escapes), and the fixture
# self-test. `make vet` is the other static gate: its copylocks check is
# what catches a copied sync/atomic value.
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

# The cross-path equivalence suites under the race detector: the same
# statements answered by different processors, placements or operators must
# agree bit for bit — federated vs all-local TPC-H (and the job DAG Hive
# compiles for it), Hive's map-side partials vs the engine, one SELECT block
# through all four back ends, hot/cold/hybrid/sharded placements, serial vs sharded
# float aggregates, worker fragments vs exec, hash vs nested-loop join, the
# vectorized scan and the sharded gather vs a naive loop — concurrent
# increments, key inserts and snapshot reads, which must hold
# first-committer-wins on every placement, keyed DML, which must answer alike
# on every placement, and a superseded version, which must stay dead across a
# restart.
EQUIV_TESTS = TestFederatedTPCHMatchesLocal|TestHiveJobsPerTPCHQuery|TestMapSidePartialsAgreeWithEngine|TestBlockBackEndAgreesAcrossProcessors|TestPlacementsAgreeOnTPCH|TestDistributedFloatAggregatesMatchSerial|TestFragmentsEqualExecOnUnshardedRows|TestHashJoinEquivalentToNestedLoop|TestScanMatchesNaiveLoop|TestGatherBatchesMatchNaiveScan|TestConcurrentIncrementsAreNotLost|TestColdSnapshotSeesOneVersion|TestConcurrentKeyInsertOneWins|TestPlacementsAgreeOnKeyedDML|TestRecoverSupersededVersionStaysDead
equiv:
	$(GO) test -race -count=1 -run '^($(EQUIV_TESTS))$$' . ./internal/exec ./internal/dist ./internal/engine ./internal/hive

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

# Every native fuzz target beyond its seed corpus, FUZZTIME each: the SQL
# parser, the value row codec, the extended store's chunk codec and table
# manifest, the two dist wire decoders, the WAL frame scanner, Hive's record
# reader (map-reduce pairs, rows, keys, aggregate states) and the savepoint
# manifest Open recovers from must return a value or an error on any input. `go test -fuzz` takes one package and one target per
# run; minimization is capped so a large interesting input does not eat the
# window. A crasher lands under the package's testdata/fuzz/.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test ./internal/sqlparse -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/value -run '^$$' -fuzz '^FuzzDecodeRow$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/diskstore -run '^$$' -fuzz '^FuzzDecodeChunk$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/diskstore -run '^$$' -fuzz '^FuzzLoadManifest$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/dist -run '^$$' -fuzz '^FuzzDecodeChunk$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/dist -run '^$$' -fuzz '^FuzzDecodeFragment$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/txn -run '^$$' -fuzz '^FuzzScanRecords$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/hive -run '^$$' -fuzz '^FuzzReadRecords$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzLoadSavepoint$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

bench:
	$(GO) test -bench=. -benchmem

# One iteration of every paper-figure benchmark in the root package: compile
# + run sanity, not timing. Timing is benchmark/run.sh (benchmark/README.md).
bench-smoke:
	$(GO) test -bench . -benchtime=1x -run '^$$' .

# Everything CI runs.
check: build fmt vet lint lint-hot lint-selftest equiv race chaos chaos-recovery chaos-dist
