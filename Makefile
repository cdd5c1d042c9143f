# resilex — build / test / reproduce targets.

GO ?= go

.PHONY: all build fmt-check vet test race cover fuzz fuzz-smoke fuzz-lint check bench microbench experiments examples metrics-smoke metrics-lint doc-smoke cache-smoke cluster-smoke refresh-smoke alloc-gate spanner-gate benchmark-check clean

all: build vet test

# The robustness gate: static checks, the full suite under the race
# detector, the fuzz lint (every Fuzz* function in the tree registered in
# FUZZ_TARGETS, both directions), a short fuzz smoke over every fuzz
# target, the observability smoke over the worked example, the metrics
# lint (registered names vs the DESIGN.md §6 reference, both directions),
# the godoc smoke over the serving-path APIs, the cache-hit-rate smoke
# over a quick E16 run, the sharded cluster smoke (boot router + 2 shards,
# replicate, extract, failover, assemble the request trace across both
# processes), the refresh smoke (drift -> canary -> promote, break ->
# rollback), the streaming alloc gate (zero-alloc warm paths +
# one-pass/two-pass differential fuzz smoke), the spanner gate (the
# one-pass k-ary spanner differentials against the naive k-nested oracle),
# and the example programs (the runnable library surface, run end to end).
check: fmt-check vet race fuzz-lint fuzz-smoke metrics-smoke metrics-lint doc-smoke cache-smoke cluster-smoke refresh-smoke alloc-gate spanner-gate examples

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Every fuzz target in the tree as Name:./package-dir/ pairs — the single
# source of truth `fuzz`, `fuzz-smoke` and the scheduled CI long-fuzz
# iterate over, reconciled against the tree by `make fuzz-lint`: a Fuzz*
# function added without a row here fails `make check`.
FUZZ_TARGETS := \
	FuzzParse:./internal/rx/ \
	FuzzParseMarked:./internal/rx/ \
	FuzzScan:./internal/htmltok/ \
	FuzzStreamerChunks:./internal/htmltok/ \
	FuzzLoadWrapper:./internal/wrapper/ \
	FuzzLoadFleet:./internal/wrapper/ \
	FuzzDecodeArtifact:./internal/extract/ \
	FuzzStreamTwoPassEquiv:./internal/extract/ \
	FuzzDeterminizeEquiv:./internal/machine/ \
	FuzzDecodeVersionRecord:./internal/cluster/ \
	FuzzSpannerOracleEquiv:./internal/spanner/ \
	FuzzExtractRequestDecode:./internal/serve/ \
	FuzzTuplesBody:./internal/serve/ \
	FuzzAPISequence:./internal/seqfuzz/

# One fuzz session per registered target; $(1) is the per-target budget.
define run-fuzz
	@set -e; for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; dir=$${t#*:}; \
		echo "==> fuzz $$name ($$dir, $(1))"; \
		$(GO) test -fuzz=^$$name\$$ -fuzztime=$(1) $$dir; \
	done
endef

# Fuzz session over every registered target. Override FUZZTIME for longer
# campaigns (the weekly CI job runs `make fuzz FUZZTIME=10m`).
FUZZTIME ?= 10s
fuzz:
	$(call run-fuzz,$(FUZZTIME))

# 5s per target, for the check gate.
fuzz-smoke:
	$(call run-fuzz,5s)

# Fuzz lint: FUZZ_TARGETS and the tree's Fuzz* functions must agree, both
# directions. Fails listing unregistered targets or stale rows.
fuzz-lint:
	sh scripts/fuzz_lint.sh $(FUZZ_TARGETS)

# The serving-path experiments at a fixed seed: E16 throughput (docs/sec,
# p50/p99 latency, cache hit rate), E17 persistence (cold-compile vs
# warm-disk vs warm-memory first-request latency), E18 cluster scaling
# (1/2/4-shard throughput under a modeled shard capacity plus a
# kill-one-shard failover run) and E19
# continuous refresh (drift -> canary -> promote, break -> rollback, zero
# failed requests), E20 tracing overhead (traced vs untraced cached-batch
# p50), E21 streaming extraction (one-pass zero-alloc path vs the
# materialized two-scan) and E22 k-ary spanner extraction (one-pass
# multi-split automaton vs k-nested sequential passes), written to
# ./BENCH_E16.json ... ./BENCH_E22.json.
bench:
	$(GO) run ./cmd/resilience -run E16,E17,E18,E19,E20,E21,E22 -seed 1 -bench-dir .

# Go microbenchmarks (go test -bench) over every package.
microbench:
	$(GO) test -bench=. -benchmem ./...

# The EXPERIMENTS.md tables.
experiments:
	$(GO) run ./cmd/resilience

# Observability smoke: the schema tests, then an end-to-end run — train the
# Section 7 wrapper from the fig1 fixtures, extract with --metrics, and
# check the snapshot carries the subset-construction counters.
metrics-smoke:
	$(GO) test ./cmd/extract -run 'TestMetrics|TestTrace' -v
	mkdir -p .smoke
	$(GO) run ./cmd/wrapgen -o .smoke/wrapper.json -extra DIV,/DIV,HR \
		cmd/extract/testdata/fig1_page1.html cmd/extract/testdata/fig1_page2.html
	$(GO) run ./cmd/extract -w .smoke/wrapper.json -metrics -metrics-out .smoke/metrics.json \
		cmd/extract/testdata/fig1_novel.html
	grep -q machine_subset_states_total .smoke/metrics.json
	rm -rf .smoke

# Metrics lint: every metric name registered in code must have a row in
# the DESIGN.md §6 reference tables, and every documented name must still
# exist in code. Fails listing undocumented or stale names.
metrics-lint:
	sh scripts/metrics_lint.sh

# godoc smoke: the serving-path APIs keep rendering documentation.
doc-smoke:
	$(GO) doc resilex/internal/machine Dense >/dev/null
	$(GO) doc resilex/internal/extract Cache >/dev/null
	$(GO) doc resilex/internal/wrapper Fleet.ExtractBatch >/dev/null
	$(GO) doc resilex/internal/extract StreamMatcher >/dev/null
	$(GO) doc resilex/internal/wrapper StreamExtractor.ExtractReaderTo >/dev/null
	$(GO) doc resilex/internal/serve Server >/dev/null
	$(GO) doc resilex/internal/cluster Router >/dev/null
	$(GO) doc resilex/cmd/serve >/dev/null

# Cache smoke: a quick E16 run must show a repeated-wrapper hit rate in
# the nineties.
cache-smoke:
	$(GO) run ./cmd/resilience -quick -run E16 -json | grep -qE '"9[0-9]\.[0-9]"'

# Cluster smoke: boot a router + 2 shards, PUT a wrapper through the router
# (replicated to both owners), extract through the router, kill a shard,
# extract again (failover), then DELETE and confirm the key is gone.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Streaming alloc gate: the zero-allocation assertions on every warm
# streaming layer (matcher run, tokenizer feed, resolver lookup, wrapper
# serve path), the page-size-flat allocation bound on the in-memory
# Resolve path, plus a
# short differential fuzz of the one-pass matcher against the two-scan
# oracle and of the chunked tokenizer against Scan. Guards the 0 allocs/op
# and boundary-straddling invariants ISSUE 8 introduced.
# It also bounds a warm spanner Run plus All on E22's pages at the vectors
# it hands out + 16, a warm TupleWrapper.ExtractAllTo (the tuples route's
# pooled session, reading each record off the spanner's borrowed vector) at
# 6 allocations whatever the number of records, and the POST /extract body
# decoder's fast path at 12 allocations per body.
alloc-gate:
	$(GO) test -run 'TestStreamRunZeroAlloc|TestStreamMatcherEquivalence' -count=1 ./internal/extract/
	$(GO) test -run 'TestStreamerFeedNoAllocWarm|TestStreamerMatchesScan|TestResolveAllocsFlat|TestResolverSymNoAlloc' -count=1 ./internal/htmltok/
	$(GO) test -run 'TestStreamZeroAllocWarm|TestStreamMatchesExtract|TestStreamLargePageConstantState|TestExtractAllToAllocsWarm' -count=1 ./internal/wrapper/
	$(GO) test -run 'TestRunAllocsWarm' -count=1 ./internal/bench/
	$(GO) test -run 'TestDecodeExtractRequestAllocs' -count=1 ./internal/serve/
	$(GO) test -fuzz=FuzzStreamTwoPassEquiv -fuzztime=5s ./internal/extract/
	$(GO) test -fuzz=FuzzStreamerChunks -fuzztime=5s ./internal/htmltok/

# Spanner gate: the one-pass k-ary spanner against the naive k-nested
# oracle — the deterministic differentials plus a short fuzz of arbitrary
# tuple expressions over arbitrary words, guarding the multi-split
# automaton in internal/spanner.
# The pool tests check that failed, drained, abandoned and concurrent runs
# leave each program's arena pool clean, that memory follows the reached
# nodes, and the deadline-poll cadence. The memo tests check that a run
# reaches no doomed state and that runs on a fresh, a warm and a cleared row
# memo agree.
spanner-gate:
	$(GO) test -run 'TestProgramMatchesOracle|TestUnambiguousTupleInvariant|TestRecordEnumeration' -count=1 ./internal/spanner/
	$(GO) test -run 'TestRerunAfterFailedPass|TestDrainedVectorsSurviveReuse|TestAbandonedCursorLeavesNoTrace|TestConcurrentRunsOfTwoPrograms|TestDeadlinePollCadence|TestRunMemoryBoundedByNodes' -count=1 ./internal/spanner/
	$(GO) test -run 'TestRunReachesNoDoomedState|TestMemoColdWarmCleared' -count=1 ./internal/spanner/
	$(GO) test -fuzz=FuzzSpannerOracleEquiv -fuzztime=5s ./internal/spanner/

# Refresh smoke: boot one node with the drift watcher on, PUT v1, drop a
# drifted sample and drive drifted traffic until the watcher canaries and
# promotes the re-induced wrapper, then swap the spool to an alien family
# and confirm the bad canary rolls back — with every request answered.
refresh-smoke:
	sh scripts/refresh_smoke.sh

# Benchmark module check: the serving benchmark (benchmark/) is its own Go
# module, so `go test ./...` from the root never builds it, yet it compiles
# against the extract, wrapper and serve APIs. Vet and test it; its tests
# create scratch directories under .bench_build, so make that first.
benchmark-check:
	mkdir -p .bench_build && cd benchmark && $(GO) vet ./... && $(GO) test ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/shopbot
	$(GO) run ./examples/resilience
	$(GO) run ./examples/catalog
	$(GO) run ./examples/tuples
	$(GO) run ./examples/maintenance

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
