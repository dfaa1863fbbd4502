# Convenience targets for the lmas emulation library. Everything here is a
# thin wrapper over the go tool; no target is required by CI or the build.

.PHONY: all build test race bench bench-smoke bench-allocs baseline tables monitor perf perf-compare loc

all: build

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Full benchmark suite (figures/tables + kernel microbenchmarks).
bench:
	go test -bench=. -benchmem ./...

# One iteration of every benchmark: catches broken benchmark code fast.
bench-smoke:
	go test -bench=. -benchtime=1x ./...

# Allocation regression gate for the buffer pool: fail if the run-formation
# benchmark's steady-state allocs/op exceed the budget (measured ~3.9k after
# pooling; 4600 leaves headroom without allowing a copying regression).
ALLOC_BUDGET := 4600
# The observer path's gates: storing a span, recording a trace event, and a
# typed-arg event from the call site through the sink and the recorder bridge
# to its span line are alloc-free, and the traced+recorded quick cell
# (measured 5.3k allocs/op; 36.7k when trace args were boxed in `any`,
# 100.6k before the hand span encoder) stays within a third of that.
OBSERVED_ALLOC_BUDGET := 7000
# alloc_gate(package, benchmark, benchtime, max allocs/op, what a failure means)
define alloc_gate
out=$$(go test $(1) -run 'TestXXX' -bench '$(2)$$' -benchmem -benchtime $(3) | tee /dev/stderr); \
allocs=$$(echo "$$out" | awk '/^$(2)/ {print $$(NF-1)}'); \
if [ -z "$$allocs" ]; then echo "bench-allocs: could not parse $(2) allocs/op"; exit 1; fi; \
if [ "$$allocs" -gt $(4) ]; then \
	echo "bench-allocs: $(2) is $$allocs allocs/op, want <= $(4) ($(5))"; exit 1; \
fi; \
echo "bench-allocs: $(2) $$allocs allocs/op within $(4)"
endef
# The input loader generates straight into pooled packets, so with the pool
# warm it allocates bookkeeping only (measured ~0.35 MB/op for 2^17 records;
# 16.9 MB/op when it built a buffer of every record first).
INPUT_BYTES_BUDGET := 1048576
# The merge pass's 72 k-way merges share pooled mergers and keep their refill
# closures on the stack (measured ~2.6k allocs/op); one allocation per merge
# — a refill closure stored in the merger reads 2 678 — fails the gate.
MERGE_ALLOC_BUDGET := 2650
# bytes_gate(package, benchmark, benchtime, max B/op, what a failure means)
define bytes_gate
out=$$(go test $(1) -run 'TestXXX' -bench '$(2)$$' -benchmem -benchtime $(3) | tee /dev/stderr); \
bytes=$$(echo "$$out" | awk '/^$(2)/ {print $$(NF-3)}'); \
if [ -z "$$bytes" ]; then echo "bench-allocs: could not parse $(2) B/op"; exit 1; fi; \
if [ "$$bytes" -gt $(4) ]; then \
	echo "bench-allocs: $(2) is $$bytes B/op, want <= $(4) ($(5))"; exit 1; \
fi; \
echo "bench-allocs: $(2) $$bytes B/op within $(4)"
endef
bench-allocs:
	@$(call alloc_gate,./internal/dsmsort,BenchmarkRunFormationOnly,10x,$(ALLOC_BUDGET),run formation copies instead of pooling)
	@$(call alloc_gate,./internal/sim,BenchmarkSpawnKillSteadyState,100000x,0,proc recycling broken?)
	@$(call alloc_gate,./internal/sim,BenchmarkResourceContention,100000x,0,park reason allocates per contended acquire)
	@$(call alloc_gate,./internal/sim,BenchmarkFarTimerSteadyState,2000x,0,wheel chunks not recycled through the free list)
	@$(call alloc_gate,./internal/recorder,BenchmarkStoreSpan,1000000x,0,span encoder or chunk hand-off allocates per span)
	@$(call alloc_gate,./internal/trace,BenchmarkSinkSpan,1000000x,0,trace sink allocates per event instead of per chunk)
	@$(call alloc_gate,./internal/cluster,BenchmarkSinkSpanArgs,200000x,0,a trace arg is boxed or copied between call site and span line)
	@$(call alloc_gate,./internal/experiments,BenchmarkObservedQuickCell,10x,$(OBSERVED_ALLOC_BUDGET),traced+recorded quick cell over budget)
	@$(call bytes_gate,./internal/dsmsort,BenchmarkMakeInput,10x,$(INPUT_BYTES_BUDGET),the input loader builds an N-record buffer again)
	@$(call alloc_gate,./internal/dsmsort,BenchmarkMergePassOnly,100x,$(MERGE_ALLOC_BUDGET),a merger or refill closure or scratch slice allocates per merge)

# Regenerate the CI perf-gate baseline after an INTENTIONAL performance
# change (simulated runtimes moved for a good reason). -stamp=false keeps
# the file byte-reproducible; commit the result.
baseline:
	go run ./cmd/lmasreport bench -quick -stamp=false -o bench/baseline.json

# Regenerate the committed output of every asulab experiment after an
# INTENTIONAL change to a table (CI cmps `asulab all` against this file, so
# EXPERIMENTS.md cannot drift from the commands it documents); commit the
# result and update the Measured blocks that quote it.
tables:
	go run ./cmd/asulab all > bench/asulab_all.txt

# Run the quick bench with the live dashboard and a run store attached:
# open the printed address in a browser to watch cells stream in, and query
# the recorded runs afterwards with `lmasreport query runs ...`.
monitor:
	go run ./cmd/lmasreport bench -quick -stamp=false -o /dev/null \
		-record runs -serve 127.0.0.1:8070

# Host-time benchmark (perf/README.md): all four workloads, 20-s windows,
# one record per workload appended to .perf_out/runs.jsonl.
perf:
	go run ./perf

# Noise-aware comparison of two sets of perf runs, e.g. parent vs change:
#   make perf-compare A=parent.jsonl B=change.jsonl
perf-compare:
	@if [ -z "$(A)" ] || [ -z "$(B)" ]; then echo "usage: make perf-compare A=runs_a.jsonl B=runs_b.jsonl"; exit 2; fi
	go run ./perf compare $(A) $(B)

# The size every simplicity PR quotes: lines of non-test Go outside perf/
# (comments and blanks included — a PR may not shrink it by deleting those).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perf/*' | xargs cat | wc -l
