# Convenience targets for the lmas emulation library. Everything here is a
# thin wrapper over the go tool; no target is required by CI or the build.

.PHONY: all build test race bench bench-smoke bench-allocs baseline monitor perf perf-compare

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
bench-allocs:
	@out=$$(go test ./internal/dsmsort -run 'TestXXX' -bench BenchmarkRunFormationOnly -benchmem -benchtime 10x | tee /dev/stderr); \
	allocs=$$(echo "$$out" | awk '/BenchmarkRunFormationOnly/ {print $$(NF-1)}'); \
	if [ -z "$$allocs" ]; then echo "bench-allocs: could not parse allocs/op"; exit 1; fi; \
	if [ "$$allocs" -gt $(ALLOC_BUDGET) ]; then \
		echo "bench-allocs: $$allocs allocs/op exceeds budget $(ALLOC_BUDGET)"; exit 1; \
	fi; \
	echo "bench-allocs: $$allocs allocs/op within budget $(ALLOC_BUDGET)"
	@out=$$(go test ./internal/sim -run 'TestXXX' -bench BenchmarkSpawnKillSteadyState -benchmem -benchtime 100000x | tee /dev/stderr); \
	allocs=$$(echo "$$out" | awk '/BenchmarkSpawnKillSteadyState/ {print $$(NF-1)}'); \
	if [ -z "$$allocs" ]; then echo "bench-allocs: could not parse spawn/kill allocs/op"; exit 1; fi; \
	if [ "$$allocs" -gt 0 ]; then \
		echo "bench-allocs: steady-state spawn/kill is $$allocs allocs/op, want 0 (proc recycling broken?)"; exit 1; \
	fi; \
	echo "bench-allocs: steady-state spawn/kill alloc-free"

# Regenerate the CI perf-gate baseline after an INTENTIONAL performance
# change (simulated runtimes moved for a good reason). -stamp=false keeps
# the file byte-reproducible; commit the result.
baseline:
	go run ./cmd/lmasreport bench -quick -stamp=false -o bench/baseline.json

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
