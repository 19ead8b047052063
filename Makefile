# The verify target is the tier-1 gate: CI runs it, and it is the
# command to run before sending a change.

.PHONY: verify build test test-race bench wheel rpsweep ifsweep vasweep enginebench cpisweep stats trace tenants fmt-check vet perfbench-check

# J is the sweep parallelism the sweep targets pass to momexp; override
# with `make rpsweep J=1` to force a serial run.
J ?= $(shell nproc)

verify: build test

build:
	go build ./...

test:
	go test ./...

# test-race reruns the suite under the race detector; the simulator is
# single-threaded by design, so a report here means shared state leaked
# between a test's goroutines (parallel subtests, fuzz workers).
test-race:
	go test -race ./...

# bench runs every benchmark exactly once as a perf-path smoke test:
# a panic or regression in the hot simulation loops breaks the build
# without paying for a full statistical benchmarking run. The momsim
# invocations smoke the non-blocking memory pipeline (-mshr 8), the
# stream prefetcher riding it (-mshr 16 -pf 8), and the history row
# predictor under prefetch traffic (-rp history -pf 8) on the
# full-size gsmencode stream, paths the Go benchmarks do not cross.
bench:
	go test -run '^$$' -bench . -benchtime 1x ./...
	go run ./cmd/momsim -bench gsmencode -isa mom3d -mem vcache3d -dram sdram -mshr 8
	go run ./cmd/momsim -bench gsmencode -isa mom3d -mem vcache3d -dram sdram -mshr 16 -pf 8
	go run ./cmd/momsim -bench gsmencode -isa mom3d -mem vcache3d -dram sdram -mshr 16 -rp history -pf 8

# stats smokes the observability layer end to end: a tiny run with the
# registry exporter on, then the pretty-printed snapshot so a reader
# can eyeball every registered name.
stats:
	go run ./cmd/momsim -bench gsmencode -dram sdram -mshr 8 -pf 4 -statsjson /tmp/momsim_stats.json
	@python3 -m json.tool /tmp/momsim_stats.json 2>/dev/null || cat /tmp/momsim_stats.json

# trace smokes the cycle-stamped event tracer under the race detector:
# the emitting hot paths and the ring buffer must stay race-free with
# the exporter attached, and the emitted file must be Chrome-loadable
# JSON (the momsim tests parse one back; this exercises the full-size
# binary path).
trace:
	go test -race -run 'TestTracer|TestResolveObservability' ./internal/stats/ ./cmd/momsim/
	go test -race -count=1 -run 'TestTraceParseBackWheelTenants|TestTraceRingWrapMonotonic' ./internal/tenant/
	go run -race ./cmd/momsim -bench gsmencode -dram sdram -mshr 8 -pf 4 -trace /tmp/momsim_trace.json -tracebuf 65536
	@python3 -c "import json; d=json.load(open('/tmp/momsim_trace.json')); print('trace OK:', len(d['traceEvents']), 'events')"

# wheel runs the wheel-vs-step equivalence suite under the race
# detector: the engine data structures, the golden-table and
# per-feature bit-identity tests in internal/core, the multi-tenant
# lockstep equivalence, and the sweep-level parallel/serial and
# wheel/step byte-identity checks.
wheel:
	go test -race -count=1 \
		-run 'TestRing|TestQueue|TestWheelMatchesStep|MatchesSerial|TestIFSweepWheelMatchesStep' \
		./internal/engine/ ./internal/core/ ./internal/tenant/ ./internal/experiments/

# rpsweep regenerates the full-size per-bank row-policy matrix
# (EXPERIMENTS.md's reference table): open/close/timer/history ×
# demand-only and prefetch traffic on the streaming kernels, on the
# event-wheel engine with cells sharded across the host's CPUs.
rpsweep:
	go run ./cmd/momexp -rpsweep -engine wheel -j $(J) -q

# ifsweep regenerates the multi-tenant interference matrix
# (EXPERIMENTS.md's reference table): every tenant mix solo, shared
# under plain FR-FCFS, and shared under QoS credit scheduling.
ifsweep:
	go run ./cmd/momexp -ifsweep -engine wheel -j $(J) -q

# vasweep regenerates the placement-policy × kernel-mix matrix under
# address translation (EXPERIMENTS.md's reference table): every
# interference mix under first-fit, page coloring and co-location on
# the banked part, where each 4 KiB page maps wholly to one channel.
vasweep:
	go run ./cmd/momexp -vasweep -engine wheel -j $(J) -q

# enginebench measures wheel-vs-step host throughput on the full-size
# motionsearch HBM rows and the golden matrix, writing BENCH_PR8.json.
enginebench:
	go run ./cmd/momexp -enginebench BENCH_PR8.json -q

# cpisweep regenerates the CPI-stack cycle-attribution table
# (EXPERIMENTS.md's reference table) over the extended full-size suite
# and the backend ladder, writing BENCH_PR10.json; every row's buckets
# are asserted to sum to its cycle count before rendering.
cpisweep:
	go run ./cmd/momexp -cpisweep BENCH_PR10.json -engine wheel -q

# tenants smokes the multi-requestor front end under the race detector:
# two motionsearch instances in lockstep on one shared QoS-scheduled
# part, with the per-tenant registry exporter on. The lockstep group and
# the sharded stat paths must stay race-free, and the export must carry
# both tenants' shards.
tenants:
	go run -race ./cmd/momsim -bench motionsearch -isa mom3d -mem vcache3d \
		-dram sdram -tenants 2 -qos -statsjson /tmp/momsim_tenants.json
	@python3 -c "import json; d=json.load(open('/tmp/momsim_tenants.json')); \
		names=list(d['counters'])+list(d['gauges'])+list(d['histograms']); \
		assert any(n.startswith('tenant.0.') for n in names), 'tenant 0 shard missing'; \
		assert any(n.startswith('tenant.1.dram.') for n in names), 'tenant 1 dram shard missing'; \
		print('tenants OK:', sum(n.startswith('tenant.') for n in names), 'per-tenant stat names')"

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# perfbench-check vets and builds the host benchmark, a nested module
# (perfbench/go.mod) that the root `go build ./...` skips: an API change
# that breaks it fails here. -o /dev/null keeps the binary out of the
# tree.
perfbench-check:
	cd perfbench && go vet ./... && go build -o /dev/null ./...
