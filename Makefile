GO ?= go
BENCHTIME ?= 1s
# CPU counts benchmarks run under; each variant reports as Name-N.
BENCH_CPU ?= 1,4
# Benchmark output file; CI writes BENCH_ci.json and uploads it as an
# artifact. Neither is committed.
BENCH_OUT ?= BENCH.json
# Where `make profile` drops pprof output.
PROFILE_DIR ?= profiles
# Fixed seed matrix for reproducible consensus-sim runs; on an invariant
# violation the harness fails with the seed embedded in the message, so the
# failing schedule replays with SIM_SEEDS=<that seed> make sim.
SIM_SEEDS ?= 1-100

.PHONY: all vet lint build test race bench bench-check benchmark profile sim check

all: check

vet:
	$(GO) vet ./...

# Full static-analysis pass, one command:
#   - go vet (standard analyzers)
#   - staticcheck, when installed locally; CI pins and always runs it
#     (see .github/workflows/ci.yml), so a missing local install skips
#     with a note instead of failing the target.
# Determinism has no linter: TestSimDeterministicReplay compares every
# frame of two runs of one seed.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "lint: staticcheck not installed locally; CI runs the pinned version" ; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# Simulation matrix: real nodes over the Hub with loss, reordering,
# partitions, Byzantine scripts and simulated clients, race-enabled. A
# failure prints the seed that produced it.
sim:
	SIM_SEEDS=$(SIM_SEEDS) $(GO) test -race -count=1 -run 'TestSim' ./internal/sim/ -v

bench:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=$(BENCHTIME) -cpu=$(BENCH_CPU) -json ./... > $(BENCH_OUT) \
		|| { tail -5 $(BENCH_OUT); exit 1; }
	@grep -o '"Output":".*Benchmark[^"]*' $(BENCH_OUT) | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true

# The repository's benchmark: the command BENCHMARK.json declares, run from
# the repo root. bench/ is a module of its own (see bench/README.md for
# workloads, -trace and -compare), so `make build`/`make test` never touch
# it; CI vets and smoke-tests it separately. ARGS passes flags through:
#   make benchmark ARGS='-workload rpc4.closed2 -seconds 5'
benchmark:
	$(GO) run -C bench iaccf/bench $(ARGS)

# CPU and heap profiles of the commit hot path under many authors writing
# 3 keys each (BenchmarkConsensusCommitCrossShard), plus the test binary
# pprof needs to symbolize them. Start digging with:
#   go tool pprof $(PROFILE_DIR)/consensus.test $(PROFILE_DIR)/mem.out
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run=NONE -bench=BenchmarkConsensusCommitCrossShard -benchmem \
		-benchtime=$(BENCHTIME) \
		-cpuprofile=$(PROFILE_DIR)/cpu.out -memprofile=$(PROFILE_DIR)/mem.out \
		-o $(PROFILE_DIR)/consensus.test ./internal/consensus/
	@echo "profiles in $(PROFILE_DIR)/: cpu.out mem.out (binary: consensus.test)"

# Regression gate: counts, which do not drift with the machine as ns/op
# does. Retained ledger batches and bytes stay under the window +
# checkpoint-interval cap however long the run (TestBoundedMemory); a
# commit's objects and bytes per entry, its signs, verifies and frames per
# batch (TestAllocsPerCommit, TestSignaturesPerBatch at W = 1 and 4) and an
# incremental d_C's objects (TestCheckpointDigestAllocs) stay at what was
# measured; the store keeps under one live heap object per key
# (TestLiveObjectsPerKey); a warm receipt check allocates nothing
# (TestReceiptVerifyWarmIsAComparison). Wall-clock figures live in bench/.
bench-check:
	$(GO) test -count=1 -run '^(TestBoundedMemory|TestAllocsPerCommit|TestSignaturesPerBatch|TestCheckpointDigestAllocs|TestLiveObjectsPerKey|TestReceiptVerifyWarmIsAComparison)$$' ./internal/...

check: lint build race
