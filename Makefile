GO ?= go
BENCHTIME ?= 1s
# CPU counts benchmarks run under; benchcmp keeps each variant apart as
# Name-N, so the regression gate watches the one-CPU and the four-CPU run
# separately.
BENCH_CPU ?= 1,4
# Benchmark output file; CI writes BENCH_ci.json and uploads it as an
# artifact. Neither is committed.
BENCH_OUT ?= BENCH.json
# The one committed go-test-bench baseline the regression gate compares
# against (recorded by PR 7; the end-to-end benchmark keeps its own
# baseline under bench/).
BENCH_BASELINE ?= BENCH_pr7.json
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
#   - iaccfvet (this repo's invariant analyzers: viewretain, detiter,
#     detsource — see internal/analysis/README.md), driven
#     through `go vet -vettool` so it shares the build cache
#   - staticcheck, when installed locally; CI pins and always runs it
#     (see .github/workflows/ci.yml), so a missing local install skips
#     with a note instead of failing the target.
lint: vet
	$(GO) build -o bin/iaccfvet ./cmd/iaccfvet
	$(GO) vet -vettool=$(CURDIR)/bin/iaccfvet ./...
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

# Benchmark-regression gate: the watched hot paths must stay within 15% of
# the committed baseline on ns/op, B/op, and allocs/op, the pipelined
# consensus window must sustain the serial (window=1) baseline's
# throughput, the bounded-memory workload must keep its retained ledger
# residency under the window + checkpoint-interval cap (absolute, however
# long the run — a leak grows with b.N and blows the cap), and the store
# must keep fewer than one live heap object per key it holds (absolute too: the
# trie stores bytes, and a pointer per entry is what would break it), and a
# warm receipt check must not allocate (its header is found by comparison).
bench-check:
	$(GO) run ./cmd/benchcmp \
		-baseline $(BENCH_BASELINE) -current $(BENCH_OUT) \
		-watch BenchmarkConsensusCommit -watch BenchmarkCheckpointDigest/incremental \
		-faster 'BenchmarkConsensusCommit/entries=1024/window=4:BenchmarkConsensusCommit/entries=1024/window=1' \
		-faster 'BenchmarkConsensusCommit/entries=128/window=4:BenchmarkConsensusCommit/entries=128/window=1' \
		-max 'BenchmarkConsensusBoundedMemory:retained-batches:8' \
		-max 'BenchmarkConsensusBoundedMemory:retained-bytes:65536' \
		-max 'BenchmarkStoreInsert:live-objects/key:1' \
		-max 'BenchmarkReceiptVerify/warm:allocs/op:0'

check: lint build race
