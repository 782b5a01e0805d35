GO ?= go

.PHONY: build test check fmt vet race leaks allocs fuzz sim bench benchtest pins smoke attrib warmsweep shardreplay

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet covers the benchmark module too: bench/ is a module of its own, so
# `go vet ./...` never enters it.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# fmt fails when gofmt would reformat any Go file in the tree (bench/
# included), listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting (run gofmt -w):"; echo "$$out"; exit 1; fi

# race runs the whole test suite under the race detector, twice, to shake
# out ordering dependence. Under the race detector internal/experiments
# takes ~12 minutes per count on a 2-core host (718 s with -count=1), so
# two counts outlast go test's 10-minute default, hence -timeout. It skips
# the allocation-budget tests (the allocs pattern below): race
# instrumentation allocates on its own, so their counts drift under it.
race:
	$(GO) test -race -count=2 -skip 'Allocs|Allocat(es|ing)' -timeout 30m ./...

# leaks runs the retention tests (TestLeak*: a finished job's engine, a
# finished job's shuffle rows, a settled job's workload, a finished run's
# job list, an ended Lambda's record, a released Lambda's callback, a
# finished flow's callback, a fired or cancelled timer's func must all
# become unreachable) three times
# outside the race detector. Their assertions depend on the garbage collector, so a flake
# shows up as its own step.
leaks:
	$(GO) test -count=3 -run '^TestLeak' ./...

# allocs runs the allocation-budget tests (allocation counts: a registry
# hit, a warm clock event allocates nothing, a JSONL line, an emitted
# event, a network flow, a shuffle regroup, a report's JSON, a merge of
# event logs, an attribution pass, a token-SparkPi cluster day per job)
# outside the race detector, whose instrumentation adds allocations of its
# own.
allocs:
	$(GO) test -count=1 -run 'Allocs|Allocat(es|ing)' ./...

# fuzz gives each native fuzz target a short budget — enough to catch
# parser panics and encoder mismatches without turning CI into a fuzzing
# farm. -fuzzminimizetime caps the minimization of each new interesting
# input: go's default (60 s) would let one input eat the whole budget.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/simclock -run '^$$' -fuzz FuzzTimerWheel -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/netsim -run '^$$' -fuzz FuzzNetwork -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/spark/shuffle -run '^$$' -fuzz FuzzRegroup -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzParseArrivals -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/tracereplay -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/costmgr -run '^$$' -fuzz FuzzLoadProfiles -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/cliutil -run '^$$' -fuzz FuzzValidateReport -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/eventlog -run '^$$' -fuzz FuzzWriteJSONL -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/eventlog -run '^$$' -fuzz FuzzBusStream -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzReportJSON -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/attrib -run '^$$' -fuzz FuzzCauseColumns -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

# check is the full pre-commit gate: the gofmt gate, static analysis of
# both modules, the race run, the retention tests, the allocation-budget
# tests, the benchmark module's tests, a short fuzz budget per target,
# then the event-log smoke round-trip.
check:
	$(MAKE) fmt
	$(MAKE) vet
	$(MAKE) race
	$(MAKE) leaks
	$(MAKE) allocs
	$(MAKE) benchtest
	$(MAKE) fuzz
	$(MAKE) smoke
	$(MAKE) attrib
	$(MAKE) shardreplay

# benchtest runs the tests of the benchmark in bench/ (BENCHMARK.json). It
# is a module of its own, so `go test ./...` never enters it. They pin the
# seed-1 digest of every workload's report JSON and event log.
benchtest:
	cd bench && $(GO) test ./...

# pins runs every byte-identity pin in one command: the *Golden and *Pins
# tests of the main module (single-job pins, cluster and CLI goldens, the
# recipe digests), the exact BurScale rows, then the benchmark module's
# seed-1 digests.
pins:
	$(GO) test -run 'Golden|Pins|TestExtensionBurScale$$' ./...
	$(MAKE) benchtest

# smoke round-trips the observability pipeline (run a small cluster day,
# save its event log, replay it through splitserve-history, convert it to
# a Chrome trace), the cost manager (profile one workload, then let
# -cores auto schedule from the curves), and the warm-pool substrate (a
# bridged shuffle-reuse stream on a warm pool with the /tmp cache, whose
# event log must carry the new vocabulary and replay cleanly). CI uploads
# smoke/trace.json, smoke/profiles.json and smoke/cluster-report.json as
# artifacts.
smoke:
	mkdir -p smoke
	$(GO) run ./cmd/splitserve-cluster -jobs 3 -mix sparkpi -pool 8 \
		-eventlog smoke/events.jsonl > /dev/null
	$(GO) run ./cmd/splitserve-history -log smoke/events.jsonl \
		-trace smoke/trace.json
	@test -s smoke/trace.json && echo "smoke: event log replayed, trace written to smoke/trace.json"
	$(GO) run ./cmd/splitserve-profile -out smoke/profiles.json -workloads sparkpi
	$(GO) run ./cmd/splitserve-cluster -jobs 3 -mix sparkpi -pool 8 \
		-cores auto -profiles smoke/profiles.json -alloc min-cost \
		-report json > smoke/cluster-report.json
	@grep -q '"alloc": "min-cost"' smoke/cluster-report.json \
		&& echo "smoke: profile -> schedule round trip OK (smoke/cluster-report.json)"
	$(GO) run ./cmd/splitserve-cluster -jobs 3 -mix shufflereuse -pool 4 \
		-arrival poisson:12s -warmpool 4 -tmpcache \
		-eventlog smoke/warm-events.jsonl > /dev/null
	@grep -q '"type":"lambda_warm_hit"' smoke/warm-events.jsonl \
		&& grep -q '"type":"tmp_cache_hit"' smoke/warm-events.jsonl \
		&& grep -q '"type":"warmpool_resize"' smoke/warm-events.jsonl \
		&& echo "smoke: warm-pool event vocabulary present in smoke/warm-events.jsonl"
	$(GO) run ./cmd/splitserve-history -log smoke/warm-events.jsonl \
		-trace smoke/warm-trace.json
	@test -s smoke/warm-trace.json && echo "smoke: warm-pool event log replayed, trace written to smoke/warm-trace.json"

# attrib smokes the causal-attribution pipeline (OBSERVABILITY.md,
# Layer 4): run a small cluster day, write its attribution report,
# render the /attrib waterfall HTML, then diff the report against itself
# — which must come out all-zeros ("no change"). CI uploads
# smoke/attrib.json and smoke/attrib.html as artifacts.
attrib:
	mkdir -p smoke
	$(GO) run ./cmd/splitserve-cluster -jobs 3 -mix sparkpi -pool 8 \
		-eventlog smoke/attrib-events.jsonl -attrib smoke/attrib.json > /dev/null
	$(GO) run ./cmd/splitserve-history -log smoke/attrib-events.jsonl \
		-attribhtml smoke/attrib.html > /dev/null
	@test -s smoke/attrib.json && test -s smoke/attrib.html \
		&& echo "attrib: report written to smoke/attrib.json, waterfall to smoke/attrib.html"
	@$(GO) run ./cmd/splitserve-history -diff smoke/attrib.json smoke/attrib.json \
		| grep -q 'no change' \
		&& echo "attrib: self-diff is all zeros"

# shardreplay smokes the sharded control plane: replay the committed
# production-shape trace fixture across 4 shards with -validate (the
# per-tenant distributions must match exactly), and check the merged
# event log carries the sharding vocabulary. CI uploads the merged
# report and event log as artifacts.
shardreplay:
	mkdir -p smoke
	$(GO) run ./cmd/splitserve-cluster \
		-arrival tracefile:internal/tracereplay/testdata/multitenant_small.csv \
		-shards 4 -validate -report json \
		-eventlog smoke/shard-events.jsonl > smoke/shard-report.json
	@grep -q '"type":"shard_assign"' smoke/shard-events.jsonl \
		&& grep -q '"type":"shard_steal"' smoke/shard-events.jsonl \
		&& grep -q '"type":"tenant_report"' smoke/shard-events.jsonl \
		&& echo "shardreplay: sharding event vocabulary present in smoke/shard-events.jsonl"
	@grep -q '"schema": "splitserve-shard/v1"' smoke/shard-report.json \
		&& echo "shardreplay: merged report written to smoke/shard-report.json"
	$(GO) run ./cmd/splitserve-history -log smoke/shard-events.jsonl \
		-trace smoke/shard-trace.json
	@test -s smoke/shard-trace.json && echo "shardreplay: sharded event log replayed, trace written to smoke/shard-trace.json"

# warmsweep regenerates the warm-pool crossover table (EXPERIMENTS.md,
# "Warm-pool Lambda with a /tmp shuffle cache tier"). CI uploads the
# report as an artifact.
warmsweep:
	mkdir -p smoke
	$(GO) run ./cmd/splitserve-cluster -warmsweep | tee smoke/warmsweep.txt
	@grep -q 'crossover:' smoke/warmsweep.txt \
		&& echo "warmsweep: crossover table written to smoke/warmsweep.txt"

sim:
	$(GO) run ./cmd/splitserve-sim

# bench regenerates the paper figures, then runs the Go figure benchmarks
# once with the BENCH_JSON recorder on, so the custom metrics (sim-seconds,
# usd, ...) land in bench-metrics.json instead of only scrolling past.
bench:
	$(GO) run ./cmd/splitserve-bench
	BENCH_JSON=bench-metrics.json $(GO) test -run '^$$' \
		-bench '^Benchmark(Fig|Ablation|Extension)' -benchtime 1x .
	@test -s bench-metrics.json && echo "bench: custom metrics written to bench-metrics.json"
