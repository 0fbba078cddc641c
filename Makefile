# Every gate is written here, once: each job in .github/workflows/ci.yml is
# a single `make <target>` step (plus the Go-version matrix), so `make ci`
# runs exactly what the workflow enforces. Assertions on a command's JSON
# output live in scripts/ci_check.py, one function per gate.

GO ?= go
PYTHON ?= python3
# OUT is where the gates leave their scratch output.
OUT ?= /tmp
CHECK = $(PYTHON) scripts/ci_check.py

.PHONY: build vet fmt lintdoc test race race-live fuzz-smoke bench bench-json bench-onesided benchguard benchmark-smoke chaos multitenant loadgen trace-export flows scale scale-smoke shard-determinism ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails if any file is unformatted (CI behavior); run `gofmt -w .` to fix.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "unformatted files:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# Doc lint: every exported declaration needs a doc comment (go/ast-based,
# no external linter).
lintdoc:
	$(GO) run ./cmd/lintdoc

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# Live-backend smoke under the race detector: the goroutine transport and
# progress engine, driven end to end through the bench ping-pong. (The
# live and conformance suites themselves run under -race in `race`.)
race-live:
	$(GO) run -race ./cmd/dcgn-bench -backend live -exp pingpong

# Fuzz smoke: ten seconds of arbitrary bytes at the one frame decoder, over
# every lane layout, starting from the committed corpus
# (internal/core/testdata/fuzz). (The corpus itself replays in `test`.)
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzUnpackFrame -fuzztime 10s

# Bench smoke: every benchmark runs exactly once so they can't bit-rot.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Wall-clock throughput and allocation profile of the hot workloads
# (high-fanout matching + Table 3 apps), written as JSON.
bench-json:
	$(GO) run ./cmd/dcgn-bench -json BENCH_6.json

# One-sided lane gate: the classic-vs-triggered ablation, GPU->CPU one-way
# latency over both paths per Fig. 6 size, written as JSON; below 4 KiB the
# triggered path must win without a single poll hit. (The conformance,
# triggered-path and chaos suites run under -race in `race`.)
bench-onesided:
	$(GO) run ./cmd/dcgn-bench -onesided BENCH_7.json
	$(CHECK) onesided BENCH_7.json

# Allocation tripwire: fails if allocs/op on the matching benchmarks
# regresses >20% against the committed baseline.
benchguard:
	$(GO) test -run='^$$' -bench='BenchmarkMatchIndex|BenchmarkHighFanoutMatching|BenchmarkEnginePingPong/(sim|live-multitenant)|BenchmarkShardedHighFanout|BenchmarkLoadgenArrivals' \
		-benchtime=1x -benchmem ./... | $(GO) run ./cmd/benchguard -baseline testdata/bench_baseline.json

# The repository benchmark is a module of its own (benchmark/go.mod), so
# `go build ./... && go test ./...` never see it, yet it compiles against
# core's API: vet it, test it, and run every workload once.
benchmark-smoke:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) run -C benchmark dcgn/benchmark -quick -seed 1 -out $(OUT)/dcgn-bench-smoke

# Scale smoke: a 1024-node run on a fat-tree fabric at 8 shards. The binary
# itself asserts -shards 8 reproduces -shards 1 bit-identically;
# -min-speedup additionally gates the parallel speedup, but only where there
# are cores to speed up on (the 4-vCPU CI runner; one- and two-core
# containers measure ~1.0x).
SCALE_MIN_SPEEDUP ?= $(shell [ "$$(nproc 2>/dev/null || echo 1)" -ge 4 ] && echo 1.3 || echo 0)
scale-smoke:
	$(GO) run ./cmd/dcgn-bench -nodes 1024 -shards 8 -topology fattree -min-speedup $(SCALE_MIN_SPEEDUP)

# Seeded scenario diffed across shard counts 1, 2 and 8 on 256 nodes, on the
# flat fabric and on a dragonfly.
shard-determinism:
	$(GO) run ./cmd/dcgn-bench -scale-verify "1,2,8" -nodes 256
	$(GO) run ./cmd/dcgn-bench -scale-verify "1,2,8" -nodes 256 -topology dragonfly

scale: scale-smoke shard-determinism

# Chaos smoke: a seeded standalone chaos run on the live backend under the
# race detector. (The lossy-wire application runs and the wire-hardening
# differential suites run in `test` and, under -race, in `race`.)
chaos:
	$(GO) run -race ./cmd/dcgn-bench -chaos -backend live -chaos-collfail 0.2 -chaos-seed 11

# Multi-tenant runtime gate: the fairness/overhead JSON report, with
# per-job overhead <= 10% and every tenant within 0.15 of its weighted
# share. (The per-job-overhead benches run in `bench` and `benchguard`; the
# Runtime suite — admission, fair-share, isolation, lifecycle, control API,
# 8 concurrent live jobs — runs under -race in `race`.)
multitenant:
	$(GO) run ./cmd/dcgn-bench -jobs 8 -tenants "light:1,heavy:3" -multitenant-out BENCH_8.json
	$(CHECK) multitenant BENCH_8.json

# Loadgen gate: a seeded Poisson run on the sim backend diffed for
# byte-identical SLO reports, the chat preset on the live backend, and a
# schema check of both reports. (The workload-layer suite runs under -race
# in `race`.)
loadgen:
	$(GO) run ./cmd/dcgn-loadgen -preset mixed -rate 300 -duration 1s -seed 7 -o $(OUT)/dcgn-slo-a.json
	$(GO) run ./cmd/dcgn-loadgen -preset mixed -rate 300 -duration 1s -seed 7 -o $(OUT)/dcgn-slo-b.json
	diff $(OUT)/dcgn-slo-a.json $(OUT)/dcgn-slo-b.json
	$(GO) run ./cmd/dcgn-loadgen -preset chat -rate 100 -duration 1s -backend live -nodes 8 -seed 7 -o $(OUT)/dcgn-slo-live.json
	$(CHECK) slo $(OUT)/dcgn-slo-a.json $(OUT)/dcgn-slo-live.json

# Exporter validation: a 4-node fixture run through every dcgn-trace
# output format; the chrome trace must not be empty. (The typed-struct
# schema tests run in `test`.)
trace-export:
	$(GO) run ./cmd/dcgn-trace -nodes 4 -format chrome -o $(OUT)/dcgn-trace.json
	$(CHECK) trace $(OUT)/dcgn-trace.json
	$(GO) run ./cmd/dcgn-trace -nodes 4 -format csv -o $(OUT)/dcgn-trace.csv
	$(GO) run ./cmd/dcgn-trace -nodes 4 -metrics > /dev/null

# Causal flow-tracing gate: a seeded determinism diff of the dcgn-trace
# critical-path text (two runs must render byte-identically), a Perfetto
# flow-event schema check on the exported chrome trace, the flows-on
# loadgen determinism diff, and the check that each tenant's phase means
# sum to its mean e2e. (The chrome-exporter flow-event test runs in
# `test`; the stitching/critical-path suites and the flows-on chaos
# differential run under -race in `race`.)
flows:
	$(GO) run ./cmd/dcgn-trace -nodes 4 -critical-path -format chrome -o $(OUT)/dcgn-flow.json > $(OUT)/dcgn-cp-a.txt
	$(GO) run ./cmd/dcgn-trace -nodes 4 -critical-path -format chrome -o $(OUT)/dcgn-flow.json > $(OUT)/dcgn-cp-b.txt
	diff $(OUT)/dcgn-cp-a.txt $(OUT)/dcgn-cp-b.txt
	$(CHECK) flow-events $(OUT)/dcgn-flow.json
	$(GO) run ./cmd/dcgn-loadgen -preset chat -rate 300 -duration 1s -seed 7 -flows -o $(OUT)/dcgn-slo-flows-a.json
	$(GO) run ./cmd/dcgn-loadgen -preset chat -rate 300 -duration 1s -seed 7 -flows -o $(OUT)/dcgn-slo-flows-b.json
	diff $(OUT)/dcgn-slo-flows-a.json $(OUT)/dcgn-slo-flows-b.json
	$(CHECK) flow-phases $(OUT)/dcgn-slo-flows-a.json

ci: build vet fmt lintdoc test race race-live fuzz-smoke bench benchguard benchmark-smoke chaos bench-onesided multitenant loadgen trace-export flows scale
