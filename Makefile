# Local targets mirroring .github/workflows/ci.yml, so `make ci` runs the
# same gate the workflow enforces.

GO ?= go

.PHONY: build vet fmt lintdoc test race race-live fuzz-smoke bench bench-json bench-onesided benchguard benchmark-smoke chaos multitenant loadgen trace-export flows scale ci

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
# latency over both paths per Fig. 6 size, written as JSON. (The
# conformance, triggered-path and chaos suites run under -race in `race`.)
bench-onesided:
	$(GO) run ./cmd/dcgn-bench -onesided BENCH_7.json

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
	$(GO) run -C benchmark dcgn/benchmark -quick -seed 1 -out /tmp/dcgn-bench-smoke

# Scale smoke mirroring the CI scale/determinism matrix: a 1024-node sharded
# run (virtual results asserted identical to -shards 1) plus the seeded
# shard-determinism diff at shard counts 1, 2 and 8 on 256 nodes.
scale:
	$(GO) run ./cmd/dcgn-bench -nodes 1024 -shards 8
	$(GO) run ./cmd/dcgn-bench -scale-verify "1,2,8" -nodes 256

# Chaos smoke: a seeded standalone chaos run on the live backend under the
# race detector. (The lossy-wire application runs and the wire-hardening
# differential suites run in `test` and, under -race, in `race`.)
chaos:
	$(GO) run -race ./cmd/dcgn-bench -chaos -backend live -chaos-collfail 0.2 -chaos-seed 11

# Multi-tenant runtime gate: the fairness/overhead JSON report. (The
# per-job-overhead benches run in `bench` and `benchguard`; the Runtime
# suite — admission, fair-share, isolation, lifecycle, control API, 8
# concurrent live jobs — runs under -race in `race`.)
multitenant:
	$(GO) run ./cmd/dcgn-bench -jobs 8 -tenants "light:1,heavy:3" -multitenant-out BENCH_8.json

# Loadgen gate mirroring the CI loadgen-smoke job: a seeded Poisson run on
# the sim backend diffed for byte-identical SLO reports, and the same
# preset on the live backend. (The workload-layer suite runs under -race
# in `race`.)
loadgen:
	$(GO) run ./cmd/dcgn-loadgen -preset mixed -rate 300 -duration 1s -seed 7 -o /tmp/dcgn-slo-a.json
	$(GO) run ./cmd/dcgn-loadgen -preset mixed -rate 300 -duration 1s -seed 7 -o /tmp/dcgn-slo-b.json
	diff /tmp/dcgn-slo-a.json /tmp/dcgn-slo-b.json
	$(GO) run ./cmd/dcgn-loadgen -preset chat -rate 100 -duration 1s -backend live -nodes 8 -seed 7 -o /tmp/dcgn-slo-live.json

# Exporter validation: a 4-node fixture run through every dcgn-trace
# output format. (The typed-struct schema tests run in `test`.)
trace-export:
	$(GO) run ./cmd/dcgn-trace -nodes 4 -format chrome -o /tmp/dcgn-trace.json
	$(GO) run ./cmd/dcgn-trace -nodes 4 -format csv -o /tmp/dcgn-trace.csv
	$(GO) run ./cmd/dcgn-trace -nodes 4 -metrics > /dev/null

# Causal flow-tracing gate: a seeded determinism diff of the dcgn-trace
# critical-path text (two runs must render byte-identically), a Perfetto
# flow-event schema check on the exported chrome trace, and the flows-on
# loadgen determinism diff. (The chrome-exporter flow-event test runs in
# `test`; the stitching/critical-path suites and the flows-on chaos
# differential run under -race in `race`.)
flows:
	$(GO) run ./cmd/dcgn-trace -nodes 4 -critical-path -format chrome -o /tmp/dcgn-flow.json > /tmp/dcgn-cp-a.txt
	$(GO) run ./cmd/dcgn-trace -nodes 4 -critical-path -format chrome -o /tmp/dcgn-flow.json > /tmp/dcgn-cp-b.txt
	diff /tmp/dcgn-cp-a.txt /tmp/dcgn-cp-b.txt
	grep -q '"ph": *"s"' /tmp/dcgn-flow.json
	grep -q '"ph": *"f"' /tmp/dcgn-flow.json
	grep -q '"bp": *"e"' /tmp/dcgn-flow.json
	$(GO) run ./cmd/dcgn-loadgen -preset chat -rate 300 -duration 1s -seed 7 -flows -o /tmp/dcgn-slo-flows-a.json
	$(GO) run ./cmd/dcgn-loadgen -preset chat -rate 300 -duration 1s -seed 7 -flows -o /tmp/dcgn-slo-flows-b.json
	diff /tmp/dcgn-slo-flows-a.json /tmp/dcgn-slo-flows-b.json

ci: build vet fmt lintdoc test race race-live fuzz-smoke bench benchguard benchmark-smoke chaos bench-onesided multitenant loadgen trace-export flows scale
