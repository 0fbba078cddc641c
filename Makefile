# Every gate is written here, once: each job in .github/workflows/ci.yml is
# a single `make <target>` step (plus the Go-version matrix), so `make ci`
# runs exactly what the workflow enforces. A gate is a `go test` line, the
# repository benchmark, or a CLI whose JSON output scripts/ci_check.py
# checks, one function per gate; the Makefile asserts nothing itself.

GO ?= go
PYTHON ?= python3
# OUT is where the gates leave their scratch output.
OUT ?= /tmp
CHECK = $(PYTHON) scripts/ci_check.py

GATES = build vet fmt lintdoc loc test race fuzz-smoke bench benchmark-smoke loadgen trace-export flows benchmark-gate

.PHONY: $(GATES) ci virtual-diff allocprof

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

# The live transport, chaos differential (sim and live, wire and collective
# faults, one shard and several), conformance, runtime and loadgen suites
# under the race detector, and from the root package the goldens re-run on
# four shards: the only cells there that use more than one thread. Those two
# lines are also what proves no two shards share a noise stream: the jittered
# golden runs on four shards in the second, and a jittered 4-node CPU+GPU job
# (internal/core TestJitterIsTheJobs) on one, two and four in the first. The sim
# kernel runs five more times on one thread and on four: its procs run on
# coroutines that whichever goroutine runs a window resumes, a different one
# from window to window on several shards, and this is the cheap place to
# catch state one of them touches outside the baton. That line runs the
# killed-proc reuse test (TestKilledStacklessProcReused) with the rest: a
# stackless proc killed on an Event's or a Queue's waiters is unlinked and
# handed to the next spawn at once, so a wake left on a list would step a
# stranger's proc on whichever stack holds the baton. The lane's step
# machines (dcgn-tx, the receivers, the reliability helpers) run three more
# times on one thread and on four, on both of their hosts and two shards:
# a stackless step runs on whichever stack holds its shard's baton. The
# recycled control objects cross shards with the messages they carry — a
# packet or an envelope ends its life on the receiving node's free list —
# so the sharded exchange and the recycling tripwire run three more times
# on one thread and on four too. So do the collective conformance suites:
# a collective is a step machine of the comm thread and of mpi, whose
# stackless steps run on whichever stack holds the baton. Core's whole
# conformance table runs three more times too: a blocking call's request
# lives in its caller and is made again for the next call, so on the live
# backend a comm-thread goroutine that touched a request after completing
# it would race the kernel's next call. The AsyncOp tests run with it: an
# AsyncOp is given back to its kernel at Wait and made again for the next
# ISend or IRecv the same way, so a completer that touched it late would
# corrupt the kernel's next op. The engine-reuse test runs three more times
# on one thread and on four: a tenant starts on the node engines its nodes'
# previous tenants left, reset by the kernel coroutine or step that brings
# the tenant up, so a reset that missed what a dead tenant's goroutine still
# touches, or state shared between two tenants of one engine, shows there.
race:
	$(GO) test -race ./internal/...
	$(GO) test -race -run 'TestGoldenShardInvariant' .
	$(GO) test -race -count=5 -cpu 1,4 ./internal/sim
	$(GO) test -race -count=3 -cpu 1,4 -run 'TestStepHostsAgree' ./internal/core
	$(GO) test -race -count=3 -cpu 1,4 -run 'TestScaleFanoutShardInvariance|TestEngineResumeBudget' ./internal/apps
	$(GO) test -race -count=3 -cpu 1,4 -run 'TestCollOpConformance' ./internal/transport
	$(GO) test -race -count=3 -cpu 1,4 -run 'TestConformance|TestAsync' ./internal/core
	$(GO) test -race -count=3 -cpu 1,4 -run 'TestRuntimeSimEngineReuse' ./internal/core

# Fuzz smoke: ten seconds of arbitrary bytes at the one frame decoder, over
# every lane layout, starting from the committed corpus
# (internal/core/testdata/fuzz), ten at the trace decoder behind
# loadgen.LoadTrace, ten at the collective op, run on both backends
# (internal/transport/testdata/fuzz), and ten at the simulator's event
# queue, checked against a sorted reference (internal/sim/testdata/fuzz).
# (The corpora themselves replay in `test`.)
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzUnpackFrame -fuzztime 10s
	$(GO) test ./internal/loadgen -run '^$$' -fuzz FuzzParseTrace -fuzztime 10s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzCollOp -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEventQueue -fuzztime 10s

# Bench smoke: every benchmark runs exactly once so they can't bit-rot.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The repository benchmark is a module of its own (benchmark/go.mod), so
# `go build ./... && go test ./...` never see it, yet it compiles against
# core's API: vet it, test it, and run every workload once.
benchmark-smoke:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) run -C benchmark dcgn/benchmark -quick -seed 1 -out $(OUT)/benchmark-smoke

# The perf gate: the repository benchmark on the parent commit and on this
# tree in alternating order, every end-to-end metric of every workload
# against its BENCHMARK.json bound — the rule the PR pipeline applies, at a
# run length that fits a CI job. `make benchmark-gate GATE_PAIRS=10
# GATE_SECONDS=15 > BENCH_<pr>.json` is the run a PR commits.
BASE ?= HEAD~1
GATE_PAIRS ?= 3
GATE_SECONDS ?= 3
benchmark-gate:
	@$(CHECK) benchmark-gate BENCHMARK.json $(BASE) $(OUT)/benchmark-gate $(GATE_PAIRS) $(GATE_SECONDS)

# Not a gate: what a change to internal/core or below moved in virtual time.
# Every workload's traced pass once on this tree and twice on BASE; each
# metric the two parent runs agree on to the last bit (virtual times, counts
# per op, phase shares) that reads differently here is printed, and the host
# buffer pool's counts on a line of their own. ~4 min.
virtual-diff:
	@$(CHECK) virtual-diff BENCHMARK.json $(BASE) $(OUT)/virtual-diff

# Not a gate: where scale_sharded's heap allocations come from, by site.
# BenchmarkScaleFanout (internal/apps: ScaleFanout on 1 024 nodes of a k=16
# fat-tree, four shards) runs five times on one thread with every 512th
# byte sampled, and pprof prints the allocation sites by object count; the
# benchmark's own allocs/msg is the line above the table. Then where
# paper_eval's bytes come from: BenchmarkEvaluate (apps.Evaluate, the
# paper's 65 cells) runs five times the same way, and pprof prints its
# sites by bytes allocated; its B/op is the line above that table. Then
# serve_sim's per-job sites by bytes: the root BenchmarkServeChat (one
# 227-job chat batch on an 8-node simulated Runtime) runs ten times the same
# way, so the profile holds eleven batches, 2 497 jobs; its B/job and
# allocs/job are the line above the third table.
allocprof:
	$(GO) test ./internal/apps -run '^$$' -bench '^BenchmarkScaleFanout$$' -benchtime 5x -cpu 1 \
		-memprofile $(OUT)/allocprof.mem -memprofilerate 512 -o $(OUT)/allocprof.test
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=40 $(OUT)/allocprof.test $(OUT)/allocprof.mem
	$(GO) test ./internal/apps -run '^$$' -bench '^BenchmarkEvaluate$$' -benchtime 5x -cpu 1 \
		-memprofile $(OUT)/allocprof-eval.mem -memprofilerate 512 -o $(OUT)/allocprof.test
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=40 $(OUT)/allocprof.test $(OUT)/allocprof-eval.mem
	$(GO) test . -run '^$$' -bench '^BenchmarkServeChat$$' -benchtime 10x -cpu 1 \
		-memprofile $(OUT)/allocprof-serve.mem -memprofilerate 512 -o $(OUT)/allocprof-serve.test
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=40 $(OUT)/allocprof-serve.test $(OUT)/allocprof-serve.mem

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

# Size gate: per package, the non-test Go lines that are neither blank nor
# comment-only and the panic( sites among them, against a ceiling of each
# (package:lines:panics) — the figures issues and CHANGES.md quote. The
# ceilings are what the tree measured when they were last set; a PR that
# needs more room raises one here, in its own diff, where review sees it,
# and one that shrinks a package lowers it.
#
# Last raised for the take-ownership transport seam: core packs a GPU send's
# header in place, adopts arrived frames into GPU receives and counts
# undecodable frames instead of panicking; faults releases what it drops
# and pools its duplicates (205). Then moved by the host-work cut of the
# paper applications: apps pairs Mandelbrot orbits, mirrors conjugate rows
# and generates Cannon and N-body inputs only under RealMath (1797); core
# builds a gather's node counts once per job (4523) and finds a rank's
# node by binary search (one panic fewer); mpi sums only a member's own
# subtree (737) and obs allocates only the buckets a snapshot keeps (626).
# cmd/dcgn-mandel is the one program that prints Fig. 5, and its body is a
# function its test runs. Then raised by the paper's evaluation moving into
# the main module: apps holds the paper's numbers and Evaluate, which runs
# every §5 cell once for the shape tests and EXPERIMENTS.md's tables (2006).
# Then raised for stackless procs: sim runs step functions on the baton
# holder's stack, gives back what a killed step holds, counts its own
# resumes, steps and spawns by proc kind, and keeps a 4-ary timer heap
# (1342); fabric's send is two steps that Send, Inject and the MPI engine
# drive (436); mpi's progress engine is a step function (750); core's GPU
# completion helper is a static step (4524). Then lowered by counting each
# engine event once: a job's metrics are histograms made on first
# observation plus the engine's own counts, named only by the snapshot
# (core 4520), and obs's partitions hold snapshot functions (602).
# Then raised for a remote message's sender and receiver as step machines,
# written once for a stackless host and a blocking one: core's transmit,
# dcgn-tx, lane receiver, ack and reply helpers, sendrecv join and timer
# (4750); mpi's send and receive as ops (827); simmpi's and faults' step
# forms (151, 264); sim's argument drop hook and worker count (1349).
# Then lowered by one form per lane call: the step forms are the
# transport's only sends and receives, so the blocking lane calls, the
# step-form discovery and faults' second bodies go (core 4740, faults 196,
# simmpi 109; transport rises to 99 and live to 367 with the ops and forms
# they now carry), and a bad cluster shape is an error (core 34 panics).
# Then raised for recycling a message's control objects: sim keeps the
# per-owner free list (FreeList, its counts in Stats) and recycles
# stackless procs at a natural end (1433); fabric recycles packets and
# refuses one given back to the wrong node (448, one panic more); mpi
# recycles envelopes and keeps its receives' and sends' events inside them
# (842); core does both for inbound messages, dcgn-tx helpers (their lists
# kept per substrate node, so a Runtime's tenants share them) and
# requests, makes its matching maps on first use, and turns a peer or root
# rank outside the job into ErrBadRank instead of a comm-thread panic
# (4827).
# Then moved by one collective call: the transport's five collective methods
# are one Collective over a CollOp, checked in one place (CollOp.Check), so
# the transport package holds the op and its check (173) while faults wraps
# one call (172), simmpi switches once (111) and live's per-kind closures
# and argument copies go (299); core stages the op inside its group, shares
# one completion tail and lets the check reject a missing root buffer
# (4790, three panics fewer: 31). Then raised for retiring a finished
# tenant's traffic: mpi purges a retired communicator's context and tags
# from its ranks' unexpected queues and drops their late arrivals (887),
# fabric asks before the RX NIC charges (452), simmpi and core retire a
# tenant's group (114, 4796).
# Then raised for every engine and device-model daemon as a step machine,
# so only user code keeps a stack: mpi's collectives are one step machine
# (mpi.Coll, 1185, a panic fewer), the transport's collective a step form
# that simmpi, live and faults implement (188, 111, 307, 179); core's comm
# thread, its deliveries and collective execution, the GPU monitor,
# doorbell and NIC daemons and the one-sided sink are written as cursors
# over their charges (5283); pcie and sim gain step forms (66, 1444) and
# device's dispatcher is a step function (297).
# Then moved by a blocking call allocating nothing: core keeps a blocking
# call's request in its caller (CPUCtx, the GPU slot), recycles sendrecv
# joins and matching entries — whose two queues now drop their tombstones
# after every take — reuses a node's collective group, and has the comm
# thread step a request by the kind it noted on arrival (5323); mpi loses
# Rank.Irecv, Comm.Scatterv, Comm.Alltoallv and the receive side of
# Request, and gains the rendezvous sends' list and the scatter–allgather
# broadcast's per-chunk arrival counts (1192); apps drops the error check
# of a WaitAll that reports none (2004, one panic fewer: 38).
# Then moved by allocating only the host bytes a program writes: device backs
# an allocation on its first access and gains Arena.Read, a read that leaves
# untouched memory unbacked (311); mpi's SendrecvReplace is Sendrecv with a
# take-ownership receive, so it stages no second buffer and a truncated
# message leaves the buffer as it was (1197); apps computes a Cannon chunk
# only under RealMath (1997).
# Then raised by an event queue shaped to its traffic: sim keeps timers in
# FIFO delay lanes whose heads share the 4-ary heap (the lane table, and a
# push and a pop that go to a lane or put its next timer in the heap) and
# arrivals as 24-byte keys over a slab of records (1526); core makes the
# one-sided and reliability waits' events in their waiters, and gives the
# lines back (5323).
# Then lowered by recycling an AsyncOp at its Wait from its kernel's free
# list, which deletes the one allocating request constructor, and by
# counting every live step machine with the daemons, which deletes the
# second wait for workers (5322).
# Then raised by recycling each node's progress engine between a Runtime's
# tenants: core resets a taken engine and empties the storage it keeps
# (intake, matching index, collective accumulator, reliable lane tables),
# gives the engines back after a tenant's kill, spawns a CPU kernel with
# its CPUCtx as the proc's argument, and guards the metrics' view of the
# engines with a mutex (5393); sim counts free-list kinds in an array
# instead of a map, sizes a dry list's blocks by what it has made, and
# gains FreeList.Keep and Queue.Reset (1580).
LOC_CEILINGS = internal/core:5464:31 internal/transport:188:0 internal/transport/faults:179:0 \
	internal/transport/simmpi:120:2 internal/transport/live:307:2 internal/obs:602:0 \
	internal/sim:1641:19 internal/fabric:452:17 internal/mpi:1243:18 \
	internal/pcie:66:1 internal/device:311:7 internal/gas:118:3 internal/apps:1997:38 \
	cmd/dcgn-mandel:118:0
loc:
	@$(CHECK) loc $(LOC_CEILINGS)

# Every gate in turn; none of them may create, change or delete a file in
# the working tree.
ci:
	@before="$$(git status --porcelain)"; \
	$(MAKE) --no-print-directory $(GATES) && \
	if [ "$$before" != "$$(git status --porcelain)" ]; then \
		echo "make ci changed the working tree:" >&2; git status --porcelain >&2; exit 1; \
	fi
