package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dcgn/internal/apps"
	"dcgn/internal/bufpool"
	"dcgn/internal/core"
	"dcgn/internal/device"
	"dcgn/internal/fabric"
	"dcgn/internal/loadgen"
	"dcgn/internal/mpi"
	"dcgn/internal/obs"
	"dcgn/internal/obs/flow"
	"dcgn/internal/pcie"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
	"dcgn/internal/transport/live"
	"dcgn/internal/transport/simmpi"
)

// The ladder pass calls each layer's public functions directly, with the
// workload's op mix, one rung at a time: sim alone, then fabric, pcie and
// device on sim, then mpi, then the transports, then a core.Job cell, then
// a Runtime cell. A rung's cost per op includes the rungs under it, so the
// difference between neighbouring rungs is what the upper layer itself
// costs on the host — the host-time analogue of the paper's Fig. 6.

// mix is a workload's op mix as far as the cells need it.
type mix struct {
	sizes    []int // message payload sizes, cycled through
	nodes    int
	procs    int  // sim procs alive during a repetition, roughly
	gpus     bool // device, PCIe and polling cells apply
	memBytes int  // device arena size
	shards   bool // runs on the sharded engine
	tree     bool // mpi.Config.TreeCollectives
	serving  bool // Runtime and loadgen cells apply
	live     bool // wall-clock backend: no sim under it
	quick    bool // smoke mode: the cells run a fraction of their iterations
}

// cellRuns is how often the ladder pass runs every cell; it keeps the best
// run, because the machine's neighbours only ever add time.
const cellRuns = 5

// n scales a cell's nominal iteration count down to one of its cellRuns
// runs, and further in smoke mode.
func (m mix) n(full int) int {
	if m.quick {
		return max(full/32, 2)
	}
	return max(full/4, 2)
}

// collNodes caps the rank count of the collective cells, so that the
// 1024-node mix does not spend the traced run's budget on them.
const collNodes = 64

// cell is one micro-measurement: the per-layer metric it yields, whether
// it applies to a mix, and the measurement.
type cell struct {
	metric  string
	applies func(m mix) bool
	run     func(m mix) float64
	// once marks a cell that takes the best of several runs itself (a
	// ratio, whose best is not the best of its runs' ratios).
	once bool
}

func onSim(m mix) bool     { return !m.live }
func onLive(m mix) bool    { return m.live }
func onGPU(m mix) bool     { return m.gpus }
func onShards(m mix) bool  { return m.shards }
func onServing(m mix) bool { return m.serving }
func always(mix) bool      { return true }

var cells = []cell{
	{metric: "sim.switch_ns", applies: onSim, run: simSwitch},
	{metric: "sim.switch_mp_ns", applies: onSim, run: func(m mix) float64 {
		// What the same hand-off costs a user who leaves GOMAXPROCS at the
		// machine's CPU count, as every example and CLI of the repo does.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs()))
		return simSwitch(m)
	}},
	{metric: "sim.timer_ns", applies: onSim, run: simTimer},
	{metric: "sim.spawn_ns", applies: onSim, run: simSpawn},
	{metric: "sim.chan_ns", applies: onSim, run: simChan},
	{metric: "sim.shard_arrival_ns", applies: onShards, run: simShardArrival},
	{metric: "sim.shard_speedup", applies: onShards, run: simShardSpeedup, once: true},
	{metric: "bufpool.getput_ns", applies: always, run: bufpoolGetPut},
	{metric: "fabric.send_ns", applies: onSim, run: fabricSend},
	{metric: "pcie.xfer_ns", applies: onGPU, run: pcieXfer},
	{metric: "device.new_ms", applies: onGPU, run: deviceNew},
	{metric: "device.launch_ns", applies: onGPU, run: deviceLaunch},
	{metric: "device.copy_mb_per_s", applies: onGPU, run: deviceCopy},
	{metric: "mpi.eager_ns", applies: onSim, run: func(m mix) float64 { return mpiP2P(m, eagerSizes(m)) }},
	{metric: "mpi.rndv_ns", applies: func(m mix) bool { return onSim(m) && rndvSizes(m) != nil },
		run: func(m mix) float64 { return mpiP2P(m, rndvSizes(m)) }},
	{metric: "mpi.barrier_ns", applies: onSim, run: func(m mix) float64 {
		return mpiColl(m, func(p *sim.Proc, r *mpi.Rank) { r.Barrier(p) })
	}},
	{metric: "mpi.bcast_ns", applies: onSim, run: func(m mix) float64 {
		buf := make([]byte, max(m.sizes[len(m.sizes)/2], 1))
		return mpiColl(m, func(p *sim.Proc, r *mpi.Rank) { check(r.Bcast(p, buf, 0)) })
	}},
	{metric: "mpi.gather_ns", applies: onSim, run: func(m mix) float64 {
		send, recv := make([]byte, 8), make([]byte, 8*min(m.nodes, collNodes))
		return mpiColl(m, func(p *sim.Proc, r *mpi.Rank) { check(r.Gather(p, send, recv, 0)) })
	}},
	{metric: "transport.simmpi_msg_ns", applies: onSim, run: simmpiMsg},
	{metric: "transport.live_msg_ns", applies: onLive, run: func(m mix) float64 { return liveMsg(m, m.sizes) }},
	{metric: "transport.live_mb_per_s", applies: onLive, run: func(m mix) float64 {
		const size = 256 << 10
		return size / liveMsg(m, []int{size}) * 1e9 / 1e6
	}},
	{metric: "core.cpu_msg_ns", applies: always, run: coreCPUMsg},
	{metric: "core.gpu_msg_ns", applies: onGPU, run: coreGPUMsg},
	{metric: "core.gpu_poll_ns", applies: onGPU, run: coreGPUPoll},
	{metric: "core.fanin_msg_ns", applies: onSim, run: coreFanin},
	{metric: "core.coll_ns", applies: always, run: coreColl},
	{metric: "core.job_build_ms", applies: always, run: coreJobBuild},
	{metric: "runtime.sim_job_ns", applies: func(m mix) bool { return m.serving && !m.live },
		run: func(m mix) float64 { return runtimeJob(m, transport.BackendSim) }},
	{metric: "runtime.live_job_ns", applies: func(m mix) bool { return m.serving && m.live },
		run: func(m mix) float64 { return runtimeJob(m, transport.BackendLive) }},
	{metric: "loadgen.gen_ns_per_arrival", applies: onServing, run: loadgenGen},
	{metric: "obs.span_ns", applies: always, run: obsSpan},
	{metric: "obs.hist_ns", applies: always, run: obsHist},
}

// ladderPass runs every cell that applies to the workload, each in its
// own span, and returns the per-layer metrics they yield. A cell that
// fails (a simulation error) is a bug in the benchmark and is reported as
// an error.
func ladderPass(w *workload, quick bool, rec *recorder) (v values, err error) {
	defer rec.begin("ladder")()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ladder pass of %s: %v", w.name, r)
		}
	}()
	v = values{}
	m := w.mix
	m.quick = quick
	for _, c := range cells {
		if !c.applies(m) {
			continue
		}
		end := rec.begin(c.metric)
		runs, higher := cellRuns, defByName(c.metric).Better == "higher"
		if quick || c.once {
			runs = 1
		}
		for i := 0; i < runs; i++ {
			// A slope that noise turned negative reads 0 and is no result.
			if x := c.run(m); x > 0 && (v[c.metric] == 0 || (x > v[c.metric]) == higher) {
				v[c.metric] = x
			}
		}
		end()
	}
	if r := v["mpi.rndv_ns"]; r > 0 {
		v["mpi.rndv_mb_per_s"] = mean(rndvSizes(w.mix)) / r * 1e9 / 1e6
	}
	return v, nil
}

// cpuMsgRequests is how many comm-thread requests one remote CPU:CPU
// message of the core.cpu_msg_ns cell takes: the send at the source, the
// receive at the destination and the inbound wire message there.
const cpuMsgRequests = 3

// ladderRow is one line of a workload's ladder table.
type ladderRow struct {
	Layer     string  `json:"layer"`
	Count     float64 `json:"count_per_rep"`
	UnitNs    float64 `json:"unit_ns"`
	ProductMs float64 `json:"product_ms"`
	Share     float64 `json:"share"`
}

// ladderTable attributes the host time of one repetition (repNs) to
// layers: the program's own counts for one repetition times each layer's
// own unit cost — its rung minus the rung under it. The last row is what
// the rows above leave unattributed (kernels, payload digests, GC,
// collectives' traffic and everything the cells do not reproduce); it is
// negative when the cells overestimate.
func ladderTable(w *workload, c counts, v values, repNs float64) []ladderRow {
	m := w.mix
	// Rungs, inclusive host ns per wire message of the mix's sizes.
	rndvShare := float64(len(rndvSizes(m))) / float64(len(m.sizes))
	sim := v["sim.chan_ns"]
	fab := v["fabric.send_ns"]
	mp := (1-rndvShare)*v["mpi.eager_ns"] + rndvShare*v["mpi.rndv_ns"]
	tr := v["transport.simmpi_msg_ns"] + v["transport.live_msg_ns"] // one of the two is 0
	own := func(upper, lower float64) float64 { return max(upper-lower, 0) }
	jobs, build := float64(c.jobs), v["core.job_build_ms"]*1e6
	newNs := v["device.new_ms"] * 1e6
	if m.gpus {
		build = own(build, float64(m.nodes*2)*newNs) // the cell's job builds two devices per node
	}
	rows := []ladderRow{
		{Layer: "sim (hand-off per wire message)", Count: float64(c.wireMsgs), UnitNs: sim},
		{Layer: "fabric", Count: float64(c.wireMsgs), UnitNs: own(fab, sim)},
		{Layer: "mpi", Count: float64(c.wireMsgs), UnitNs: own(mp, fab)},
		{Layer: "transport", Count: float64(c.wireMsgs), UnitNs: own(tr, mp)},
		{Layer: "core (comm-thread requests)", Count: float64(c.requests), UnitNs: own(v["core.cpu_msg_ns"], tr) / cpuMsgRequests},
		{Layer: "core (device polls)", Count: float64(c.polls), UnitNs: v["core.gpu_poll_ns"]},
		{Layer: "pcie", Count: float64(c.busTransfers + max(c.busCtl-c.polls, 0)), UnitNs: v["pcie.xfer_ns"]},
		{Layer: "device (construction)", Count: float64(c.devices), UnitNs: newNs},
		{Layer: "bufpool", Count: float64(c.poolAcquires), UnitNs: v["bufpool.getput_ns"]},
		{Layer: "core (job build)", Count: jobs, UnitNs: build},
	}
	if m.serving {
		// The Runtime cell's job sends one request and one reply.
		rows = append(rows, ladderRow{Layer: "runtime", Count: jobs,
			UnitNs: own(v["runtime.sim_job_ns"]+v["runtime.live_job_ns"], v["core.job_build_ms"]*1e6+2*v["core.cpu_msg_ns"])})
	}
	left := repNs
	for i := range rows {
		r := &rows[i]
		r.ProductMs = r.Count * r.UnitNs / 1e6
		r.Share = r.Count * r.UnitNs / repNs
		left -= r.Count * r.UnitNs
	}
	return append(rows, ladderRow{Layer: "unattributed", ProductMs: left / 1e6, Share: left / repNs})
}

// check panics on a cell's simulation error; ladderPass reports it.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// nsPer times fn and returns nanoseconds per unit.
func nsPer(units int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(units)
}

// slope measures run at n units and at an eighth of that, and returns the
// nanoseconds each extra unit costs, which leaves construction and
// teardown out.
func slope(n int, run func(n int)) float64 {
	n = max(n, 2)
	few := max(n/8, 1)
	t1 := nsPer(1, func() { run(few) })
	t2 := nsPer(1, func() { run(n) })
	return max(t2-t1, 0) / float64(n-few)
}

func mean(xs []int) float64 {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(max(len(xs), 1))
}

// msgs sizes a cell's message count to the sizes it sends: about 50 MB of
// payload, between 64 and 4096 messages.
func (m mix) msgs(sizes []int) int {
	return m.n(int(min(max(50e6/max(mean(sizes), 1), 64), 4096)))
}

func eagerSizes(m mix) []int {
	var out []int
	for _, s := range m.sizes {
		if s <= mpi.DefaultConfig().EagerLimit {
			out = append(out, s)
		}
	}
	if out == nil {
		out = []int{64} // a mix of large payloads still sends eager control frames
	}
	return out
}

func rndvSizes(m mix) []int {
	var out []int
	for _, s := range m.sizes {
		if s > mpi.DefaultConfig().EagerLimit {
			out = append(out, s)
		}
	}
	return out
}

// --- sim alone ---

// simSwitch: two procs hand a token back and forth through two queues
// while the rest of the mix's procs sit parked. One hand-off is one switch.
func simSwitch(m mix) float64 {
	iters := m.n(20000)
	s := sim.New()
	a, b := sim.NewQueue[int](s, "a"), sim.NewQueue[int](s, "b")
	done := s.NewEvent("done")
	for i := 2; i < m.procs; i++ {
		s.Spawn("parked", func(p *sim.Proc) { done.Wait(p) })
	}
	var ns float64
	s.Spawn("ping", func(p *sim.Proc) {
		ns = nsPer(2*iters, func() {
			for i := 0; i < iters; i++ {
				a.Put(i)
				b.Get(p)
			}
		})
		done.Fire()
	})
	s.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			a.Get(p)
			b.Put(i)
		}
	})
	check(s.Run())
	return ns
}

// simTimer: every proc of the mix sleeps in a loop with its own period, so
// the timer heap holds one entry per proc. One Sleep is one heap push, one
// pop and one switch.
func simTimer(m mix) float64 {
	procs := max(m.procs, 2)
	per := max(m.n(40000)/procs, 4)
	s := sim.New()
	start := s.NewEvent("start")
	var t0 time.Time
	for i := 0; i < procs; i++ {
		period := time.Duration(i%97+1) * time.Microsecond
		s.Spawn("sleeper", func(p *sim.Proc) {
			start.Wait(p)
			for k := 0; k < per; k++ {
				p.Sleep(period)
			}
		})
	}
	s.Spawn("starter", func(*sim.Proc) { t0 = time.Now(); start.Fire() })
	check(s.Run())
	return float64(time.Since(t0).Nanoseconds()) / float64(procs*per)
}

// simSpawn: one proc spawns short-lived children, as the fabric does per
// packet and the engine per request.
func simSpawn(m mix) float64 {
	children := m.n(8192)
	s := sim.New()
	var ns float64
	s.Spawn("parent", func(p *sim.Proc) {
		ns = nsPer(children, func() {
			for i := 0; i < children; i++ {
				s.Spawn("child", func(*sim.Proc) {})
				if i%64 == 63 {
					p.Yield()
				}
			}
			p.Yield()
		})
	})
	check(s.Run())
	return ns
}

// simChan: a producer and a consumer over a one-slot sim.Chan.
func simChan(m mix) float64 {
	iters := m.n(20000)
	s := sim.New()
	c := sim.NewChan[int](s, "c", 1)
	var ns float64
	s.Spawn("producer", func(p *sim.Proc) {
		ns = nsPer(iters, func() {
			for i := 0; i < iters; i++ {
				c.Send(p, i)
			}
		})
	})
	s.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			c.Recv(p)
		}
	})
	check(s.Run())
	return ns
}

// simShardArrival: a proc on shard 0 posts one arrival per lookahead
// window to the last shard, so each arrival pays a window barrier.
func simShardArrival(m mix) float64 {
	const lookahead = time.Microsecond
	arrivals := m.n(2000)
	sc := sim.NewSharded(benchProcs())
	sc.SetLookahead(lookahead)
	src, dst := sc.Shard(0), sc.Shards()-1
	src.Sim().Spawn("poster", func(p *sim.Proc) {
		for i := 0; i < arrivals; i++ {
			src.PostArrival(p.Now()+lookahead, dst, 0, uint64(i+1), "arrival", func(*sim.Proc) {})
			p.Sleep(lookahead)
		}
	})
	return nsPer(arrivals, func() { check(sc.Run()) })
}

// simShardSpeedup is how many times faster the sharded engine finishes a
// 256-node exchange with one P per shard than with one P in all: what the
// timed run of scale_sharded, serial for steadiness, cannot show. Each
// side is the fastest of three runs.
func simShardSpeedup(m mix) float64 {
	nodes := 256
	if m.quick {
		nodes = 32
	}
	in := genScale(1, nodes)
	fastest := func(procs int) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		best := 0.0
		for i := 0; i < 3; i++ {
			ns := nsPer(1, func() {
				_, err := runScale(in, scaleConfig(nodes, benchProcs(), false))
				check(err)
			})
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	return fastest(1) / fastest(benchProcs())
}

// --- models on sim ---

func bufpoolGetPut(m mix) float64 {
	iters := m.n(200000)
	pool := bufpool.New()
	return nsPer(iters, func() {
		for i := 0; i < iters; i++ {
			pool.Put(pool.Get(max(m.sizes[i%len(m.sizes)], 1)))
		}
	})
}

// fabricSend: one node streams packets of the mix's sizes to another,
// whose proc drains the inbox.
func fabricSend(m mix) float64 {
	n := m.n(4096)
	s := sim.New()
	net := fabric.New(s, 2, fabric.DefaultConfig())
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			net.Node(0).Send(p, 1, m.sizes[i%len(m.sizes)], nil)
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			net.Node(1).Inbox.Get(p)
		}
	})
	return nsPer(n, func() { check(s.Run()) })
}

func pcieXfer(m mix) float64 {
	n := m.n(8192)
	s := sim.New()
	bus := pcie.New(s, "cell", pcie.DefaultConfig())
	s.Spawn("dma", func(p *sim.Proc) {
		for i := 0; i < n; i += 2 {
			bus.Down(p, m.sizes[i%len(m.sizes)])
			bus.Up(p, m.sizes[i%len(m.sizes)])
		}
	})
	return nsPer(n, func() { check(s.Run()) })
}

func deviceConfig(m mix) device.Config {
	cfg := device.DefaultConfig("cell")
	cfg.MemBytes = m.memBytes
	return cfg
}

// deviceNew constructs devices eight at a time — one testbed job's worth —
// and drops them, so that the heap recycles their arenas as it does
// between a workload's repetitions. The first group pays for fresh heap
// and is not timed.
func deviceNew(m mix) float64 {
	const perJob = 8
	group := func() {
		s := sim.New()
		for i := 0; i < perJob; i++ {
			device.New(s, deviceConfig(m))
		}
	}
	group()
	groups := m.n(8)
	return nsPer(groups*perJob, func() {
		for i := 0; i < groups; i++ {
			group()
		}
	}) / 1e6
}

func deviceLaunch(m mix) float64 {
	n := m.n(2048)
	s := sim.New()
	dev := device.New(s, deviceConfig(m))
	s.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			dev.Launch(p, 1, 8, func(*device.Block) {}).Wait(p)
		}
	})
	return nsPer(n, func() { check(s.Run()) })
}

// deviceCopy is the host throughput of CopyIn at the mix's sizes.
func deviceCopy(m mix) float64 {
	n := m.msgs(m.sizes)
	s := sim.New()
	dev := device.New(s, deviceConfig(m))
	bus := pcie.New(s, "cell", pcie.DefaultConfig())
	src := make([]byte, max(m.sizes[len(m.sizes)-1], 1))
	ptr := dev.Mem().MustAlloc(len(src))
	bytes := 0
	s.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			size := m.sizes[i%len(m.sizes)]
			dev.CopyIn(p, bus, ptr, src[:size])
			bytes += size
		}
	})
	ns := nsPer(1, func() { check(s.Run()) })
	return float64(bytes) / ns * 1e9 / 1e6
}

// --- mpi ---

// mpiWorld builds n ranks, one per node.
func mpiWorld(n int, tree bool) (*sim.Sim, *mpi.World) {
	s := sim.New()
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	cfg := mpi.DefaultConfig()
	cfg.TreeCollectives = tree
	return s, mpi.NewWorld(s, fabric.New(s, n, fabric.DefaultConfig()), nodeOf, cfg)
}

// mpiP2P streams messages of the given sizes from rank 0 to rank 1.
func mpiP2P(m mix, sizes []int) float64 {
	n := m.msgs(sizes)
	s, w := mpiWorld(2, false)
	buf := make([]byte, sizes[len(sizes)-1])
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			check(w.Rank(0).Send(p, buf[:sizes[i%len(sizes)]], 1, 0))
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		into := make([]byte, len(buf))
		for i := 0; i < n; i++ {
			_, err := w.Rank(1).Recv(p, into, 0, 0)
			check(err)
		}
	})
	return nsPer(n, func() { check(s.Run()) })
}

// mpiColl has every rank of the mix (capped at collNodes) call op in a
// loop; the result is the host time of one collective over all ranks.
func mpiColl(m mix, op func(p *sim.Proc, r *mpi.Rank)) float64 {
	iters := m.n(64)
	n := min(m.nodes, collNodes)
	s, w := mpiWorld(n, m.tree)
	for i := 0; i < n; i++ {
		r := w.Rank(i)
		s.Spawn("rank", func(p *sim.Proc) {
			for k := 0; k < iters; k++ {
				op(p, r)
			}
		})
	}
	return nsPer(iters, func() { check(s.Run()) })
}

// --- transports ---

// simmpiMsg streams framed messages through the simulated-MPI transport.
func simmpiMsg(m mix) float64 {
	n := m.msgs(m.sizes)
	s, w := mpiWorld(2, false)
	tx, rx := simmpi.New(w.Rank(0)), simmpi.New(w.Rank(1))
	buf := make([]byte, max(m.sizes[len(m.sizes)-1], 1))
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			check(tx.Send(p, 1, buf[:max(m.sizes[i%len(m.sizes)], 1)]))
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			msg, err := rx.RecvMsg(p)
			check(err)
			w.Pool().Put(msg)
		}
	})
	return nsPer(n, func() { check(s.Run()) })
}

// liveMsg streams framed messages between two goroutines over the live
// channel transport and returns wall nanoseconds per message.
func liveMsg(m mix, sizes []int) float64 {
	n := m.msgs(sizes)
	pool := bufpool.New()
	cl := live.New(2, pool)
	defer cl.Close()
	proc := &transport.WallProc{Epoch: time.Now()}
	buf := make([]byte, max(sizes[len(sizes)-1], 1))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			msg, err := cl.Node(1).RecvMsg(proc)
			check(err)
			pool.Put(msg)
		}
	}()
	return nsPer(n, func() {
		for i := 0; i < n; i++ {
			check(cl.Node(0).Send(proc, 1, buf[:max(sizes[i%len(sizes)], 1)]))
		}
		wg.Wait()
	})
}

// --- core.Job cells ---

func cellConfig(m mix, nodes, cpus, gpus int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs = nodes, cpus, gpus
	cfg.Device.MemBytes = max(m.memBytes, 4<<20)
	if m.live {
		cfg.Transport.Backend = transport.BackendLive
	}
	return cfg
}

// coreCPUMsg: rank 0 on one node sends messages of the mix's sizes to
// rank 1 on another. The slope over two lengths leaves job build out.
func coreCPUMsg(m mix) float64 {
	return slope(m.msgs(m.sizes), func(msgs int) {
		job := core.NewJob(cellConfig(m, 2, 1, 0))
		job.SetCPUKernel(func(c *core.CPUCtx) {
			buf := make([]byte, m.sizes[len(m.sizes)-1])
			for i := 0; i < msgs; i++ {
				b := buf[:m.sizes[i%len(m.sizes)]]
				if c.Rank() == 0 {
					check(c.Send(1, b))
				} else {
					_, err := c.Recv(0, b)
					check(err)
				}
			}
		})
		_, err := job.Run()
		check(err)
	})
}

// coreGPUMsg is coreCPUMsg between two device slots: polling, mailbox and
// PCIe staging on both sides.
func coreGPUMsg(m mix) float64 {
	return slope(m.msgs(m.sizes)/4, func(msgs int) {
		job := core.NewJob(cellConfig(m, 2, 0, 1))
		job.SetGPUSetup(func(s *core.GPUSetup) {
			s.Args["buf"] = s.Dev.Mem().MustAlloc(max(m.sizes[len(m.sizes)-1], 1))
		})
		job.SetGPUKernel(1, 8, func(g *core.GPUCtx) {
			ptr := g.Arg("buf").(device.Ptr)
			for i := 0; i < msgs; i++ {
				size := m.sizes[i%len(m.sizes)]
				if g.Rank(0) == 0 {
					check(g.Send(0, 1, ptr, size))
				} else {
					_, err := g.Recv(0, 0, ptr, size)
					check(err)
				}
			}
		})
		_, err := job.Run()
		check(err)
	})
}

// coreGPUPoll: a device computes for a while and the monitor polls it in
// vain; the slope over two lengths is the host cost of one poll.
func coreGPUPoll(m mix) float64 {
	polls := func(compute time.Duration) (n int, ns float64) {
		job := core.NewJob(cellConfig(m, 1, 0, 1))
		job.SetGPUKernel(1, 8, func(g *core.GPUCtx) { g.Block().ChargeTime(compute) })
		ns = nsPer(1, func() {
			rep, err := job.Run()
			check(err)
			n = rep.Polls
		})
		return n, ns
	}
	n1, t1 := polls(10 * time.Millisecond)
	n2, t2 := polls(200 * time.Millisecond)
	return max(t2-t1, 0) / float64(max(n2-n1, 1))
}

// coreFanin is the matching stress the ROADMAP names: 16 sources, 4096
// messages in flight at one sink.
func coreFanin(m mix) float64 {
	inflight := m.n(4096)
	return nsPer(inflight, func() {
		_, err := apps.HighFanout(core.DefaultConfig(), 16, inflight)
		check(err)
	})
}

// coreColl: every rank of the mix's shape (nodes capped at collNodes)
// joins barriers; the slope is the host time of one DCGN barrier.
func coreColl(m mix) float64 {
	return slope(m.n(64), func(barriers int) {
		job := core.NewJob(cellConfig(m, min(m.nodes, collNodes), 2, 0))
		job.SetCPUKernel(func(c *core.CPUCtx) {
			for i := 0; i < barriers; i++ {
				c.Barrier()
			}
		})
		_, err := job.Run()
		check(err)
	})
}

// coreJobBuild is NewJob and Run of kernels that return at once, at the
// workload's own shape: what construction and teardown cost per job.
func coreJobBuild(m mix) float64 {
	cfg := cellConfig(m, m.nodes, 2, 0)
	cfg.Device.MemBytes = m.memBytes
	switch {
	case m.gpus:
		cfg.GPUs = 2
	case m.serving:
		cfg.Nodes, cfg.CPUKernels = 2, 1 // a chat job
	case m.shards:
		cfg.CPUKernels, cfg.Shards = 1, benchProcs()
		cfg.MPI.TreeCollectives = m.tree
	}
	build := func() {
		job := core.NewJob(cfg)
		job.SetCPUKernel(func(*core.CPUCtx) {})
		if m.gpus {
			job.SetGPUKernel(1, 8, func(*core.GPUCtx) {})
		}
		_, err := job.Run()
		check(err)
	}
	build() // the first build pays for fresh heap; repetitions do not
	n := m.n(max(2, 256/cfg.Nodes))
	return nsPer(n, func() {
		for i := 0; i < n; i++ {
			build()
		}
	}) / 1e6
}

// --- Runtime cell ---

// cellArrival is the smallest serving job: one request to one worker.
var cellArrival = loadgen.Arrival{Class: "cell", Weight: 1, Nodes: 2, Fanout: 1, Size: 512, Iters: 1}

// runtimeJob is the host time of one minimal serving job through a
// Runtime; the slope over two job counts leaves the runtime's own
// construction out. On the simulated backend the jobs arrive 200 µs of
// virtual time apart, as serve_sim's do on average, so the admission queue
// stays as short as it is there; on the live backend each job is submitted
// and waited for in turn.
func runtimeJob(m mix, backend string) float64 {
	return slope(m.n(256), func(jobs int) {
		rt, err := core.NewRuntime(core.RuntimeConfig{Nodes: serveNodes, Transport: transport.Config{Backend: backend}})
		check(err)
		defer rt.Close()
		var handles []*core.JobHandle
		for i := 0; i < jobs; i++ {
			job, opts := loadgen.BuildJob(backend, cellArrival, false), core.SubmitOpts{Tenant: "cell"}
			var h *core.JobHandle
			if backend == transport.BackendLive {
				h, err = rt.Submit(job, opts)
				check(err)
				_, err = h.Wait()
			} else {
				h, err = rt.SubmitAt(job, opts, time.Duration(i)*200*time.Microsecond)
			}
			check(err)
			handles = append(handles, h)
		}
		if backend == transport.BackendSim {
			check(rt.Run())
			for _, h := range handles {
				_, err := h.Wait()
				check(err)
			}
		}
	})
}

// loadgenGen is the host time of generating one arrival of the workload's
// kind of trace.
func loadgenGen(m mix) float64 {
	spec := loadgen.Spec{Seed: 1, Rate: 20000, Duration: time.Second, Arrival: loadgen.ArrivalPoisson, Preset: "chat", Nodes: serveNodes}
	if m.live {
		spec.Preset = "mixed"
	}
	var n int
	ns := nsPer(1, func() {
		tr, err := loadgen.RecordTrace(spec)
		check(err)
		n = len(tr.Arrivals)
	})
	return ns / float64(max(n, 1))
}

// --- obs ---

func obsSpan(m mix) float64 {
	n := m.n(200000)
	ring := obs.NewRing(obs.DefaultRingCap)
	return nsPer(n, func() {
		for i := 0; i < n; i++ {
			ring.Append(obs.Span{Op: "send", Rank: i & 15, Post: time.Duration(i), Done: time.Duration(i + 1)})
		}
	})
}

func obsHist(m mix) float64 {
	n := m.n(500000)
	h := obs.NewRegistry().Histogram("cell_ns")
	return nsPer(n, func() {
		for i := 0; i < n; i++ {
			h.Observe(int64(i))
		}
	})
}

// stitchNsPerSpan is the host time flow.Stitch takes per span of a traced
// job's spans.
func stitchNsPerSpan(spans []obs.Span) float64 {
	if len(spans) == 0 {
		return 0
	}
	reps := max(1, 20000/len(spans))
	return nsPer(reps*len(spans), func() {
		for i := 0; i < reps; i++ {
			flow.Stitch(spans)
		}
	})
}
