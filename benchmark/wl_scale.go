package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/fabric"
)

// scale_sharded: the neighbour exchange behind the scale/determinism gates
// (apps.ScaleFanout) on 1024 CPU-only nodes of a k=16 fat-tree with tree
// collectives, on the sharded engine: in every round every rank exchanges
// 8-byte messages with its neighbours at offsets ±2^k, k < fan-out, and a
// final Gather collects every rank's digest at rank 0.
//
// The kernel is the benchmark's own copy of ScaleFanout's, for two things
// that function cannot give: payloads made from the seed, and checkpoints —
// rank 0 reads the host clock after every receive, and the lookahead
// windows keep every shard within a few virtual microseconds of it, so
// those are points of the whole deterministic computation (workload.go,
// outcome.marks). Without them a 0.9 s repetition moved 23% between runs.
//
// The timed run has GOMAXPROCS 1 like the other sim workloads: its shards
// take turns. Run in parallel on the 2-core dev box the exchange is 1.3
// times faster, but two barrier-coupled threads catch the neighbours'
// bursts on either core, and the median of ten runs moved 22–28% between
// a noisy half hour and a quiet one, against under 10% for the
// single-threaded workloads. What the timed run measures is the sharded
// engine's total work; sim.shard_speedup says what parallel shards gain.

const (
	scaleRounds = 4
	scaleFanout = 4
	scaleHopLat = 300 * time.Nanosecond
)

var scaleSharded = &workload{
	name: "scale_sharded",
	op:   "one message delivered",
	why:  "1024 CPU-only nodes on a fat-tree: the sharded engine, fabric topology and tree Gather; no device or PCIe work",
	mix:  mix{sizes: []int{8}, nodes: 1024, procs: 4096, shards: true, tree: true},
	prepare: func(e env) (repFn, error) {
		nodes := 1024
		if e.quick {
			nodes = 32
		}
		in := genScale(e.seed, nodes)
		// Reference: the same job on one shard. Sharded results must be
		// bit-identical for every shard count.
		ref, err := runScale(in, scaleConfig(nodes, 1, false))
		if err != nil {
			return nil, fmt.Errorf("scale reference: %w", err)
		}
		return func(traced bool) (outcome, error) {
			o, err := runScale(in, scaleConfig(nodes, benchProcs(), traced))
			// Flow contexts lengthen every frame, so only an untraced run
			// must reproduce the reference's virtual time.
			if err == nil && !traced && o.virtNs != ref.virtNs {
				o.fail("virtual time differs from the one-shard reference", 1)
			}
			return o, err
		}, nil
	},
}

// scaleConfig is the job configuration of the exchange on nodes CPU-only
// nodes: the smallest fat-tree that holds them (k=16 for 1024), tree
// collectives, the given shard count.
func scaleConfig(nodes, shards int, traced bool) core.Config {
	k := 4
	for k*k*k/4 < nodes {
		k += 2
	}
	c := core.DefaultConfig()
	c.Nodes, c.CPUKernels, c.GPUs, c.SlotsPerGPU, c.Shards = nodes, 1, 0, 0, shards
	c.Net.Topology = fabric.NewFatTree(k, scaleHopLat)
	c.MPI.TreeCollectives = true
	c.Trace, c.Flows, c.Metrics = traced, traced, traced
	// A rank posts 4*rounds*fanout requests and one gather; the default
	// 8192-span ring per node would cost 1.6 GB at 1024 nodes.
	c.TraceCap = 128
	return c
}

// scaleInputs holds every message's 8-byte payload and the digest each
// rank must end with.
type scaleInputs struct {
	nodes   int
	payload []uint64 // indexed by word
	expect  []uint64
}

// offsets returns the neighbour distances of a round: 2^k mod n, without
// those that wrap onto the rank itself.
func (in *scaleInputs) offsets() []int {
	var out []int
	for k := 0; k < scaleFanout; k++ {
		if d := (1 << k) % in.nodes; d != 0 {
			out = append(out, d)
		}
	}
	return out
}

// word is the index of the payload src sends in round r at offset index k,
// upwards (to src+d) or downwards.
func (in *scaleInputs) word(src, r, k int, up bool) int {
	i := ((src*scaleRounds+r)*scaleFanout + k) * 2
	if up {
		i++
	}
	return i
}

func genScale(seed int64, nodes int) *scaleInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &scaleInputs{nodes: nodes, payload: make([]uint64, nodes*scaleRounds*scaleFanout*2), expect: make([]uint64, nodes)}
	for i := range in.payload {
		in.payload[i] = rng.Uint64()
	}
	var b [8]byte
	for me := range in.expect {
		d := fnvOffset
		for r := 0; r < scaleRounds; r++ {
			for k, off := range in.offsets() {
				up, down := (me+off)%nodes, (me-off+nodes)%nodes
				// Receives complete in posting order: from below (its
				// upward send), then from above (its downward send).
				for _, w := range []int{in.word(down, r, k, true), in.word(up, r, k, false)} {
					binary.LittleEndian.PutUint64(b[:], in.payload[w])
					d = fold(d, b[:])
				}
			}
		}
		in.expect[me] = d
	}
	return in
}

// runScale runs the exchange once.
func runScale(in *scaleInputs, cfg core.Config) (outcome, error) {
	start := time.Now()
	n := in.nodes
	job := core.NewJob(cfg)
	gathered := make([]byte, 8*n)
	bad := make([]int, n) // failed operations, per rank
	var marks []time.Duration
	job.SetCPUKernel(func(c *core.CPUCtx) {
		me, d := c.Rank(), fnvOffset
		for r := 0; r < scaleRounds; r++ {
			var sends, recvs []*core.AsyncOp
			var bufs [][]byte
			for k, off := range in.offsets() {
				up, down := (me+off)%n, (me-off+n)%n
				// Both receives are posted before the sends, so that no
				// message waits in the unexpected path longer than it must.
				for _, src := range []int{down, up} {
					b := make([]byte, 8)
					recvs, bufs = append(recvs, c.IRecv(src, b)), append(bufs, b)
				}
				for i, dst := range []int{up, down} {
					p := make([]byte, 8)
					binary.LittleEndian.PutUint64(p, in.payload[in.word(me, r, k, i == 0)])
					sends = append(sends, c.ISend(dst, p))
				}
			}
			for i, op := range recvs {
				if st, err := op.Wait(c); err != nil || st.Bytes != 8 {
					bad[me]++
				}
				d = fold(d, bufs[i])
				if me == 0 {
					marks = append(marks, time.Since(start))
				}
			}
			for _, op := range sends {
				if _, err := op.Wait(c); err != nil {
					bad[me]++
				}
			}
		}
		mine := make([]byte, 8)
		binary.LittleEndian.PutUint64(mine, d)
		var into []byte
		if me == 0 {
			into = gathered
		}
		if err := c.Gather(0, mine, into); err != nil {
			bad[me]++
		}
	})
	rep, err := job.Run()
	if err != nil {
		return outcome{}, fmt.Errorf("scale: %w", err)
	}
	// Every rank sends to and receives from two neighbours per offset.
	o := outcome{ops: n * scaleRounds * len(in.offsets()) * 2, virtNs: rep.Elapsed.Nanoseconds(), digest: fnvOffset, marks: marks}
	got := make([]uint64, n)
	for rank := range got {
		got[rank] = binary.LittleEndian.Uint64(gathered[8*rank:])
		o.digest = (o.digest ^ got[rank]) * fnvPrime
		o.fail("an operation returned an error or a wrong length", bad[rank])
	}
	if !slices.Equal(got, in.expect) {
		// Some rank saw other messages; which ones is unknown.
		o.fail("a rank's payload digest is wrong", o.ops-o.failed)
	}
	if rep.PoolAcquires != rep.PoolReleases {
		o.fail(poolLeak, 1)
	}
	o.counts.add(rep, 0)
	return o, nil
}
