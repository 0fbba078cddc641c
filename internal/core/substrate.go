package core

import (
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/fabric"
	"dcgn/internal/mpi"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
	"dcgn/internal/transport/simmpi"
)

// engineEnv is what one engine bring-up needs from whoever hosts it, and
// everything the two substrates — the sharded simulator, live goroutines —
// differ in. On the simulated one there is a single way to fill it,
// substrate.env, whether the job has the cluster to itself (Job.Run) or a
// tenant's share of it (a Runtime). It is a plain value of slices and
// pointers because a Runtime fills one per job: no closure per node, nothing
// boxed that is not already a pointer.
type engineEnv struct {
	// rt is the live substrate every node's threads run on. Nil on the
	// simulated backend, where each node runs on hosts[n]'s simulator.
	rt rt
	// hosts maps node -> the substrate node it is placed on, which knows the
	// simulator that owns it (its shard's, so everything a node spawns stays
	// on its shard) and the node's noise stream, and keeps the engine's free
	// lists. Nil on the live backend, which has no device model and no
	// modeled time to perturb.
	hosts []*hostNode
	// endpoints holds each node's raw transport endpoint, in job-local node
	// space, before the configured middlewares wrap it.
	endpoints []transport.Transport
	// pool recycles every host-side staging buffer the run creates — GPU
	// payload staging, wire pack/unpack, collective scratch, and (shared
	// via mpi.Config.Pool or World.SetRankPool) the MPI layer's envelope
	// staging, so leak accounting is exact. Buffer reuse is host-side only
	// and never observable in virtual time.
	pool *bufpool.Pool
	// clock read at report time, less epoch, is the job's Elapsed: on the
	// simulated backend the instant the last of the job's own procs returned
	// (a tenant reads it there and then, Job.Run after the run, from the
	// simulator's idle instant — the same one), on the live backend the wall.
	clock interface{ Now() time.Duration }
	// epoch is the job's start on clock: its admission instant on a
	// multi-tenant runtime's shared simulated clock, zero on job-local
	// clocks. It is also where the critical-path analysis window starts.
	epoch time.Duration
	// wire meters the inter-node traffic that is this job's: a wireMeter
	// over its nodes, the live group's counters.
	wire wireTotals
}

// hostNode is a substrate node as the engines placed on it see it: the
// fabric node and the free lists of the engine's per-message objects and of
// the engines themselves, which outlive any one job on the node (a
// Runtime's tenants come and go on one simulator, under one baton) and are
// touched only under the baton of the node's simulator.
type hostNode struct {
	*fabric.Node
	txs   sim.FreeList[remoteSend]
	ins   sim.FreeList[inbound]
	joins sim.FreeList[sendrecvJoin]
	// sends and unexp are the matching index's entries (matchIndex).
	sends sim.FreeList[parked[*request]]
	unexp sim.FreeList[parked[*inbound]]
	// engines holds the node's spare progress engine: a tenant takes one at
	// its start (Job.newNodeState), and a Runtime gives it back once the
	// tenant's group is killed, never at its retirement, when its comm
	// thread and receiver still wait on the engine's queue. Two engines a
	// node are enough: the tenant's, and the one its predecessor held until
	// that was killed.
	engines sim.FreeList[nodeState]
}

// wireTotals meters inter-node traffic: packets and bytes carried so far.
type wireTotals interface {
	Totals() (packets int, bytes int64)
}

// substrate is a simulated cluster: the event loops and their coordinator,
// the fabric, the staging pool and the underlying MPI world. Job.Run builds
// one per run and a simulated Runtime one per batch.
type substrate struct {
	// loop drives the per-shard event loops and is the cluster's clock.
	loop *sim.Sharded
	// nodes lists every node, in order: the placement of a job that has the
	// cluster to itself, and the node of each underlying MPI rank.
	nodes []int
	hosts []hostNode
	net   *fabric.Network
	pool  *bufpool.Pool
	world *mpi.World
}

// spareNodeObjects caps each of a node's lists of spare objects.
const spareNodeObjects = 128

// newSubstrate builds a simulated cluster of the given shape: one fabric,
// one MPI world with a rank per node, one pool, over one sharded simulator.
// shards is how many groups the nodes are split into, each owning its own
// event loop (0 means 1); they advance in parallel through conservative
// lookahead windows bounded by the fabric's minimum cross-shard latency,
// and cross-node packets travel as timestamped arrivals in a total order
// independent of the shard count, so a run's Report is bit-identical for
// every value — only the wall-clock time changes. Timing noise is no
// exception: each node carries its own stream (fabric.Node.Jitter), which
// the job running on the node seeds and only that node's procs draw from.
func newSubstrate(nodes int, netCfg fabric.Config, mpiCfg mpi.Config, shards int, maxTime time.Duration) *substrate {
	sub := &substrate{pool: bufpool.New(), nodes: make([]int, nodes), hosts: make([]hostNode, nodes), loop: sim.NewSharded(max(shards, 1))}
	sub.loop.SetMaxTime(maxTime)
	// Topology-aware node -> shard partition: whole locality groups
	// (fat-tree pods, dragonfly groups) go to one shard, so intra-group
	// traffic — the short-hop majority — stays on the shard's same-shard
	// fast path, and the cross-shard latency (and therefore the
	// lookahead window) is set by the multi-hop inter-group tier instead
	// of the cheapest link. On flat/ungrouped fabrics this degenerates
	// to the legacy contiguous block partition. The partition only
	// changes which event loop owns a node, never event ordering, so
	// Reports stay bit-identical across shard counts either way.
	shardOf := fabric.ShardPartition(netCfg.Topology, nodes, sub.loop.Shards())
	sub.net = fabric.NewSharded(sub.loop, nodes, netCfg, shardOf)
	sub.loop.SetLookahead(sub.net.Lookahead())
	for n := range sub.nodes {
		sub.nodes[n] = n
		h := &sub.hosts[n]
		h.Node = sub.net.Node(n)
		h.txs.Init(h.Sim(), "remote-send", spareNodeObjects)
		h.ins.Init(h.Sim(), "inbound", spareNodeObjects)
		h.joins.Init(h.Sim(), "sendrecv-join", spareNodeObjects)
		h.sends.Init(h.Sim(), "match-entry", spareNodeObjects)
		h.unexp.Init(h.Sim(), "match-entry", spareNodeObjects)
		h.engines.Init(h.Sim(), "node-engine", 2)
	}
	mpiCfg.Pool = sub.pool // one pool across layers, so leak accounting is exact
	sub.world = mpi.NewWorld(nil, sub.net, sub.nodes, mpiCfg)
	return sub
}

// wireMeter is a job's wire totals: what the fabric's per-node counters show
// its nodes sent since it was started on them, MPI-internal control packets
// and collectives included. A node has one owner at a time and a retired
// owner's procs are gone, so that is the job's own traffic; over every node
// from time zero it is the fabric's total.
type wireMeter struct {
	net   *fabric.Network
	nodes []int
	pk0   int
	by0   int64
}

// meter starts a wireMeter over nodes at the current counts.
func (sub *substrate) meter(nodes []int) *wireMeter {
	m := &wireMeter{net: sub.net, nodes: nodes}
	m.pk0, m.by0 = m.Totals()
	return m
}

// Totals counts the inter-node packets and bytes the nodes sent since the
// meter started.
func (m *wireMeter) Totals() (packets int, bytes int64) {
	packets, bytes = -m.pk0, -m.by0
	for _, n := range m.nodes {
		pk, by := m.net.Node(n).Totals()
		packets, bytes = packets+pk, bytes+by
	}
	return packets, bytes
}

// env hosts one job on the substrate: job-local node n on cluster node
// placement[n] — its simulator, its noise stream — behind g's endpoint for it, staging from pool,
// the cluster's clock read from epoch, and a meter over the placement started
// now. Job.Run passes the world group, every node, the substrate's own pool
// and epoch zero; a Runtime its tenant's.
func (sub *substrate) env(g *simmpi.Group, placement []int, pool *bufpool.Pool, epoch time.Duration) engineEnv {
	env := engineEnv{hosts: make([]*hostNode, len(placement)), endpoints: make([]transport.Transport, len(placement)),
		pool: pool, clock: sub.loop, epoch: epoch, wire: sub.meter(placement)}
	for n, w := range placement {
		env.hosts[n], env.endpoints[n] = &sub.hosts[w], g.Endpoint(n)
	}
	return env
}
