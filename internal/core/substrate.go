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
// and their two kinds of host differ in: Job.Run owns a whole substrate, a
// Runtime lends each admitted job a tenant's share of one. It is a plain
// value of slices and pointers because a Runtime fills one per job: no
// closure per node, nothing boxed that is not already a pointer.
type engineEnv struct {
	// rt is the live substrate every node's threads run on. Nil on the
	// simulated backend, where each node runs on its own simulator, sims[n]
	// — a tenant's nodes inside its proc group, which is all that tells them
	// from an exclusive run's.
	rt rt
	// sims maps node -> owning simulator (its shard's), so everything a node
	// spawns stays on its shard. Nil on the live backend, which has no
	// device model.
	sims []*sim.Sim
	// endpoints holds each node's raw transport endpoint, in job-local node
	// space, before the configured middlewares wrap it.
	endpoints []transport.Transport
	// pool recycles every host-side staging buffer the run creates — GPU
	// payload staging, wire pack/unpack, collective scratch, and (shared
	// via mpi.Config.Pool or World.SetRankPool) the MPI layer's envelope
	// staging, so leak accounting is exact. Buffer reuse is host-side only
	// and never observable in virtual time.
	pool *bufpool.Pool
	// clock read at report time, less epoch, is the job's Elapsed; the
	// clocks are deliberately not normalised. An exclusive run reads the
	// simulator's shard-count-invariant time after Run delivered its
	// trailing arrivals, a tenant reads the shared clock at its completion
	// instant, a live run the wall.
	clock interface{ Now() time.Duration }
	// epoch is the job's start on clock: its admission instant on a
	// multi-tenant runtime's shared simulated clock, zero on job-local
	// clocks. It is also where the critical-path analysis window starts.
	epoch time.Duration
	// wire meters the inter-node traffic that is this job's: the whole
	// fabric's for an exclusive simulated run, a tenant's wireMeter, the
	// live group's.
	wire wireTotals
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
	loop  *sim.Sharded
	sims  []*sim.Sim // node -> owning event loop
	net   *fabric.Network
	pool  *bufpool.Pool
	world *mpi.World
}

// newSubstrate builds a simulated cluster of the given shape: one fabric,
// one MPI world with a rank per node, one pool, over one sharded simulator.
// shards is how many groups the nodes are split into, each owning its own
// event loop (0 means 1); they advance in parallel through conservative
// lookahead windows bounded by the fabric's minimum cross-shard latency,
// and cross-node packets travel as timestamped arrivals in a total order
// independent of the shard count, so a run's Report is bit-identical for
// every value — only the wall-clock time changes. Jitter draws from the
// owning event loop's stream, which is why checkRunnable allows it on one
// shard only.
func newSubstrate(nodes int, netCfg fabric.Config, mpiCfg mpi.Config, shards int, maxTime time.Duration, jitterFrac float64, jitterSeed int64) *substrate {
	sub := &substrate{pool: bufpool.New(), sims: make([]*sim.Sim, nodes), loop: sim.NewSharded(max(shards, 1))}
	sub.loop.SetMaxTime(maxTime)
	if jitterFrac > 0 {
		sub.loop.Shard(0).Sim().SetJitter(jitterFrac, jitterSeed) // the only shard
	}
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
	nodeOf := make([]int, nodes) // one underlying MPI rank per node
	for n := range nodeOf {
		nodeOf[n] = n
		sub.sims[n] = sub.net.Node(n).Sim()
	}
	mpiCfg.Pool = sub.pool // one pool across layers, so leak accounting is exact
	sub.world = mpi.NewWorld(nil, sub.net, nodeOf, mpiCfg)
	return sub
}

// wireMeter is a tenant's wire totals: what the fabric's per-node counters
// show its nodes sent since it was admitted onto them. A node has one owner
// at a time and a retired owner's procs are gone, so that is the tenant's
// own traffic by the definition an exclusive run reads off the whole
// fabric, MPI-internal control packets and collectives included.
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

// exclusiveEnv hosts one job on the whole substrate: every node on its own
// simulator, the world group's simulated-MPI endpoints, the substrate's
// pool, clock and fabric totals.
func (sub *substrate) exclusiveEnv() engineEnv {
	return engineEnv{sims: sub.sims, endpoints: groupEndpoints(simmpi.WorldGroup(sub.world), len(sub.sims)),
		pool: sub.pool, clock: sub.loop, wire: sub.net}
}

// groupEndpoints lists a simulated-MPI group's per-node endpoints as the
// raw transports an engine bring-up wraps.
func groupEndpoints(g *simmpi.Group, nodes int) []transport.Transport {
	endpoints := make([]transport.Transport, nodes)
	for n := range endpoints {
		endpoints[n] = g.Endpoint(n)
	}
	return endpoints
}
