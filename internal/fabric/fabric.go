// Package fabric models the cluster interconnect: nodes with network
// interfaces (NICs) joined by a non-blocking switch, plus an intra-node
// shared-memory path.
//
// The timing model is LogGP-flavoured: a packet of n bytes occupies the
// sender's NIC for SendOverhead + n/BW (outbound serialization and
// contention), spends Lat in flight, then occupies the receiver's NIC for
// RecvOverhead (inbound per-packet processing; incast of many small packets
// serializes here). Intra-node packets skip the NICs and pay the
// shared-memory latency/bandwidth instead — this is the MVAPICH2 IPC path of
// the paper's testbed.
//
// New builds a network on one simulator, NewSharded the same nodes spread
// over the shards of a sim.Sharded; either way a Node knows the simulator
// that owns it (Node.Sim), which is all the layers above need, counts its
// own inter-node traffic (Network.Totals sums the nodes; there is no other
// wire counter), and hands every inter-node packet to the destination's
// simulator as a timestamped arrival, ordered by (delivery time, source
// node, per-source sequence) wherever the two nodes live.
//
// Every send is two steps, written once: SendStep charges the outbound cost
// as the sending proc's wake, and Sent puts the packet on its way. Send
// drives them from a stackful proc, Inject from a stackless helper, and the
// procs that deliver packets are stackless too (sim.SpawnStep).
package fabric

import (
	"fmt"
	"time"

	"dcgn/internal/sim"
)

// Config describes interconnect timing. DefaultConfig approximates the
// paper's InfiniBand DDR cluster.
type Config struct {
	// Lat is the one-way wire+switch latency.
	Lat time.Duration
	// BW is per-link bandwidth in bytes/second.
	BW float64
	// SendOverhead is per-packet NIC injection cost at the sender.
	SendOverhead time.Duration
	// RecvOverhead is per-packet processing cost at the receiver NIC.
	RecvOverhead time.Duration
	// ShmLat / ShmBW describe the intra-node (same physical node)
	// shared-memory transport.
	ShmLat time.Duration
	ShmBW  float64
	// Topology, when non-nil, replaces the flat Lat with per-pair wire
	// latencies routed over a modeled switch graph (fat-tree, dragonfly).
	// NIC overheads and bandwidth still apply at the endpoints.
	Topology Topology
}

// DefaultConfig returns InfiniBand-DDR-class constants (2008 era).
func DefaultConfig() Config {
	return Config{
		Lat:          1300 * time.Nanosecond,
		BW:           1.25e9,
		SendOverhead: 400 * time.Nanosecond,
		RecvOverhead: 400 * time.Nanosecond,
		// The IPC path copies through a shared segment (two memcpys), so it
		// is slower than a direct in-process memcpy — the reason DCGN's
		// small/medium CPU broadcasts beat MVAPICH2 in Fig. 7.
		ShmLat: 600 * time.Nanosecond,
		ShmBW:  2e9,
	}
}

// Packet is one message on the wire. Payload is opaque to the fabric.
type Packet struct {
	Src, Dst int // node ids
	Size     int // bytes charged on the wire
	Payload  any
	net      *Network // where Dst is, for the proc that delivers it
}

// Network is the switch fabric plus all node endpoints.
type Network struct {
	cfg   Config
	nodes []*Node

	// shardOf maps node id → shard index in a sharded network (all zero for
	// a plain single-Sim network).
	shardOf []int
	// late, once set (DropLate), claims the packets of finished traffic.
	late func(payload any) bool
}

// DropLate installs late, asked about every packet that arrives off the
// wire before its destination's RX NIC charges or draws anything: a packet
// it claims (and whose payload it has disposed of) goes no further. Install
// it between events, on a network of one shard.
func (net *Network) DropLate(late func(payload any) bool) { net.late = late }

// New creates a network of n nodes.
func New(s *sim.Sim, n int, cfg Config) *Network {
	checkConfig(n, cfg)
	net := &Network{cfg: cfg, shardOf: make([]int, n)}
	for i := 0; i < n; i++ {
		net.nodes = append(net.nodes, newNode(net, i, s))
	}
	return net
}

// NewSharded creates a network of n nodes spread across the shards of a
// sharded simulation: node i's endpoint state (NICs, inbox) lives on
// shard shardOf[i]'s Sim, and the schedule is identical for every shard
// count.
func NewSharded(sc *sim.Sharded, n int, cfg Config, shardOf []int) *Network {
	checkConfig(n, cfg)
	if len(shardOf) != n {
		panic("fabric: shardOf length does not match node count")
	}
	net := &Network{cfg: cfg, shardOf: shardOf}
	for i := 0; i < n; i++ {
		net.nodes = append(net.nodes, newNode(net, i, sc.Shard(shardOf[i]).Sim()))
	}
	return net
}

func checkConfig(n int, cfg Config) {
	if n <= 0 {
		panic("fabric: need at least one node")
	}
	if cfg.BW <= 0 || cfg.ShmBW <= 0 {
		panic("fabric: non-positive bandwidth")
	}
	if cfg.Topology != nil && cfg.Topology.Hosts() < n {
		panic(fmt.Sprintf("fabric: topology %s has %d hosts for %d nodes",
			cfg.Topology.Name(), cfg.Topology.Hosts(), n))
	}
}

func newNode(net *Network, id int, s *sim.Sim) *Node {
	nd := &Node{
		net:     net,
		id:      id,
		s:       s,
		sendNIC: s.NewResource(fmt.Sprintf("nic-tx%d", id), 1),
		recvNIC: s.NewResource(fmt.Sprintf("nic-rx%d", id), 1),
		Inbox:   sim.NewQueue[*Packet](s, fmt.Sprintf("inbox%d", id)),
	}
	nd.spare.Init(s, "packet", sparePackets)
	return nd
}

// sparePackets caps a node's list of spare packets.
const sparePackets = 128

// latency returns the one-way wire latency between two distinct nodes.
func (n *Network) latency(src, dst int) time.Duration {
	if n.cfg.Topology != nil {
		return n.cfg.Topology.Latency(src, dst)
	}
	return n.cfg.Lat
}

// Lookahead returns the conservative lookahead bound for a sharded
// network: the minimum one-way wire latency between nodes on different
// shards (falling back to the minimum between any two nodes, then to
// cfg.Lat, when the partition has no cross-shard pairs).
func (n *Network) Lookahead() time.Duration {
	topo := n.cfg.Topology
	if topo == nil {
		// Flat crossbar: every inter-node latency is cfg.Lat.
		return n.cfg.Lat
	}
	if l := MinCrossLatency(topo, n.shardOf); l > 0 {
		return l
	}
	return n.cfg.Lat
}

// Totals returns the inter-node packets and bytes sent so far, summed over
// the per-node counters (shards mutate them concurrently, so there is no
// network-wide one). Intra-node traffic is not counted.
func (n *Network) Totals() (packets int, bytes int64) {
	for _, nd := range n.nodes {
		packets += nd.pkts
		bytes += nd.bytes
	}
	return packets, bytes
}

// Size returns the number of nodes.
func (n *Network) Size() int { return len(n.nodes) }

// Node returns the endpoint with the given id.
func (n *Network) Node(id int) *Node { return n.nodes[id] }

// Node is one cluster endpoint. Consumers (an MPI progress engine) drain
// Inbox.
type Node struct {
	net     *Network
	id      int
	s       *sim.Sim // the Sim owning this node's endpoint state
	sendNIC *sim.Resource
	recvNIC *sim.Resource
	// Inbox receives every packet addressed to this node, in arrival order.
	Inbox *sim.Queue[*Packet]
	jit   sim.Jitter // the node's noise stream; see Jitter

	// xseq numbers this node's inter-node packets; with the delivery time
	// and node id it forms the deterministic arrival ordering key.
	xseq uint64
	// pkts/bytes count inter-node traffic from this node (see Totals).
	pkts  int
	bytes int64
	// spare holds packets for this node's sends: the ones that ended their
	// lives here, given back by whoever drained them from the Inbox
	// (Release).
	spare sim.FreeList[Packet]
}

// Sim returns the simulator owning this node's endpoint state: the one
// shared simulator of a plain network, the node's shard's in a sharded
// one. Whatever runs on the node (an MPI rank, its progress engine) must
// be spawned there.
func (nd *Node) Sim() *sim.Sim { return nd.s }

// Jitter returns the node's noise stream. Everything that charges modeled
// time on the node's behalf — its NICs here, the MPI rank, bus, devices and
// engine above — scales the charge through it, on the node's simulator, so
// the draws come in the node's own event order. It is unseeded (the
// identity) until whoever runs a job on the node seeds it, and stays that
// job's until the next one seeds it again.
func (nd *Node) Jitter() *sim.Jitter { return &nd.jit }

// Totals returns the inter-node packets and bytes this node has sent so far
// (see Network.Totals).
func (nd *Node) Totals() (packets int, bytes int64) { return nd.pkts, nd.bytes }

// Send transmits a packet to node dst. The calling proc is blocked for the
// outbound serialization time (NIC contention included); delivery completes
// asynchronously after the flight latency and receiver processing. It is
// SendStep, then Sent once the charge is over: the one send, driven from a
// stackful proc.
func (nd *Node) Send(p *sim.Proc, dst int, size int, payload any) {
	pkt := nd.SendStep(p, dst, size, payload)
	p.Await()
	nd.Sent(p, pkt)
}

// SendStep is Send's non-parking form, for a stackless proc: it charges the
// packet's outbound cost as p's next wake and returns the packet, which the
// step that wake runs hands to Sent.
func (nd *Node) SendStep(p *sim.Proc, dst int, size int, payload any) *Packet {
	pkt := nd.packet(dst, size, payload)
	nd.charge(p, pkt)
	return pkt
}

// Inject sends a packet from a stackless helper proc named prefix:id, so
// that the caller does not wait for the NIC: the helper's two steps are
// SendStep's charge and Sent.
func (nd *Node) Inject(prefix string, id, dst, size int, payload any) {
	nd.s.SpawnStep(prefix, id, inject, nd.packet(dst, size, payload))
}

// inject is the step of an Inject helper, whose Arg is the packet.
func inject(h *sim.Proc) {
	pkt := h.Arg().(*Packet)
	nd := pkt.net.nodes[pkt.Src]
	if h.Woken() {
		nd.Sent(h, pkt)
		return
	}
	nd.charge(h, pkt)
}

// packet builds a packet from nd to node dst.
func (nd *Node) packet(dst, size int, payload any) *Packet {
	if dst < 0 || dst >= len(nd.net.nodes) {
		panic(fmt.Sprintf("fabric: bad destination node %d", dst))
	}
	pkt := nd.spare.Get()
	*pkt = Packet{Src: nd.id, Dst: dst, Size: size, Payload: payload, net: nd.net}
	return pkt
}

// Release gives back a packet its consumer has taken from nd's Inbox and is
// done with, for one of nd's own sends to reuse. It is cleared at once, and
// must not be used after: a consumer that keeps what a packet carries takes
// its Payload out first. A packet that is not released is left to the
// garbage collector.
func (nd *Node) Release(pkt *Packet) {
	if pkt.Dst != nd.id {
		panic(fmt.Sprintf("fabric: node %d releasing a packet for node %d", nd.id, pkt.Dst))
	}
	nd.spare.Put(pkt)
}

// charge registers p's wake for the end of pkt's outbound cost: the
// sender's copy of an intra-node packet through shared memory, or the TX
// NIC held for overhead + serialization (contention included).
func (nd *Node) charge(p *sim.Proc, pkt *Packet) {
	cfg := nd.net.cfg
	if pkt.Dst == nd.id {
		p.SleepStep(nd.jit.Scale(time.Duration(float64(pkt.Size) / cfg.ShmBW * 1e9)))
		return
	}
	nd.pkts++
	nd.bytes += int64(pkt.Size)
	nd.sendNIC.UseStep(p, nd.jit.Scale(cfg.SendOverhead+time.Duration(float64(pkt.Size)/cfg.BW*1e9)))
}

// Sent puts a packet whose outbound cost p has paid on its way: an
// intra-node one to a helper that delivers it after the shared-memory
// latency, an inter-node one to the destination's simulator as an arrival
// (at least the lookahead away when that is another shard, by
// construction). Flight latency is NOT jittered so per-sender packet order
// is preserved (MPI non-overtaking); jitter applies to NIC serialization,
// each NIC's from its own node's stream.
func (nd *Node) Sent(p *sim.Proc, pkt *Packet) {
	if pkt.Dst == nd.id {
		nd.s.SpawnStep("shm-deliver", nd.id, deliver, pkt)
		return
	}
	nd.xseq++
	nd.s.PostStep(p.Now()+nd.net.latency(nd.id, pkt.Dst), nd.net.nodes[pkt.Dst].s, nd.id, nd.xseq, "wire", deliver, pkt)
}

// deliver is the step of the stackless proc that hands the packet it
// carries (Proc.Arg) to its destination's inbox: after the shared-memory
// latency for an intra-node packet — not jittered, so that constant flight
// times preserve per-sender packet order (MPI non-overtaking) — and after
// holding the destination's RX NIC for the receive overhead for one that
// arrived off the wire, unless DropLate's hook claims it first.
func deliver(d *sim.Proc) {
	pkt := d.Arg().(*Packet)
	net, to := pkt.net, pkt.net.nodes[pkt.Dst]
	switch {
	case d.Woken():
		to.Inbox.Put(pkt)
	case pkt.Src == pkt.Dst:
		d.SleepStep(net.cfg.ShmLat)
	case net.late != nil && net.late(pkt.Payload):
		to.Release(pkt)
	default:
		to.recvNIC.UseStep(d, to.jit.Scale(net.cfg.RecvOverhead))
	}
}
