// Package live is the goroutine/channel transport backend: real
// concurrency on the wall clock, with no dependency on internal/sim. Each
// node's endpoint delivers framed wire messages through a buffered Go
// channel per lane, and node-level collectives rendezvous through a shared
// coordinator guarded by a mutex and condition variable. The lanes' step
// forms block in place — a send until its frames are queued, a receive
// until a frame arrives or the group closes — and report themselves done,
// so one step is the whole call.
//
// The backend exists to prove the progress-engine/transport seam is real
// (the same matching, ordering and collective semantics run unchanged on
// a completely different substrate) and to exercise DCGN's engine under
// the race detector, where the deterministic simulator — which runs one
// goroutine at a time — cannot surface data races by construction.
//
// A Cluster is multi-tenant: every channel, collective rendezvous, pool
// and counter lives in a per-tenant Group (Join), so co-resident jobs of
// a multi-tenant runtime can never see each other's frames, block each
// other's collectives, or pollute each other's pool accounting. New
// creates a default whole-cluster group (tenant 0), which is the
// single-job view the pre-tenancy API exposed.
package live

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dcgn/internal/bufpool"
	"dcgn/internal/transport"
)

// wireDepth is the per-node inbound channel capacity. It only bounds
// burstiness, not correctness: every node's receiver daemon drains its
// endpoint into the (unbounded) intake queue, so senders never block for
// long.
const wireDepth = 128

// Cluster is a set of live node endpoints wired to each other, shared by
// one or more tenant groups.
type Cluster struct {
	pool  *bufpool.Pool
	nodes int

	closed    chan struct{}
	closeOnce sync.Once

	groupsMu sync.Mutex
	groups   map[int]*Group
	def      *Group
}

// New creates a cluster of nodes endpoints sharing pool for wire-message
// staging (nil allocates a private pool), with a default whole-cluster
// tenant group (tenant 0) serving the single-job API: Node(n) is the
// default group's endpoint for node n.
func New(nodes int, pool *bufpool.Pool) *Cluster {
	if nodes <= 0 {
		panic("live: need at least one node")
	}
	if pool == nil {
		pool = bufpool.New()
	}
	c := &Cluster{pool: pool, nodes: nodes, closed: make(chan struct{}), groups: make(map[int]*Group)}
	g, err := c.Join(0, nodes, pool)
	if err != nil {
		panic(err) // unreachable: the cluster cannot be closed yet
	}
	c.def = g
	return c
}

// Join creates tenant's group of size endpoints drawing staging buffers
// from pool (nil uses the cluster pool). Endpoint node numbering is
// tenant-local (0..size-1); the runtime's admission layer decides which
// physical nodes back them. Tenant ids must be unique among live groups.
func (c *Cluster) Join(tenant, size int, pool *bufpool.Pool) (*Group, error) {
	if size <= 0 {
		return nil, fmt.Errorf("live: tenant group needs at least one node")
	}
	if c.isClosed() {
		return nil, transport.ErrClosed
	}
	if pool == nil {
		pool = c.pool
	}
	g := &Group{c: c, tenant: tenant, pool: pool, closed: make(chan struct{})}
	g.coll.init(g, size)
	for n := 0; n < size; n++ {
		g.eps = append(g.eps, &Endpoint{g: g, node: n, lanes: [2]chan []byte{make(chan []byte, wireDepth), make(chan []byte, wireDepth)}})
	}
	c.groupsMu.Lock()
	defer c.groupsMu.Unlock()
	if _, dup := c.groups[tenant]; dup {
		return nil, fmt.Errorf("live: tenant %d already joined", tenant)
	}
	c.groups[tenant] = g
	return g, nil
}

// Node returns the default group's endpoint serving node n.
func (c *Cluster) Node(n int) *Endpoint { return c.def.eps[n] }

// Default returns the whole-cluster group (tenant 0) that New created: the
// single job's wire totals, and what it closes to tear itself down.
func (c *Cluster) Default() *Group { return c.def }

// Close shuts the whole cluster down: every tenant group closes (blocked
// receivers and collective participants unwind with transport.ErrClosed,
// undelivered wire buffers drain back to their group's pool) and further
// Joins are rejected. It is idempotent.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.groupsMu.Lock()
		groups := make([]*Group, 0, len(c.groups))
		for _, g := range c.groups {
			groups = append(groups, g)
		}
		c.groupsMu.Unlock()
		for _, g := range groups {
			g.Close()
		}
	})
	return nil
}

func (c *Cluster) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// Group is one tenant's private slice of the cluster: its own endpoints,
// inbound channels, collective rendezvous, staging pool and wire
// counters. Closing a group cancels exactly that tenant's traffic.
type Group struct {
	c      *Cluster
	tenant int
	pool   *bufpool.Pool
	eps    []*Endpoint

	closed    chan struct{}
	closeOnce sync.Once

	// mu and senders serialize Close against in-flight sends: a send holds
	// a read lock while it commits its buffer and registers in senders, so
	// Close can take the write lock (barrier: no sender is between its
	// closed-check and its registration), then wait for registered senders
	// to finish before draining the channels. Without this, a send whose
	// select committed after Close's drain pass stranded a pooled buffer
	// in the channel forever.
	mu      sync.RWMutex
	senders sync.WaitGroup

	packets atomic.Int64
	bytes   atomic.Int64

	coll collRound
}

// Tenant returns the group's tenant id.
func (g *Group) Tenant() int { return g.tenant }

// Size returns the number of endpoints in the group.
func (g *Group) Size() int { return len(g.eps) }

// Endpoint returns the group's endpoint for tenant-local node n.
func (g *Group) Endpoint(n int) *Endpoint { return g.eps[n] }

// Totals returns the wire messages and bytes this group delivered so far;
// there is no cluster-wide counter beside the groups'.
func (g *Group) Totals() (packets int, bytes int64) {
	return int(g.packets.Load()), g.bytes.Load()
}

// Close shuts this tenant's group down: its blocked receivers and
// collective participants unwind with transport.ErrClosed and its
// undelivered wire buffers drain back to its pool. Other tenants are
// untouched. It is idempotent.
func (g *Group) Close() error {
	g.closeOnce.Do(func() {
		close(g.closed)
		g.coll.wakeAll()
		// Barrier: after this Lock/Unlock no send can still be between its
		// closed-check and its senders registration, so senders.Wait sees
		// every in-flight send, and the drain below sees every buffer they
		// committed.
		g.mu.Lock()
		g.mu.Unlock() //nolint:staticcheck // empty critical section is the barrier
		g.senders.Wait()
		for _, ep := range g.eps {
			for _, ch := range ep.lanes {
				for {
					select {
					case m := <-ch:
						g.pool.Put(m)
						continue
					default:
					}
					break
				}
			}
		}
	})
	return nil
}

func (g *Group) isClosed() bool {
	select {
	case <-g.closed:
		return true
	default:
		return false
	}
}

// Endpoint is one node's live transport within a tenant group.
type Endpoint struct {
	g    *Group
	node int
	// lanes are the inbound channels of the two-sided lane (wire) and the
	// one-sided lane (oneSided): a dedicated channel so put/get frames never
	// interleave with (or stall behind) the two-sided wire stream.
	lanes [2]chan []byte
}

// The lanes of an endpoint, as indexes into Endpoint.lanes.
const (
	wire = iota
	oneSided
)

// sendOn delivers msg itself to dstNode's inbound channel of the given
// lane, with the Close-safe registration discipline shared by both lanes.
// It owns msg: a send that fails releases it to the pool.
func (e *Endpoint) sendOn(dstNode int, msg []byte, lane int) error {
	g := e.g
	if dstNode < 0 || dstNode >= len(g.eps) {
		g.pool.Put(msg)
		return fmt.Errorf("live: send to bad node %d (group of %d)", dstNode, len(g.eps))
	}
	// Register with the closed-check under the read lock so Close (write
	// lock + senders.Wait) cannot drain the channels while this send is
	// still about to commit a buffer into one. A send already blocked in
	// the select when Close runs unwinds via the closed channel.
	g.mu.RLock()
	if g.isClosed() {
		g.mu.RUnlock()
		g.pool.Put(msg)
		return transport.ErrClosed
	}
	g.senders.Add(1)
	g.mu.RUnlock()
	defer g.senders.Done()
	select {
	case g.eps[dstNode].lanes[lane] <- msg:
		g.packets.Add(1)
		g.bytes.Add(int64(len(msg)))
		return nil
	case <-g.closed:
		g.pool.Put(msg)
		return transport.ErrClosed
	}
}

// recvOn blocks for the next inbound message on ch; the returned buffer
// is the caller's to release. After Close it returns transport.ErrClosed.
func (e *Endpoint) recvOn(ch chan []byte) ([]byte, error) {
	select {
	case m := <-ch:
		return m, nil
	case <-e.g.closed:
		// Closed: prefer draining any message that raced the close so
		// shutdown doesn't strand deliverable traffic.
		select {
		case m := <-ch:
			return m, nil
		default:
			return nil, transport.ErrClosed
		}
	}
}

// lane returns the index of op's lane in Endpoint.lanes.
func lane(os bool) int {
	if os {
		return oneSided
	}
	return wire
}

// SendStep delivers each frame of op itself to its node's inbound channel
// of op's lane, blocking in place, and reports the send done. Once one
// fails, the frames behind it go back to the pool unsent.
func (e *Endpoint) SendStep(_ transport.Proc, op *transport.SendOp) (bool, error) {
	var err error
	for more := true; more; more = op.Next() {
		if err == nil {
			err = e.sendOn(op.Dst, op.Msg, lane(op.OneSided))
		} else {
			e.g.pool.Put(op.Msg)
		}
	}
	return true, err
}

// RecvStep blocks in place for the next inbound frame on op's lane and
// reports the receive done; after Close it is done with
// transport.ErrClosed.
func (e *Endpoint) RecvStep(_ transport.Proc, op *transport.RecvOp) (bool, error) {
	msg, err := e.recvOn(e.lanes[lane(op.OneSided)])
	op.Msg = msg
	return true, err
}

// Send and RecvMsg are the blocking two-sided calls for a caller that
// drives an endpoint directly rather than through the Transport interface
// (the repository benchmark's transport ladder).

// Send delivers msg to dstNode's inbound channel and takes ownership of it.
func (e *Endpoint) Send(_ transport.Proc, dstNode int, msg []byte) error {
	return e.sendOn(dstNode, msg, wire)
}

// RecvMsg blocks for the next inbound wire message; the returned buffer
// is the caller's to release. After Close it returns transport.ErrClosed.
func (e *Endpoint) RecvMsg(_ transport.Proc) ([]byte, error) {
	return e.recvOn(e.lanes[wire])
}

// CollectiveStep joins the group's collective rendezvous with op, blocking
// until the round is over: the last node to arrive checks every node's op
// and moves the round's bytes for all of them (combine).
func (e *Endpoint) CollectiveStep(_ transport.Proc, op *transport.CollOp) (bool, error) {
	return true, e.g.coll.run(e.node, op)
}

// Close shuts down the tenant group this endpoint belongs to.
func (e *Endpoint) Close() error { return e.g.Close() }

// collRound is the group-wide collective rendezvous: each node arrives
// with its arguments, the last arrival performs the data movement for the
// whole round under the lock, and everyone leaves with the round's error.
// Generation counting makes the rendezvous reusable: a fast node may
// enter round k+1 while slow nodes are still waking from round k, but
// round k+1 cannot complete (and so cannot overwrite the shared error)
// until every round-k participant has left.
type collRound struct {
	g    *Group
	mu   sync.Mutex
	cond *sync.Cond

	n       int
	gen     uint64
	arrived int
	ops     []*transport.CollOp
	err     error
}

func (cr *collRound) init(g *Group, n int) {
	cr.g = g
	cr.n = n
	cr.ops = make([]*transport.CollOp, n)
	cr.cond = sync.NewCond(&cr.mu)
}

// wakeAll unblocks every waiting participant (used by Close).
func (cr *collRound) wakeAll() {
	cr.mu.Lock()
	cr.cond.Broadcast()
	cr.mu.Unlock()
}

// run joins the current round on behalf of node, performing combine once
// all nodes have arrived.
func (cr *collRound) run(node int, op *transport.CollOp) error {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if cr.g.isClosed() {
		return transport.ErrClosed
	}
	myGen := cr.gen
	cr.ops[node] = op
	cr.arrived++
	if cr.arrived == cr.n {
		cr.err = combine(cr.ops)
		cr.gen++
		cr.arrived = 0
		clear(cr.ops)
		cr.cond.Broadcast()
		return cr.err
	}
	for cr.gen == myGen && !cr.g.isClosed() {
		cr.cond.Wait()
	}
	if cr.gen == myGen {
		return transport.ErrClosed
	}
	return cr.err
}

// combine checks every node's op (CollOp.Check) and that they agree —
// one kind and root, and what only the rendezvous sees: equal Bcast
// lengths and matching Alltoallv counts — then moves the round's bytes; a
// round that fails moves none.
func combine(ops []*transport.CollOp) error {
	first, n := ops[0], len(ops)
	for i, op := range ops {
		if err := op.Check(n, i); err != nil {
			return err
		}
		if op.Kind != first.Kind || op.Root != first.Root {
			return fmt.Errorf("live: collective mismatch: node 0 in %v from %d, node %d in %v from %d", first.Kind, first.Root, i, op.Kind, op.Root)
		}
	}
	root := ops[first.Root]
	for i, op := range ops {
		switch op.Kind {
		case transport.Bcast:
			if len(op.Send) != len(root.Send) {
				return fmt.Errorf("live: bcast buffer length mismatch: node %d has %d, root has %d", i, len(op.Send), len(root.Send))
			}
		case transport.Alltoallv:
			for j, dst := range ops {
				if op.Counts[j] != dst.RecvCounts[i] {
					return fmt.Errorf("live: alltoallv count mismatch: node %d sends %d to node %d, which expects %d", i, op.Counts[j], j, dst.RecvCounts[i])
				}
			}
		}
	}
	off := 0
	for i, op := range ops {
		switch op.Kind {
		case transport.Bcast:
			copy(op.Send, root.Send)
		case transport.Gatherv:
			copy(root.Recv[off:off+root.Counts[i]], op.Send)
			off += root.Counts[i]
		case transport.Scatterv:
			copy(op.Recv, root.Send[off:off+root.Counts[i]])
			off += root.Counts[i]
		case transport.Alltoallv:
			sendOff := 0
			for j, dst := range ops {
				seg := op.Counts[j]
				recvOff := 0
				for _, c := range dst.RecvCounts[:i] {
					recvOff += c
				}
				copy(dst.Recv[recvOff:recvOff+seg], op.Send[sendOff:sendOff+seg])
				sendOff += seg
			}
		}
	}
	return nil
}
