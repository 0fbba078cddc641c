package simmpi

import (
	"hash/fnv"
	"testing"
	"time"

	"dcgn/internal/fabric"
	"dcgn/internal/mpi"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

func testWorld(nodes int) (*sim.Sim, *mpi.World) {
	s := sim.New()
	s.SetMaxTime(time.Second)
	nodeOf := make([]int, nodes)
	for n := range nodeOf {
		nodeOf[n] = n
	}
	return s, mpi.NewWorld(s, fabric.New(s, nodes, fabric.DefaultConfig()), nodeOf, mpi.DefaultConfig())
}

// payload is a deterministic size-byte message whose content depends on
// the sender, so a misrouted frame changes the receiver's digest.
func payload(from, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(from*31 + i)
	}
	return b
}

// runScript drives every endpoint through the same exchange — eager and
// rendezvous ping-pongs with the neighbouring node on both lanes, then a
// Gatherv of uneven pieces to node 0 — and returns the virtual time it
// ended at and a digest of every byte each node received.
func runScript(t *testing.T, s *sim.Sim, w *mpi.World, eps []transport.Transport) (time.Duration, []uint64) {
	t.Helper()
	sizes := []int{1, 100, 20 << 10} // 20 KiB is past the eager limit
	digests := make([]uint64, len(eps))
	counts := make([]int, len(eps))
	for n := range counts {
		counts[n] = 64 * (n + 1)
	}
	for n, ep := range eps {
		s.Spawn("node", func(p *sim.Proc) {
			h := fnv.New64a()
			got := func(msg []byte, err error) {
				if err != nil {
					t.Errorf("node %d: %v", n, err)
				}
				h.Write(msg)
				w.Pool().Put(msg)
			}
			peer := n ^ 1
			for _, size := range sizes {
				if n < peer {
					check(t, send(p, ep, peer, payload(n, size), false))
					got(recv(p, ep, false))
					check(t, send(p, ep, peer, payload(n, size+1), true))
					got(recv(p, ep, true))
				} else {
					got(recv(p, ep, false))
					check(t, send(p, ep, peer, payload(n, size), false))
					got(recv(p, ep, true))
					check(t, send(p, ep, peer, payload(n, size+1), true))
				}
			}
			check(t, transport.Collective(p, ep, &transport.CollOp{Kind: transport.Barrier}))
			var all []byte
			if n == 0 {
				for _, c := range counts {
					all = append(all, make([]byte, c)...)
				}
			}
			check(t, transport.Collective(p, ep, &transport.CollOp{Kind: transport.Gatherv, Send: payload(n, counts[n]), Recv: all, Counts: counts}))
			h.Write(all)
			digests[n] = h.Sum64()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s.Now(), digests
}

// send drives a SendStep of msg to dstNode on a lane to its end on p.
func send(p *sim.Proc, tr transport.Transport, dstNode int, msg []byte, oneSided bool) error {
	op := &transport.SendOp{Dst: dstNode, Msg: msg, OneSided: oneSided}
	for {
		if done, err := tr.SendStep(p, op); done {
			return err
		}
		p.Await()
	}
}

// recv drives a RecvStep of a lane's next frame to its end on p.
func recv(p *sim.Proc, tr transport.Transport, oneSided bool) ([]byte, error) {
	op := &transport.RecvOp{OneSided: oneSided}
	defer op.Drop()
	for {
		if done, err := tr.RecvStep(p, op); done {
			return op.Take(), err
		}
		p.Await()
	}
}

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Error(err)
	}
}

// TestWorldGroupMatchesTenantZero backs the claim Job.Run's substrate
// rests on: an exclusive endpoint (simmpi.New, i.e. the world group) and a
// tenant-0 endpoint of a NewGroup with the identity placement run the same
// script to the same virtual time and the same per-node bytes.
func TestWorldGroupMatchesTenantZero(t *testing.T) {
	const nodes = 4
	s, w := testWorld(nodes)
	exclusive := make([]transport.Transport, nodes)
	for n := range exclusive {
		exclusive[n] = New(w.Rank(n))
	}
	wantAt, want := runScript(t, s, w, exclusive)

	s, w = testWorld(nodes)
	g := NewGroup(w, []int{0, 1, 2, 3}, 0)
	tenant := make([]transport.Transport, nodes)
	for n := range tenant {
		tenant[n] = g.Endpoint(n)
	}
	gotAt, got := runScript(t, s, w, tenant)

	if gotAt != wantAt || wantAt == 0 {
		t.Errorf("tenant-0 group ended at %v, world group at %v", gotAt, wantAt)
	}
	for n := range want {
		if got[n] != want[n] {
			t.Errorf("node %d: tenant-0 digest %#x, world group %#x", n, got[n], want[n])
		}
	}
}

// TestGroupsCarryOnlyTheirOwnFrames places two tenants on interleaved ranks
// of one world and checks each group's receivers see exactly the frames its
// own endpoints sent, in order, on both lanes — and nothing of its
// neighbour's. (What a tenant's traffic counts as is the fabric's business:
// core's TestRuntimeSimBatchIsolation.)
func TestGroupsCarryOnlyTheirOwnFrames(t *testing.T) {
	s, w := testWorld(4)
	type tenant struct {
		g      *Group
		frames []int // sizes node 0 sends node 1, alternating lanes
	}
	tenants := []tenant{
		{g: NewGroup(w, []int{1, 3}, 3), frames: []int{10, 2000, 30000}},
		{g: NewGroup(w, []int{0, 2}, 5), frames: []int{7, 7, 7, 7, 9000}},
	}
	for _, tn := range tenants {
		tx, rx := tn.g.Endpoint(0), tn.g.Endpoint(1)
		s.Spawn("tx", func(p *sim.Proc) {
			for i, size := range tn.frames {
				check(t, send(p, tx, 1, make([]byte, size), i%2 == 1))
			}
		})
		s.Spawn("rx", func(p *sim.Proc) {
			for i, size := range tn.frames {
				msg, err := recv(p, rx, i%2 == 1)
				if err != nil || len(msg) != size {
					t.Errorf("frame %d: %d bytes, err %v; want %d", i, len(msg), err, size)
				}
				w.Pool().Put(msg)
			}
			check(t, send(p, rx, 0, make([]byte, 5), false))
		})
		s.Spawn("ack", func(p *sim.Proc) {
			msg, err := recv(p, tx, false)
			check(t, err)
			w.Pool().Put(msg)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockingCallsRideTheTwoSidedLane: Send and RecvMsg, the calls for a
// caller outside the Transport interface, move frames on the tag a
// two-sided SendStep and RecvStep use, eager and rendezvous alike.
func TestBlockingCallsRideTheTwoSidedLane(t *testing.T) {
	s, w := testWorld(2)
	a, b := New(w.Rank(0)), New(w.Rank(1))
	sizes := []int{16, 20 << 10}
	s.Spawn("a", func(p *sim.Proc) {
		for _, size := range sizes {
			check(t, a.Send(p, 1, payload(0, size)))
			msg, err := a.RecvMsg(p)
			if err != nil || len(msg) != size+1 {
				t.Errorf("blocking receive: %d bytes, %v; want %d", len(msg), err, size+1)
			}
		}
	})
	s.Spawn("b", func(p *sim.Proc) {
		for _, size := range sizes {
			msg, err := recv(p, b, false)
			if err != nil || len(msg) != size {
				t.Errorf("step receive: %d bytes, %v; want %d", len(msg), err, size)
			}
			check(t, send(p, b, 0, payload(1, size+1), false))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
