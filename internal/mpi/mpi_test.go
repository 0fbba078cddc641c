package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dcgn/internal/fabric"
	"dcgn/internal/sim"
)

// testWorld builds a world of `ranks` ranks spread round-robin over `nodes`
// fabric nodes.
func testWorld(s *sim.Sim, ranks, nodes int) *World {
	net := fabric.New(s, nodes, fabric.DefaultConfig())
	nodeOf := make([]int, ranks)
	for i := range nodeOf {
		nodeOf[i] = i * nodes / ranks
	}
	return NewWorld(s, net, nodeOf, DefaultConfig())
}

// runRanks spawns one proc per rank running body and runs the sim.
func runRanks(t *testing.T, w *World, body func(p *sim.Proc, r *Rank)) {
	t.Helper()
	s := w.Rank(0).sim
	for i := 0; i < w.Size(); i++ {
		r := w.Rank(i)
		s.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) { body(p, r) })
	}
	s.SetMaxTime(time.Hour)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// coll runs one collective of kind on comm c for member r to its end, as
// the blocking collectives do: a Coll started and driven by Step and
// Await. It is how the tests run the kinds that have no blocking form.
func coll(p *sim.Proc, c *Comm, r *Rank, kind CollKind, root int, send, recv []byte, counts, recvCounts []int) error {
	var m Coll
	m.Start(c, r, kind, root, send, recv, counts, recvCounts)
	return m.run(p)
}

// irecv posts a receive into buf from src with tag on r and returns it
// without waiting for it to complete, which r.await then does.
func irecv(p *sim.Proc, r *Rank, buf []byte, src, tag int) *RecvOp {
	op := &RecvOp{r: r, rr: recvReq{buf: buf, src: src, tag: tag}}
	for !op.step(p, false) {
		p.Await()
	}
	return op
}

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func TestEagerSendRecv(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	msg := fill(100, 3)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			if err := r.Send(p, msg, 1, 7); err != nil {
				t.Error(err)
			}
		case 1:
			buf := make([]byte, 100)
			st, err := r.Recv(p, buf, 0, 7)
			if err != nil {
				t.Error(err)
			}
			if st.Source != 0 || st.Tag != 7 || st.Count != 100 {
				t.Errorf("status %+v", st)
			}
			if !bytes.Equal(buf, msg) {
				t.Error("payload corrupted")
			}
		}
	})
}

func TestRendezvousSendRecv(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	msg := fill(1<<20, 9) // 1 MB >> eager limit
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			if err := r.Send(p, msg, 1, 0); err != nil {
				t.Error(err)
			}
		case 1:
			buf := make([]byte, 1<<20)
			st, err := r.Recv(p, buf, 0, 0)
			if err != nil {
				t.Error(err)
			}
			if st.Count != 1<<20 {
				t.Errorf("count %d", st.Count)
			}
			if !bytes.Equal(buf, msg) {
				t.Error("payload corrupted")
			}
		}
	})
}

func TestRecvBeforeSendAndAfterSend(t *testing.T) {
	for _, recvFirst := range []bool{true, false} {
		for _, size := range []int{64, 100_000} {
			s := sim.New()
			w := testWorld(s, 2, 2)
			msg := fill(size, 1)
			runRanks(t, w, func(p *sim.Proc, r *Rank) {
				switch r.ID() {
				case 0:
					if !recvFirst {
						p.Sleep(0)
					} else {
						p.Sleep(time.Millisecond)
					}
					r.Send(p, msg, 1, 5)
				case 1:
					if !recvFirst {
						p.Sleep(time.Millisecond) // send sits unexpected
					}
					buf := make([]byte, size)
					if _, err := r.Recv(p, buf, 0, 5); err != nil {
						t.Error(err)
					}
					if !bytes.Equal(buf, msg) {
						t.Errorf("recvFirst=%v size=%d: corrupted", recvFirst, size)
					}
				}
			})
		}
	}
}

func TestZeroByteMessage(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			r.Send(p, nil, 1, 0)
		} else {
			st, err := r.Recv(p, nil, 0, 0)
			if err != nil || st.Count != 0 {
				t.Errorf("zero-byte recv: %v %+v", err, st)
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 3, 1)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 1, 2:
			p.Sleep(time.Duration(r.ID()) * time.Millisecond)
			r.Send(p, []byte{byte(r.ID())}, 0, 40+r.ID())
		case 0:
			buf := make([]byte, 1)
			st1, err := r.Recv(p, buf, AnySource, AnyTag)
			if err != nil {
				t.Error(err)
			}
			if st1.Source != 1 || st1.Tag != 41 {
				t.Errorf("first wildcard recv matched %+v, want rank 1", st1)
			}
			st2, _ := r.Recv(p, buf, AnySource, AnyTag)
			if st2.Source != 2 {
				t.Errorf("second wildcard recv matched %+v", st2)
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 1)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(p, []byte{1}, 1, 100)
			r.Send(p, []byte{2}, 1, 200)
		case 1:
			buf := make([]byte, 1)
			// Receive tag 200 first even though tag 100 arrived earlier.
			st, _ := r.Recv(p, buf, 0, 200)
			if buf[0] != 2 || st.Tag != 200 {
				t.Errorf("tag-200 recv got payload %d tag %d", buf[0], st.Tag)
			}
			r.Recv(p, buf, 0, 100)
			if buf[0] != 1 {
				t.Errorf("tag-100 recv got %d", buf[0])
			}
		}
	})
}

func TestNonOvertakingSameTag(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	const n = 10
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < n; i++ {
				r.Send(p, []byte{byte(i)}, 1, 3)
			}
		case 1:
			buf := make([]byte, 1)
			for i := 0; i < n; i++ {
				r.Recv(p, buf, 0, 3)
				if buf[0] != byte(i) {
					t.Fatalf("message %d overtaken by %d", i, buf[0])
				}
			}
		}
	})
}

func TestTruncationError(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(p, fill(100, 0), 1, 0)
		case 1:
			buf := make([]byte, 10)
			st, err := r.Recv(p, buf, 0, 0)
			if err != ErrTruncate {
				t.Errorf("want ErrTruncate, got %v", err)
			}
			if st.Count != 10 {
				t.Errorf("count %d", st.Count)
			}
		}
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		bufs := make([][]byte, 4)
		switch r.ID() {
		case 0:
			var reqs []*Request
			for i := 0; i < 4; i++ {
				reqs = append(reqs, r.Isend(p, fill(50_000, byte(i)), 1, i))
			}
			for _, rq := range reqs {
				rq.Wait(p)
			}
		case 1:
			var ops []*RecvOp
			for i := 0; i < 4; i++ {
				bufs[i] = make([]byte, 50_000)
				ops = append(ops, irecv(p, r, bufs[i], 0, i))
			}
			for i, op := range ops {
				r.await(p, op)
				if _, _, err := op.Result(); err != nil {
					t.Error(err)
				}
				if !bytes.Equal(bufs[i], fill(50_000, byte(i))) {
					t.Errorf("stream %d corrupted", i)
				}
			}
		}
	})
}

func TestSendrecvNoDeadlock(t *testing.T) {
	// Head-to-head blocking exchange with large (rendezvous) payloads would
	// deadlock with plain Send/Recv in both directions; Sendrecv must not.
	s := sim.New()
	w := testWorld(s, 2, 2)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		other := 1 - r.ID()
		out := fill(200_000, byte(r.ID()))
		in := make([]byte, 200_000)
		if _, err := r.Sendrecv(p, out, other, 0, in, other, 0); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(in, fill(200_000, byte(other))) {
			t.Error("exchange corrupted")
		}
	})
}

// SendrecvReplace exchanges in place at an eager and a rendezvous size,
// finishes when a Sendrecv into a second buffer does, and gives back every
// staging buffer it takes.
func TestSendrecvReplace(t *testing.T) {
	for _, n := range []int{100, 64_000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var ends [2]time.Duration
			for i, replace := range []bool{true, false} {
				s := sim.New()
				w := testWorld(s, 2, 2)
				runRanks(t, w, func(p *sim.Proc, r *Rank) {
					other := 1 - r.ID()
					buf := fill(n, byte(10+r.ID()))
					var st Status
					var err error
					if replace {
						st, err = r.SendrecvReplace(p, buf, other, 0, other, 0)
					} else {
						in := make([]byte, n)
						st, err = r.Sendrecv(p, buf, other, 0, in, other, 0)
						buf = in
					}
					if err != nil || st.Count != n || st.Source != other {
						t.Errorf("rank %d: status %+v, err %v", r.ID(), st, err)
					}
					if !bytes.Equal(buf, fill(n, byte(10+other))) {
						t.Error("replace exchange corrupted")
					}
					ends[i] = max(ends[i], p.Now())
				})
				if out := w.Pool().Outstanding(); out != 0 {
					t.Errorf("%d staging buffers outstanding", out)
				}
			}
			if ends[0] != ends[1] {
				t.Errorf("SendrecvReplace ends at %v, Sendrecv at %v", ends[0], ends[1])
			}
		})
	}
}

// A message longer than the buffer is ErrTruncate and leaves the buffer as
// it was; a shorter one replaces only its own prefix.
func TestSendrecvReplaceTruncate(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		other := 1 - r.ID()
		n := []int{100, 10}[r.ID()]
		buf := fill(n, byte(10+r.ID()))
		st, err := r.SendrecvReplace(p, buf, other, 0, other, 0)
		switch r.ID() {
		case 0:
			want := append(fill(10, 11), fill(100, 10)[10:]...)
			if err != nil || st.Count != 10 || !bytes.Equal(buf, want) {
				t.Errorf("short message: count %d, err %v, buf %v", st.Count, err, buf)
			}
		case 1:
			if err != ErrTruncate || st.Count != 10 || !bytes.Equal(buf, fill(10, 11)) {
				t.Errorf("long message: count %d, err %v, buf %v", st.Count, err, buf)
			}
		}
	})
	if out := w.Pool().Outstanding(); out != 0 {
		t.Errorf("%d staging buffers outstanding", out)
	}
}

func TestSelfSendEager(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 1, 1)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		r.Send(p, []byte{42}, 0, 0)
		buf := make([]byte, 1)
		if _, err := r.Recv(p, buf, 0, 0); err != nil || buf[0] != 42 {
			t.Errorf("self-send: %v %d", err, buf[0])
		}
	})
}

func TestManyRanksPerNode(t *testing.T) {
	// 8 ranks on 2 nodes: intra- and inter-node paths both exercised.
	s := sim.New()
	w := testWorld(s, 8, 2)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		next := (r.ID() + 1) % 8
		prev := (r.ID() + 7) % 8
		out := []byte{byte(r.ID())}
		in := make([]byte, 1)
		if _, err := r.Sendrecv(p, out, next, 0, in, prev, 0); err != nil {
			t.Error(err)
		}
		if in[0] != byte(prev) {
			t.Errorf("rank %d got %d, want %d", r.ID(), in[0], prev)
		}
	})
}

func TestPingPongLatencyShape(t *testing.T) {
	// One-way time must look like alpha + n/beta: tiny for 0B, ~ms for 1MB.
	oneWay := func(n int) time.Duration {
		s := sim.New()
		w := testWorld(s, 2, 2)
		var rtt time.Duration
		runRanks(t, w, func(p *sim.Proc, r *Rank) {
			buf := make([]byte, n)
			switch r.ID() {
			case 0:
				start := p.Now()
				r.Send(p, buf, 1, 0)
				r.Recv(p, buf, 1, 0)
				rtt = p.Now() - start
			case 1:
				r.Recv(p, buf, 0, 0)
				r.Send(p, buf, 0, 0)
			}
		})
		return rtt / 2
	}
	t0 := oneWay(0)
	t1m := oneWay(1 << 20)
	if t0 > 20*time.Microsecond {
		t.Errorf("0-byte one-way %v too slow for an optimized MPI", t0)
	}
	if t1m < 500*time.Microsecond || t1m > 3*time.Millisecond {
		t.Errorf("1MB one-way %v outside plausible IB-DDR range", t1m)
	}
}
