package mpi

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dcgn/internal/sim"
)

// TestEagerBoundaryExact exercises payloads exactly at, one below and one
// above the eager limit: all must deliver correctly through their
// respective protocols.
func TestEagerBoundaryExact(t *testing.T) {
	limit := DefaultConfig().EagerLimit
	for _, size := range []int{limit - 1, limit, limit + 1, 2 * limit} {
		s := sim.New()
		w := testWorld(s, 2, 2)
		msg := fill(size, byte(size))
		runRanks(t, w, func(p *sim.Proc, r *Rank) {
			switch r.ID() {
			case 0:
				if err := r.Send(p, msg, 1, 0); err != nil {
					t.Error(err)
				}
			case 1:
				buf := make([]byte, size)
				st, err := r.Recv(p, buf, 0, 0)
				if err != nil || st.Count != size {
					t.Errorf("size %d: %v %+v", size, err, st)
				}
				if !bytes.Equal(buf, msg) {
					t.Errorf("size %d corrupted", size)
				}
			}
		})
	}
}

// TestRendezvousSelfSendDeadlocks pins blocking-send semantics: a rank
// that blocking-Sends a rendezvous-sized message to itself before posting
// the receive can never match it.
func TestRendezvousSelfSendDeadlocks(t *testing.T) {
	s := sim.New()
	s.SetMaxTime(time.Second)
	w := testWorld(s, 1, 1)
	s.Spawn("rank0", func(p *sim.Proc) {
		r := w.Rank(0)
		big := make([]byte, 1<<20)
		r.Send(p, big, 0, 0) // rendezvous: blocks until CTS, which needs the recv
	})
	err := s.Run()
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected deadlock, got %v", err)
	}
}

// TestEagerSelfSendCompletes: the same program with an eager-sized payload
// completes, because eager sends buffer.
func TestEagerSelfSendCompletes(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 1, 1)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		small := fill(256, 1)
		if err := r.Send(p, small, 0, 0); err != nil {
			t.Error(err)
		}
		buf := make([]byte, 256)
		if _, err := r.Recv(p, buf, 0, 0); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(buf, small) {
			t.Error("self-send corrupted")
		}
	})
}

// TestManyOutstandingIrecvsSameSource: posted receives from one source
// must match in posting order against the sender's message order.
func TestManyOutstandingIrecvsSameSource(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	const n = 16
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			bufs := make([][]byte, n)
			ops := make([]*RecvOp, n)
			for i := range ops {
				bufs[i] = make([]byte, 4)
				ops[i] = irecv(p, r, bufs[i], 1, 0)
			}
			for _, op := range ops {
				r.await(p, op)
				if _, _, err := op.Result(); err != nil {
					t.Error(err)
				}
			}
			for i, b := range bufs {
				if b[0] != byte(i) {
					t.Errorf("posted recv %d matched message %d", i, b[0])
				}
			}
		case 1:
			p.Sleep(time.Millisecond)
			for i := 0; i < n; i++ {
				r.Send(p, []byte{byte(i), 0, 0, 0}, 0, 0)
			}
		}
	})
}

// TestMixedEagerRendezvousInterleavingKeepsOrder: alternating small and
// large messages on one (src, dst, tag) channel must not overtake each
// other even though they use different protocols.
func TestMixedEagerRendezvousInterleavingKeepsOrder(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	sizes := []int{64, 100_000, 128, 50_000, 32, 200_000}
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			for i, n := range sizes {
				if err := r.Send(p, fill(n, byte(i)), 1, 0); err != nil {
					t.Error(err)
				}
			}
		case 1:
			for i, n := range sizes {
				buf := make([]byte, n)
				st, err := r.Recv(p, buf, 0, 0)
				if err != nil || st.Count != n {
					t.Fatalf("message %d: %v %+v (protocol overtaking?)", i, err, st)
				}
				if !bytes.Equal(buf, fill(n, byte(i))) {
					t.Fatalf("message %d corrupted", i)
				}
			}
		}
	})
}

// TestBarrierStressManyIterations: a long barrier loop across a mixed
// intra/inter-node world stays consistent.
func TestBarrierStressManyIterations(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 6, 3)
	counters := make([]int, 6)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		for i := 0; i < 50; i++ {
			counters[r.ID()]++
			r.Barrier(p)
			// After the barrier, every rank must have incremented exactly
			// i+1 times.
			for rank, c := range counters {
				if c != i+1 {
					t.Fatalf("iter %d: rank %d counter %d", i, rank, c)
				}
			}
			r.Barrier(p)
		}
	})
}
