package mpi

import (
	"bytes"
	"testing"
	"time"

	"dcgn/internal/sim"
)

// TestRecvMsgEager exercises the take-ownership receive on the eager path:
// the caller gets the pooled envelope buffer directly (no copy into a
// caller buffer) and returning it balances the pool.
func TestRecvMsgEager(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	msg := fill(100, 9)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			if err := r.Send(p, msg, 1, 7); err != nil {
				t.Error(err)
			}
		case 1:
			st, data, err := r.RecvMsg(p, 0, 7)
			if err != nil {
				t.Error(err)
			}
			if st.Source != 0 || st.Tag != 7 || st.Count != 100 {
				t.Errorf("status = %+v", st)
			}
			if !bytes.Equal(data, msg) {
				t.Error("payload mismatch on eager RecvMsg")
			}
			r.World().Pool().Put(data)
		}
	})
	if out := w.Pool().Outstanding(); out != 0 {
		t.Errorf("pool outstanding = %d after balanced run, want 0", out)
	}
}

// TestRecvMsgRendezvous is the same through the rendezvous protocol (payload
// above the eager limit), including AnySource matching.
func TestRecvMsgRendezvous(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	msg := fill(w.cfg.EagerLimit*2, 5)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			if err := r.Send(p, msg, 1, 3); err != nil {
				t.Error(err)
			}
		case 1:
			st, data, err := r.RecvMsg(p, AnySource, 3)
			if err != nil {
				t.Error(err)
			}
			if st.Source != 0 || st.Count != len(msg) {
				t.Errorf("status = %+v", st)
			}
			if !bytes.Equal(data, msg) {
				t.Error("payload mismatch on rendezvous RecvMsg")
			}
			r.World().Pool().Put(data)
		}
	})
	if out := w.Pool().Outstanding(); out != 0 {
		t.Errorf("pool outstanding = %d after balanced run, want 0", out)
	}
}

// TestRecvMsgUnexpected covers the unexpected-queue path: the message lands
// before the receive is posted, sits in the queue, and is still handed over
// without a copy.
func TestRecvMsgUnexpected(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	msg := fill(256, 11)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			if err := r.Send(p, msg, 1, 1); err != nil {
				t.Error(err)
			}
		case 1:
			// Let the eager message arrive and queue as unexpected first.
			p.Sleep(w.cfg.CallOverhead * 1000)
			_, data, err := r.RecvMsg(p, 0, 1)
			if err != nil {
				t.Error(err)
			}
			if !bytes.Equal(data, msg) {
				t.Error("payload mismatch on unexpected-queue RecvMsg")
			}
			r.World().Pool().Put(data)
		}
	})
	if out := w.Pool().Outstanding(); out != 0 {
		t.Errorf("pool outstanding = %d after balanced run, want 0", out)
	}
}

// TestSendMsgHandsOverTheBuffer: a take-ownership send puts the caller's
// pooled buffer itself on the wire, eager or rendezvous — RecvMsg returns
// the same backing array — with the pool balanced once the receiver
// releases it, at the virtual time a buffered Send of the same bytes ends.
func TestSendMsgHandsOverTheBuffer(t *testing.T) {
	run := func(size int, owned bool) (same bool, end time.Duration) {
		s := sim.New()
		w := testWorld(s, 2, 2)
		msg := fill(size, 3)
		var sent []byte
		runRanks(t, w, func(p *sim.Proc, r *Rank) {
			switch r.ID() {
			case 0:
				send, buf := r.Send, msg
				if owned {
					sent = w.Pool().Get(size)
					copy(sent, msg)
					send, buf = r.SendMsg, sent
				}
				if err := send(p, buf, 1, 4); err != nil {
					t.Error(err)
				}
			case 1:
				st, got, err := r.RecvMsg(p, 0, 4)
				if err != nil || st.Count != size || !bytes.Equal(got, msg) {
					t.Errorf("%d B: status %+v, err %v, payload intact %v", size, st, err, bytes.Equal(got, msg))
				}
				same = owned && &got[0] == &sent[0]
				w.Pool().Put(got)
			}
		})
		if a, r := w.Pool().Acquires(), w.Pool().Releases(); a != r || a != 1 {
			t.Errorf("%d B, owned %v: %d acquires vs %d releases, want 1 of each", size, owned, a, r)
		}
		return same, s.Now()
	}
	for _, size := range []int{100, DefaultConfig().EagerLimit * 2} {
		same, ownedEnd := run(size, true)
		if !same {
			t.Errorf("%d B: RecvMsg returned a different buffer from the one SendMsg was given", size)
		}
		if _, bufferedEnd := run(size, false); ownedEnd != bufferedEnd {
			t.Errorf("%d B: SendMsg ends at %v, Send at %v", size, ownedEnd, bufferedEnd)
		}
	}
}

// TestKilledReceiverUnposts: a proc killed while blocked in RecvMsg (or
// Recv) takes its posted receive with it — the rank's posted list is empty
// afterwards, and a frame with that tag sent later queues as unexpected
// rather than landing in the dead receive. A receive that completed
// normally is not touched by the same unwind path.
func TestKilledReceiverUnposts(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	r1 := w.Rank(1)
	receivers := []*sim.Proc{
		s.SpawnDaemon("mpi-recv", func(p *sim.Proc) { r1.RecvMsg(p, AnySource, 7) }),
		s.SpawnDaemon("recv", func(p *sim.Proc) { r1.Recv(p, make([]byte, 8), 0, 8) }),
	}
	s.Spawn("sender", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		if n := len(r1.posted); n != 2 {
			t.Errorf("%d receives posted before the kill, want 2", n)
		}
		s.Inject(func() {
			for _, rp := range receivers {
				s.Kill(rp)
			}
		})
		p.Sleep(time.Millisecond)
		if n := len(r1.posted); n != 0 {
			t.Errorf("%d receives still posted after their procs were killed", n)
		}
		if err := w.Rank(0).Send(p, fill(16, 1), 1, 7); err != nil {
			t.Error(err)
		}
		p.Sleep(time.Millisecond)
		if len(r1.posted) != 0 || len(r1.unexpected) != 1 {
			t.Errorf("after a send on the dead receive's tag: %d posted, %d unexpected; want 0, 1",
				len(r1.posted), len(r1.unexpected))
		}
		// A live receiver still gets it, and leaves nothing behind.
		_, data, err := r1.RecvMsg(p, 0, 7)
		if err != nil || len(data) != 16 {
			t.Errorf("live RecvMsg: %d bytes, %v", len(data), err)
		}
		w.Pool().Put(data)
		if len(r1.posted) != 0 || len(r1.unexpected) != 0 {
			t.Errorf("after the live receive: %d posted, %d unexpected", len(r1.posted), len(r1.unexpected))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if out := w.Pool().Outstanding(); out != 0 {
		t.Errorf("pool outstanding = %d, want 0", out)
	}
}
