package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dcgn/internal/sim"
	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
)

// Tests for the wire-level reliability layer (reliable.go): the backoff
// schedule, and — end to end — that a lossy,
// duplicating, reordering fabric degrades throughput instead of
// deadlocking, while DCGN's FIFO matching semantics hold unchanged.

func TestRelBackoffSchedule(t *testing.T) {
	r := Reliability{AckTimeout: 20 * time.Millisecond, BackoffCap: 500 * time.Millisecond}
	want := []time.Duration{20, 40, 80, 160, 320, 500, 500, 500}
	for attempt, w := range want {
		if got := relBackoff(r, attempt); got != w*time.Millisecond {
			t.Errorf("attempt %d: got %v, want %v", attempt, got, w*time.Millisecond)
		}
	}
	// Large attempt numbers must not overflow past the cap.
	if got := relBackoff(r, 200); got != r.BackoffCap {
		t.Errorf("attempt 200: got %v, want cap %v", got, r.BackoffCap)
	}
}

// reliableConfig is a 2-node CPU-only config with the reliability layer
// on and (optionally) wire faults injected.
func reliableConfig(backend string, f faults.Config) Config {
	cfg := backendConfig(backend, 2, 1)
	cfg.Reliability.Enabled = true
	cfg.Faults = f
	if backend == transport.BackendLive {
		// Wall-clock retransmit timers: keep faulted live tests fast.
		cfg.Reliability.AckTimeout = 5 * time.Millisecond
	}
	return cfg
}

// TestReliableCleanWire pins the no-fault reliable path on both backends:
// payloads intact, every data frame acked, zero retransmissions, exact
// pool balance.
func TestReliableCleanWire(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(reliableConfig(backend, faults.Config{}))
		msg := pattern(2048, 11)
		var got []byte
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, len(msg))
			switch c.Rank() {
			case 0:
				copy(buf, msg)
				if err := c.Send(1, buf); err != nil {
					t.Error(err)
				}
				if _, err := c.Recv(1, buf); err != nil {
					t.Error(err)
				}
				got = append([]byte(nil), buf...)
			case 1:
				if _, err := c.Recv(0, buf); err != nil {
					t.Error(err)
				}
				if err := c.Send(0, buf); err != nil {
					t.Error(err)
				}
			}
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatal("reliable ping-pong corrupted payload")
		}
		if rep.AcksSent == 0 || rep.AcksReceived == 0 {
			t.Errorf("reliable run acked nothing: %+v", rep)
		}
		if rep.Retransmits != 0 {
			t.Errorf("clean wire retransmitted %d frames", rep.Retransmits)
		}
		if rep.PoolAcquires != rep.PoolReleases {
			t.Errorf("pool leak: %d acquires vs %d releases", rep.PoolAcquires, rep.PoolReleases)
		}
	})
}

// TestReliableFIFOUnderDrop floods a lossy wire and checks that delivery
// is still FIFO per pair with intact payloads — retransmission visible in
// the report, nothing leaked from the pool.
func TestReliableFIFOUnderDrop(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		const msgs = 40
		job := NewJob(reliableConfig(backend, faults.Config{Seed: 17, Drop: 0.15}))
		job.SetCPUKernel(func(c *CPUCtx) {
			switch c.Rank() {
			case 0:
				for i := 0; i < msgs; i++ {
					if err := c.Send(1, pattern(64+i, byte(i))); err != nil {
						t.Errorf("send %d: %v", i, err)
					}
				}
			case 1:
				buf := make([]byte, 64+msgs)
				for i := 0; i < msgs; i++ {
					st, err := c.Recv(0, buf)
					if err != nil {
						t.Errorf("recv %d: %v", i, err)
						continue
					}
					if st.Bytes != 64+i || !bytes.Equal(buf[:st.Bytes], pattern(64+i, byte(i))) {
						t.Errorf("message %d out of order or corrupted (%d bytes)", i, st.Bytes)
					}
				}
			}
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.FaultsInjected.Drops == 0 {
			t.Fatal("fault injection never dropped anything; test proves nothing")
		}
		if rep.Retransmits == 0 {
			t.Errorf("drops=%d but zero retransmits", rep.FaultsInjected.Drops)
		}
		if rep.PoolAcquires != rep.PoolReleases {
			t.Errorf("pool leak: %d acquires vs %d releases", rep.PoolAcquires, rep.PoolReleases)
		}
	})
}

// TestReliableDupReorderDelay turns on every wire fault at once; dedup
// and resequencing must hide all of it from the application.
func TestReliableDupReorderDelay(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		const msgs = 30
		f := faults.Config{Seed: 23, Drop: 0.1, Dup: 0.15, Reorder: 0.15, Delay: 0.1, MaxDelay: 200 * time.Microsecond}
		job := NewJob(reliableConfig(backend, f))
		job.SetCPUKernel(func(c *CPUCtx) {
			peer := 1 - c.Rank()
			// Full duplex: both ranks send and receive, interleaved via
			// ISend so neither blocks the other out.
			ops := make([]*AsyncOp, msgs)
			for i := 0; i < msgs; i++ {
				ops[i] = c.ISend(peer, pattern(128, byte(i)^byte(c.Rank())))
			}
			buf := make([]byte, 128)
			for i := 0; i < msgs; i++ {
				st, err := c.Recv(peer, buf)
				if err != nil {
					t.Errorf("rank %d recv %d: %v", c.Rank(), i, err)
					continue
				}
				if !bytes.Equal(buf[:st.Bytes], pattern(128, byte(i)^byte(peer))) {
					t.Errorf("rank %d message %d reordered or corrupted", c.Rank(), i)
				}
			}
			for i, op := range ops {
				if _, err := op.Wait(c); err != nil {
					t.Errorf("rank %d send %d: %v", c.Rank(), i, err)
				}
			}
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.FaultsInjected.Total() == 0 {
			t.Fatal("no faults injected; test proves nothing")
		}
		if rep.PoolAcquires != rep.PoolReleases {
			t.Errorf("pool leak: %d acquires vs %d releases", rep.PoolAcquires, rep.PoolReleases)
		}
	})
}

// TestReliableDeterministicUnderFaults runs the same faulted workload
// twice on the simulated backend: seeded faults plus virtual-time timers
// must replay bit-identically, including every reliability counter.
func TestReliableDeterministicUnderFaults(t *testing.T) {
	run := func() (Report, []byte) {
		job := NewJob(reliableConfig(transport.BackendSim, faults.Config{Seed: 31, Drop: 0.2, Dup: 0.1}))
		var got []byte
		job.SetCPUKernel(func(c *CPUCtx) {
			switch c.Rank() {
			case 0:
				for i := 0; i < 20; i++ {
					if err := c.Send(1, pattern(256, byte(i))); err != nil {
						t.Error(err)
					}
				}
			case 1:
				buf := make([]byte, 256)
				sum := []byte{}
				for i := 0; i < 20; i++ {
					st, _ := c.Recv(0, buf)
					sum = append(sum, buf[:st.Bytes]...)
				}
				got = sum
			}
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep, got
	}
	repA, gotA := run()
	repB, gotB := run()
	if repA.Elapsed != repB.Elapsed {
		t.Errorf("faulted runs diverged in virtual time: %v vs %v", repA.Elapsed, repB.Elapsed)
	}
	if repA.Retransmits != repB.Retransmits || repA.DupWireFrames != repB.DupWireFrames ||
		repA.AcksSent != repB.AcksSent || repA.FaultsInjected != repB.FaultsInjected {
		t.Errorf("faulted runs diverged in counters:\n%+v\n%+v", repA, repB)
	}
	if !bytes.Equal(gotA, gotB) {
		t.Error("faulted runs diverged in delivered payloads")
	}
}

// TestReliableUnackedSurfaces drops everything: the sender must give up
// after MaxRetries with ErrUnacked instead of hanging forever.
func TestReliableUnackedSurfaces(t *testing.T) {
	cfg := reliableConfig(transport.BackendSim, faults.Config{Seed: 3, Drop: 1})
	cfg.Reliability.AckTimeout = time.Millisecond
	cfg.Reliability.MaxRetries = 3
	cfg.Reliability.BackoffCap = 2 * time.Millisecond
	job := NewJob(cfg)
	var sendErr error
	job.SetCPUKernel(func(c *CPUCtx) {
		switch c.Rank() {
		case 0:
			sendErr = c.Send(1, pattern(32, 1))
		case 1:
			// Never receives: every frame is eaten by the wire. The recv
			// would deadlock, so rank 1 posts nothing.
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sendErr, ErrUnacked) {
		t.Fatalf("total loss: want ErrUnacked, got %v", sendErr)
	}
}

// TestCollectivesSurviveTransientFaults runs every collective repeatedly
// under injected cluster-consistent transient failures; the bounded retry
// in collAccum.call must absorb all of them.
func TestCollectivesSurviveTransientFaults(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		cfg := backendConfig(backend, 2, 2)
		cfg.Faults = faults.Config{Seed: 5, CollFail: 0.3}
		job := NewJob(cfg)
		total := 4
		job.SetCPUKernel(func(c *CPUCtx) {
			for round := 0; round < 10; round++ {
				c.Barrier() // panics if the retry budget is exhausted
				buf := make([]byte, 8)
				if c.Rank() == round%total {
					copy(buf, fmt.Sprintf("rnd%05d", round))
				}
				if err := c.Bcast(round%total, buf); err != nil {
					t.Errorf("rank %d round %d bcast: %v", c.Rank(), round, err)
				}
				if string(buf) != fmt.Sprintf("rnd%05d", round) {
					t.Errorf("rank %d round %d bcast delivered %q", c.Rank(), round, buf)
				}
			}
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.FaultsInjected.CollFails == 0 {
			t.Fatal("no collective faults injected; test proves nothing")
		}
	})
}

// corruptOne is a WrapTransport hook that, once across all the nodes it
// wraps, overwrites the payload-length word of the first two-sided data
// frame sent, so that frame can no longer be decoded. A frame is the
// transport's once sent, so the hook may rewrite it in place.
func corruptOne() func(transport.Transport) transport.Transport {
	var done atomic.Bool
	return func(tr transport.Transport) transport.Transport {
		return corruptingTransport{tr, &done}
	}
}

type corruptingTransport struct {
	transport.Transport
	done *atomic.Bool
}

func (c corruptingTransport) SendStep(p transport.Proc, op *transport.SendOp) (bool, error) {
	if msg := op.Msg; !op.OneSided && binary.LittleEndian.Uint64(msg[16:]) > 0 && c.done.CompareAndSwap(false, true) {
		binary.LittleEndian.PutUint64(msg[16:], uint64(len(msg))) // longer than what follows the header
	}
	return c.Transport.SendStep(p, op)
}

// badFrameJob sends one 4 KiB message from rank 0 to rank 1 on another
// node over a wire that corrupts it once; got receives what rank 1 got.
func badFrameJob(cfg Config, got *[]byte) *Job {
	cfg.WrapTransport = corruptOne()
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		switch c.Rank() {
		case 0:
			_ = c.Send(1, pattern(4096, 5))
		case 1:
			buf := make([]byte, 4096)
			if st, err := c.Recv(0, buf); err == nil {
				*got = buf[:st.Bytes]
			}
		}
	})
	return job
}

// TestBadFrameIsACountedDrop: a frame that fails to decode is released and
// counted in BadFrames, and the receiver goes on. On a reliable lane the
// sender's retransmission then delivers the message bit-correct.
func TestBadFrameIsACountedDrop(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		var got []byte
		rep, err := badFrameJob(reliableConfig(backend, faults.Config{}), &got).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(4096, 5)) {
			t.Errorf("received %d bytes, not the message sent", len(got))
		}
		if rep.BadFrames != 1 || rep.Nodes[1].BadFrames != 1 || rep.Retransmits < 1 {
			t.Errorf("BadFrames %d (node 1: %d), Retransmits %d; want 1, 1, at least 1",
				rep.BadFrames, rep.Nodes[1].BadFrames, rep.Retransmits)
		}
		if rep.PoolAcquires != rep.PoolReleases {
			t.Errorf("pool leak: %d acquires vs %d releases", rep.PoolAcquires, rep.PoolReleases)
		}
	})
}

// TestBadFrameOnUnreliableLaneFailsTheRun: with nothing to retransmit it,
// the dropped message is never received — Job.Run reports that as an error
// (a deadlock in virtual time, the watchdog on the wall clock) instead of
// the receiver panicking.
func TestBadFrameOnUnreliableLaneFailsTheRun(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		cfg := backendConfig(backend, 2, 1)
		if backend == transport.BackendLive {
			cfg.MaxVirtualTime = 200 * time.Millisecond
		}
		var got []byte
		_, err := badFrameJob(cfg, &got).Run()
		var pe *sim.PanicError
		if err == nil || errors.As(err, &pe) || got != nil {
			t.Fatalf("run with an undecodable frame: err %v, received %d bytes", err, len(got))
		}
	})
}
