package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dcgn/internal/transport"
)

// Cross-backend conformance suite: the same application semantics —
// point-to-point FIFO ordering, AnySource tie-breaks, collectives,
// truncation, self-exchange — must hold on the deterministic simulated
// backend and on the live goroutine backend. Every test here is written
// to be schedule-robust: its assertions do not depend on which side of a
// race arrives first, only on the engine's matching rules.

// backends lists the conformance targets.
var backends = []string{transport.BackendSim, transport.BackendLive}

// backendConfig prepares a CPU-only config for one backend.
func backendConfig(backend string, nodes, cpus int) Config {
	cfg := cpuOnlyConfig(nodes, cpus)
	cfg.Transport.Backend = backend
	if backend == transport.BackendLive {
		// Wall-clock watchdog, so a conformance bug fails fast instead of
		// hanging the test binary.
		cfg.MaxVirtualTime = 30 * time.Second
	}
	return cfg
}

func forEachBackend(t *testing.T, fn func(t *testing.T, backend string)) {
	for _, b := range backends {
		t.Run(b, func(t *testing.T) { fn(t, b) })
	}
}

func TestConformancePingPongPayload(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 2, 1))
		msg := pattern(4096, 9)
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
				st, err := c.Recv(0, buf)
				if err != nil || st.Source != 0 || st.Bytes != len(msg) {
					t.Errorf("recv: %v %+v", err, st)
				}
				if err := c.Send(0, buf); err != nil {
					t.Error(err)
				}
			}
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatal("ping-pong corrupted payload")
		}
	})
}

// TestConformanceP2PFIFO checks DCGN's tagless matching rule: messages
// between one (source, destination) pair are delivered in send order,
// whether they race ahead of the receives (unexpected queue) or the
// receives are posted first (pending queue).
func TestConformanceP2PFIFO(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		const n = 32
		job := NewJob(backendConfig(backend, 2, 1))
		var got []byte
		job.SetCPUKernel(func(c *CPUCtx) {
			switch c.Rank() {
			case 0:
				for i := 0; i < n; i++ {
					if err := c.Send(1, []byte{byte(i)}); err != nil {
						t.Error(err)
					}
				}
			case 1:
				for i := 0; i < n; i++ {
					b := make([]byte, 1)
					if _, err := c.Recv(0, b); err != nil {
						t.Error(err)
					}
					got = append(got, b[0])
				}
			}
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if int(v) != i {
				t.Fatalf("FIFO violation at %d: got %d (sequence %v)", i, v, got)
			}
		}
	})
}

// TestConformanceAnySourceTieBreak checks the arrival-order tie-break: a
// specific-source receive posted before an AnySource receive wins the
// first message from that source, regardless of whether the messages
// arrive before or after the receives are posted.
func TestConformanceAnySourceTieBreak(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 2, 1))
		var specific, any byte
		job.SetCPUKernel(func(c *CPUCtx) {
			switch c.Rank() {
			case 0:
				if err := c.Send(1, []byte{1}); err != nil {
					t.Error(err)
				}
				if err := c.Send(1, []byte{2}); err != nil {
					t.Error(err)
				}
			case 1:
				bs, ba := make([]byte, 1), make([]byte, 1)
				// Posting order is what matters: specific first, then
				// AnySource, from one kernel thread.
				opS := c.IRecv(0, bs)
				opA := c.IRecv(AnySource, ba)
				if _, err := opS.Wait(c); err != nil {
					t.Error(err)
				}
				if _, err := opA.Wait(c); err != nil {
					t.Error(err)
				}
				specific, any = bs[0], ba[0]
			}
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		if specific != 1 || any != 2 {
			t.Fatalf("tie-break violated: specific got %d, AnySource got %d", specific, any)
		}
	})
}

// TestConformanceCollectives runs every collective over two nodes with two
// resident ranks each and checks the data movement end to end.
func TestConformanceCollectives(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		const chunk = 8
		job := NewJob(backendConfig(backend, 2, 2))
		total := 4
		var mu sync.Mutex
		gathered := map[int][]byte{}
		job.SetCPUKernel(func(c *CPUCtx) {
			c.Barrier()

			// Bcast from rank 2 (node 1).
			bb := make([]byte, chunk)
			if c.Rank() == 2 {
				copy(bb, pattern(chunk, 77))
			}
			if err := c.Bcast(2, bb); err != nil {
				t.Errorf("rank %d bcast: %v", c.Rank(), err)
			}
			if !bytes.Equal(bb, pattern(chunk, 77)) {
				t.Errorf("rank %d bcast payload wrong", c.Rank())
			}

			// Gather to rank 1: each rank contributes its rank byte.
			contrib := bytes.Repeat([]byte{byte(c.Rank())}, chunk)
			var dst []byte
			if c.Rank() == 1 {
				dst = make([]byte, total*chunk)
			}
			if err := c.Gather(1, contrib, dst); err != nil {
				t.Errorf("rank %d gather: %v", c.Rank(), err)
			}
			if c.Rank() == 1 {
				for r := 0; r < total; r++ {
					if dst[r*chunk] != byte(r) {
						t.Errorf("gather chunk %d: got %d", r, dst[r*chunk])
					}
				}
			}

			// Scatter from rank 3: rank r receives bytes of value 100+r.
			var src []byte
			if c.Rank() == 3 {
				src = make([]byte, total*chunk)
				for r := 0; r < total; r++ {
					copy(src[r*chunk:(r+1)*chunk], bytes.Repeat([]byte{byte(100 + r)}, chunk))
				}
			}
			part := make([]byte, chunk)
			if err := c.Scatter(3, src, part); err != nil {
				t.Errorf("rank %d scatter: %v", c.Rank(), err)
			}
			if part[0] != byte(100+c.Rank()) {
				t.Errorf("rank %d scatter chunk: got %d", c.Rank(), part[0])
			}

			// AllToAll: rank a sends byte (a*10+b) to rank b.
			send := make([]byte, total*chunk)
			for b := 0; b < total; b++ {
				copy(send[b*chunk:(b+1)*chunk], bytes.Repeat([]byte{byte(c.Rank()*10 + b)}, chunk))
			}
			recv := make([]byte, total*chunk)
			if err := c.AllToAll(send, recv); err != nil {
				t.Errorf("rank %d alltoall: %v", c.Rank(), err)
			}
			for a := 0; a < total; a++ {
				if recv[a*chunk] != byte(a*10+c.Rank()) {
					t.Errorf("rank %d alltoall from %d: got %d", c.Rank(), a, recv[a*chunk])
				}
			}

			mu.Lock()
			gathered[c.Rank()] = recv
			mu.Unlock()
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		if len(gathered) != total {
			t.Fatalf("only %d ranks completed", len(gathered))
		}
	})
}

// TestConformanceAnySourceLocalVsWire pins the AnySource tie-break when
// both a pending local send and an OLDER unexpected wire message are
// eligible: the local send wins (handleRecv consults the local send pool
// before the unexpected-inbound pool). The schedule is fully causal — a
// relay chain guarantees both candidates are indexed before the AnySource
// receive is posted on every backend, so the test pins the matching rule,
// not a race.
//
// Ranks: node 0 hosts 0,1,2; node 1 hosts 3,4,5 (4 and 5 idle).
// Causal chain: rank 3 sends X to rank 0 (wire, unexpected) then F to
// rank 1 — per-node-pair FIFO means X is indexed on node 0 before F
// delivers. rank 1 then relays to rank 2, which posts ISend B to rank 0
// (local pending) before relaying back through rank 1 to rank 0. When
// rank 0's AnySource posts, X (older) and B are both eligible; local B
// must win.
func TestConformanceAnySourceLocalVsWire(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 2, 3))
		payloadX := pattern(32, 0xA7) // wire candidate, from rank 3
		payloadB := pattern(32, 0xB1) // local candidate, from rank 2
		tok := func(b byte) []byte { return []byte{b} }
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, 32)
			switch c.Rank() {
			case 0:
				if _, err := c.Recv(1, buf[:1]); err != nil { // G: both candidates now indexed
					t.Errorf("rank 0 recv G: %v", err)
				}
				st, err := c.Recv(AnySource, buf)
				if err != nil {
					t.Errorf("rank 0 AnySource: %v", err)
				}
				if st.Source != 2 {
					t.Errorf("AnySource matched rank %d; want the pending local send (rank 2)", st.Source)
				} else if !bytes.Equal(buf[:st.Bytes], payloadB) {
					t.Error("AnySource delivered wrong payload for local send")
				}
				st, err = c.Recv(3, buf)
				if err != nil || !bytes.Equal(buf[:st.Bytes], payloadX) {
					t.Errorf("wire message lost after tie-break: %v", err)
				}
			case 1:
				if _, err := c.Recv(3, buf[:1]); err != nil { // F: X already indexed (wire FIFO)
					t.Errorf("rank 1 recv F: %v", err)
				}
				if err := c.Send(2, tok('C')); err != nil {
					t.Errorf("rank 1 send C: %v", err)
				}
				if _, err := c.Recv(2, buf[:1]); err != nil { // E: B already indexed (intake FIFO)
					t.Errorf("rank 1 recv E: %v", err)
				}
				if err := c.Send(0, tok('G')); err != nil {
					t.Errorf("rank 1 send G: %v", err)
				}
			case 2:
				if _, err := c.Recv(1, buf[:1]); err != nil { // C
					t.Errorf("rank 2 recv C: %v", err)
				}
				op := c.ISend(0, payloadB) // B parks in the local send pool
				if err := c.Send(1, tok('E')); err != nil {
					t.Errorf("rank 2 send E: %v", err)
				}
				if _, err := op.Wait(c); err != nil {
					t.Errorf("rank 2 ISend B: %v", err)
				}
			case 3:
				if err := c.Send(0, payloadX); err != nil { // X: lands unexpected
					t.Errorf("rank 3 send X: %v", err)
				}
				if err := c.Send(1, tok('F')); err != nil {
					t.Errorf("rank 3 send F: %v", err)
				}
			}
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceTruncation checks ErrTruncate on both the local-memcpy
// path and the wire path.
func TestConformanceTruncation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 2, 2))
		job.SetCPUKernel(func(c *CPUCtx) {
			big := pattern(100, 3)
			small := make([]byte, 40)
			switch c.Rank() {
			case 0: // node 0; rank 1 is local, rank 2 is on node 1
				// Local path: truncation is receiver-side only, exactly like
				// the wire path — a sender must not observe different error
				// semantics depending on where its peer happens to live.
				if err := c.Send(1, big); err != nil {
					t.Errorf("local send: want nil (receiver-side truncation), got %v", err)
				}
				// Wire path: the send completes when the wire accepts it;
				// truncation surfaces at the receiver only.
				if err := c.Send(2, big); err != nil {
					t.Errorf("remote send: %v", err)
				}
			case 1:
				st, err := c.Recv(0, small)
				if !errors.Is(err, ErrTruncate) || st.Bytes != 40 {
					t.Errorf("local recv: %v %+v", err, st)
				}
				if !bytes.Equal(small, pattern(100, 3)[:40]) {
					t.Error("local truncation delivered wrong prefix")
				}
			case 2:
				st, err := c.Recv(0, small)
				if !errors.Is(err, ErrTruncate) || st.Bytes != 40 {
					t.Errorf("remote recv: %v %+v", err, st)
				}
				if !bytes.Equal(small, pattern(100, 3)[:40]) {
					t.Error("remote truncation delivered wrong prefix")
				}
			case 3:
			}
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceSendrecvSelf exercises Sendrecv with src == dst == self:
// the split send and receive halves must match each other locally instead
// of deadlocking (satellite of the layering refactor: the split happens in
// the comm thread, so both halves reach the matcher from one event).
func TestConformanceSendrecvSelf(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 2, 1))
		payload := pattern(512, 21)
		results := make([][]byte, 2)
		job.SetCPUKernel(func(c *CPUCtx) {
			out := append([]byte(nil), payload...)
			out[0] = byte(c.Rank()) // distinct payload per rank
			in := make([]byte, len(payload))
			st, err := c.SendRecv(c.Rank(), out, c.Rank(), in)
			if err != nil {
				t.Errorf("rank %d sendrecv self: %v", c.Rank(), err)
			}
			if st.Source != c.Rank() || st.Bytes != len(payload) {
				t.Errorf("rank %d sendrecv self status: %+v", c.Rank(), st)
			}
			results[c.Rank()] = append([]byte(nil), in...)
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		for r, got := range results {
			want := append([]byte(nil), payload...)
			want[0] = byte(r)
			if !bytes.Equal(got, want) {
				t.Errorf("rank %d self-exchange corrupted payload", r)
			}
		}
	})
}

// TestLiveBackendRejectsGPUs pins the live backend's scope: the simulated
// device model does not exist there.
func TestLiveBackendRejectsGPUs(t *testing.T) {
	cfg := gpuConfig(1, 0, 1, 1)
	cfg.Transport.Backend = transport.BackendLive
	job := NewJob(cfg)
	job.SetGPUKernel(1, 1, func(g *GPUCtx) {})
	if _, err := job.Run(); err == nil {
		t.Fatal("live backend accepted a GPU job")
	}
}

// TestUnknownBackendRejected pins the error for a bad backend name.
func TestUnknownBackendRejected(t *testing.T) {
	cfg := cpuOnlyConfig(1, 1)
	cfg.Transport.Backend = "carrier-pigeon"
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {})
	_, err := job.Run()
	if err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Fatalf("want unknown-backend error, got %v", err)
	}
}

// TestConformanceBadRankIsAnError: a call that names a rank outside the job
// — a send's destination, a receive's source, either side of a sendrecv, a
// collective's root — returns ErrBadRank on both backends, instead of
// taking down the comm thread (and, on the live backend, the process), and
// the job goes on: the message sent after the bad calls arrives.
func TestConformanceBadRankIsAnError(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 2, 1))
		buf := make([]byte, 8)
		job.SetCPUKernel(func(c *CPUCtx) {
			if c.Rank() == 1 {
				if st, err := c.Recv(0, buf); err != nil || st.Bytes != len(buf) {
					t.Errorf("good receive after the bad calls: %+v, %v", st, err)
				}
				return
			}
			n := c.Size()
			for _, call := range []struct {
				name string
				do   func() error
			}{
				{"send", func() error { return c.Send(9999, buf) }},
				{"send-negative", func() error { return c.Send(AnySource, buf) }},
				{"isend", func() error { _, err := c.ISend(n, buf).Wait(c); return err }},
				{"recv", func() error { _, err := c.Recv(n, buf); return err }},
				{"irecv", func() error { _, err := c.IRecv(-7, buf).Wait(c); return err }},
				{"sendrecv-dst", func() error { _, err := c.SendRecv(9999, buf, 1, buf); return err }},
				{"sendrecv-src", func() error { _, err := c.SendRecv(1, buf, 9999, buf); return err }},
				{"sendrecv-any-dst", func() error { _, err := c.SendRecv(AnySource, buf, 1, buf); return err }},
				{"bcast-root", func() error { return c.Bcast(n, buf) }},
				{"gather-root", func() error { return c.Gather(-2, buf, nil) }},
				{"scatter-root", func() error { return c.Scatter(9999, nil, buf) }},
				{"sendrecv-replace", func() error { _, err := c.SendRecvReplace(9999, 1, buf); return err }},
			} {
				if err := call.do(); !errors.Is(err, ErrBadRank) {
					t.Errorf("%s: error %v, want ErrBadRank", call.name, err)
				}
			}
			if err := c.Send(1, buf); err != nil {
				t.Errorf("good send after the bad calls: %v", err)
			}
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
