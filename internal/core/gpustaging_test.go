package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"dcgn/internal/device"
)

// A GPU's remote traffic crosses the host only in its modeled copies: a
// send's device -> host staging buffer is the wire frame (gpu.go
// stageSend), and a receive adopts the arrived frame instead of copying it
// into its staging (deliverInbound), so writeBackStep's host -> device copy
// reads the frame. These tests pin what that must leave as it was — the
// bytes, the Status, the error — and what it changes: the pool buffers one
// message costs.

// TestRequestSize keeps request in its allocation size class: the flags
// that mark framed buffers live in padding, and a request past 224 bytes
// costs every message of every workload a bigger allocation.
func TestRequestSize(t *testing.T) {
	if n := unsafe.Sizeof(request{}); n > 224 {
		t.Fatalf("request is %d bytes, want at most 224", n)
	}
}

// noise is n seeded pseudo-random bytes: a payload any misplaced header
// offset or stale pool byte shows up in.
func noise(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// stagingCase is one exchange between node 0's rank and node 1's, each a
// CPU rank or a GPU slot. Node 0 sends sendN bytes; node 1 receives into
// recvN, posting late when asked; a sendrecv case runs the same in both
// directions at once. acquires pins the run's pool buffers.
type stagingCase struct {
	name         string
	gpu0, gpu1   bool
	sendN, recvN int
	late         bool
	sendrecv     bool
	acquires     uint64
}

func TestGPUStagingIsTheWireFrame(t *testing.T) {
	const mib = 1 << 20
	cases := []stagingCase{
		// A frame, and the receive's staging it is adopted in place of.
		{name: "gpu-to-gpu", gpu0: true, gpu1: true, sendN: mib, recvN: mib, acquires: 2},
		// packFrame's frame, then the same receive.
		{name: "cpu-to-gpu", gpu1: true, sendN: mib, recvN: mib, acquires: 2},
		// The GPU's frame, copied out by the CPU receive.
		{name: "gpu-to-cpu", gpu0: true, sendN: mib, recvN: mib, acquires: 1},
		{name: "gpu-to-gpu-truncated", gpu0: true, gpu1: true, sendN: mib, recvN: mib / 2, acquires: 2},
		{name: "cpu-to-gpu-late", gpu1: true, sendN: mib, recvN: mib, late: true, acquires: 2},
		{name: "sendrecv-gpu-gpu", gpu0: true, gpu1: true, sendN: mib, recvN: mib, sendrecv: true, acquires: 4},
		{name: "sendrecv-gpu-cpu", gpu0: true, sendN: mib, recvN: mib, sendrecv: true, acquires: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runStagingCase(t, tc) })
	}
}

func runStagingCase(t *testing.T, tc stagingCase) {
	cfg := DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = 2, 1, 1, 1
	cfg.Device.MemBytes = 4 << 20
	cfg.Trace = tc.late
	job := NewJob(cfg)
	rm := job.Ranks()
	ranks := [2]int{rm.CPURank(0, 0), rm.CPURank(1, 0)}
	if tc.gpu0 {
		ranks[0] = rm.GPURank(0, 0, 0)
	}
	if tc.gpu1 {
		ranks[1] = rm.GPURank(1, 0, 0)
	}
	// side returns what rank does: its peer, whether it sends and receives,
	// and its sizes.
	side := func(rank int) (me int, peer int, sends, recvs bool) {
		switch rank {
		case ranks[0]:
			return 0, ranks[1], true, tc.sendrecv
		case ranks[1]:
			return 1, ranks[0], tc.sendrecv, true
		}
		return -1, 0, false, false
	}
	// check verifies what rank received from peer.
	check := func(rank, peer int, st CommStatus, err error, got []byte) {
		want := noise(tc.sendN, int64(peer))
		n := min(tc.sendN, tc.recvN)
		if st.Source != peer || st.Bytes != n {
			t.Errorf("rank %d: status %+v, want source %d and %d bytes", rank, st, peer, n)
		}
		if trunc := tc.sendN > tc.recvN; errors.Is(err, ErrTruncate) != trunc || (err != nil && !trunc) {
			t.Errorf("rank %d: err %v, truncated %v", rank, err, trunc)
		}
		if !bytes.Equal(got[:n], want[:n]) {
			t.Errorf("rank %d: payload differs from what rank %d sent", rank, peer)
		}
	}
	const lateBy = 20 * time.Millisecond
	job.SetCPUKernel(func(c *CPUCtx) {
		me, peer, sends, recvs := side(c.Rank())
		if me < 0 {
			return
		}
		send, recv := noise(tc.sendN, int64(c.Rank())), make([]byte, tc.recvN)
		var st CommStatus
		var err error
		switch {
		case sends && recvs:
			st, err = c.SendRecv(peer, send, peer, recv)
		case sends:
			err = c.Send(peer, send)
		default:
			if tc.late {
				c.Compute(lateBy)
			}
			st, err = c.Recv(peer, recv)
		}
		if recvs {
			check(c.Rank(), peer, st, err, recv)
		} else if err != nil {
			t.Errorf("rank %d: send: %v", c.Rank(), err)
		}
	})
	job.SetGPUSetup(func(s *GPUSetup) {
		s.Args["send"] = s.Dev.Mem().MustAlloc(tc.sendN)
		s.Args["recv"] = s.Dev.Mem().MustAlloc(tc.recvN)
	})
	job.SetGPUKernel(1, 8, func(g *GPUCtx) {
		me, peer, sends, recvs := side(g.Rank(0))
		if me < 0 {
			return
		}
		send, recv := g.Arg("send").(device.Ptr), g.Arg("recv").(device.Ptr)
		copy(g.Block().Bytes(send, tc.sendN), noise(tc.sendN, int64(g.Rank(0))))
		var st CommStatus
		var err error
		switch {
		case sends && recvs:
			st, err = g.SendRecv(0, peer, send, tc.sendN, peer, recv, tc.recvN)
		case sends:
			err = g.Send(0, peer, send, tc.sendN)
		default:
			if tc.late {
				g.Block().ChargeTime(lateBy)
			}
			st, err = g.Recv(0, peer, recv, tc.recvN)
		}
		if recvs {
			check(g.Rank(0), peer, st, err, g.Block().Bytes(recv, tc.recvN))
		} else if err != nil {
			t.Errorf("rank %d: send: %v", g.Rank(0), err)
		}
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PoolAcquires != tc.acquires || rep.PoolReleases != tc.acquires {
		t.Errorf("pool: %d acquires, %d releases; want %d of each", rep.PoolAcquires, rep.PoolReleases, tc.acquires)
	}
	if tc.late {
		// The message sat in the unexpected queue: the receive matched the
		// moment the comm thread handled it.
		recvs := 0
		for _, s := range rep.Trace {
			if s.Op == "recv" {
				recvs++
				if s.Matched != s.Handled || s.Bytes != tc.recvN {
					t.Errorf("late receive: handled at %v, matched at %v, %d bytes", s.Handled, s.Matched, s.Bytes)
				}
			}
		}
		if recvs != 1 {
			t.Errorf("traced %d receives, want 1", recvs)
		}
	}
}
