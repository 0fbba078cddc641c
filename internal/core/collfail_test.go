package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"dcgn/internal/transport"
)

// Collective failure-path tests: a malformed collective (mismatched sizes
// or roots among the local arrivals) or a failing underlying transport
// collective must surface an error to every local member — never panic
// the comm thread, never leave a rank blocked forever.

func TestCollectiveSizeMismatchErrorsAllMembers(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 1, 2))
		errs := make([]error, 2)
		job.SetCPUKernel(func(c *CPUCtx) {
			// Rank 0 joins the broadcast with 10 bytes, rank 1 with 20.
			buf := make([]byte, 10*(c.Rank()+1))
			errs[c.Rank()] = c.Bcast(0, buf)
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		for r, err := range errs {
			if err == nil {
				t.Fatalf("rank %d: size mismatch went unreported", r)
			}
			if !strings.Contains(err.Error(), "size mismatch") {
				t.Fatalf("rank %d: wrong error: %v", r, err)
			}
		}
	})
}

func TestCollectiveRootMismatchErrorsAllMembers(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 1, 2))
		errs := make([]error, 2)
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, 8)
			// Each rank names itself the root: the second arrival disagrees
			// with the group.
			errs[c.Rank()] = c.Bcast(c.Rank(), buf)
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		for r, err := range errs {
			if err == nil {
				t.Fatalf("rank %d: root mismatch went unreported", r)
			}
			if !strings.Contains(err.Error(), "root mismatch") {
				t.Fatalf("rank %d: wrong error: %v", r, err)
			}
		}
	})
}

// faultyTransport wraps a real transport and fails chosen collectives —
// the Config.WrapTransport fault-injection seam.
type faultyTransport struct {
	transport.Transport
	failBcast bool
}

var errInjected = errors.New("injected transport fault")

func (f *faultyTransport) CollectiveStep(p transport.Proc, op *transport.CollOp) (bool, error) {
	if f.failBcast && op.Kind == transport.Bcast {
		return true, errInjected
	}
	return f.Transport.CollectiveStep(p, op)
}

// TestCollectiveTransportErrorSurfaces injects a failure into the
// node-level broadcast and checks that every rank on every node gets the
// error back instead of hanging in the accumulator.
func TestCollectiveTransportErrorSurfaces(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		cfg := backendConfig(backend, 2, 2)
		cfg.WrapTransport = func(tr transport.Transport) transport.Transport {
			return &faultyTransport{Transport: tr, failBcast: true}
		}
		job := NewJob(cfg)
		var mu sync.Mutex
		errs := map[int]error{}
		job.SetCPUKernel(func(c *CPUCtx) {
			err := c.Bcast(0, make([]byte, 16))
			mu.Lock()
			errs[c.Rank()] = err
			mu.Unlock()
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		if len(errs) != 4 {
			t.Fatalf("only %d ranks returned", len(errs))
		}
		for r, err := range errs {
			if !errors.Is(err, errInjected) {
				t.Fatalf("rank %d: want injected fault, got %v", r, err)
			}
		}
	})
}

// TestWrapTransportCarriesOneSidedLane checks that a hook which merely
// embeds transport.Transport carries the one-sided lane with no forwarding
// code of its own: the lane is part of the interface, not a capability the
// engine has to discover behind the wrapper.
func TestWrapTransportCarriesOneSidedLane(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		cfg := backendConfig(backend, 2, 1)
		cfg.WrapTransport = func(tr transport.Transport) transport.Transport {
			return &faultyTransport{Transport: tr}
		}
		win := make([]byte, 2)
		if _, err := putStreamJob(t, cfg, win).Run(); err != nil {
			t.Fatal(err)
		}
		if win[0] != 1 || win[1] != 2 {
			t.Fatalf("window holds %v, want [1 2]", win)
		}
	})
}

// TestWrapTransportSeesTraffic sanity-checks that the hook actually wraps
// the path the engine uses (a do-nothing wrapper must be transparent).
func TestWrapTransportSeesTraffic(t *testing.T) {
	cfg := backendConfig(transport.BackendSim, 2, 1)
	wrapped := 0
	cfg.WrapTransport = func(tr transport.Transport) transport.Transport {
		wrapped++
		return tr
	}
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 8)
		switch c.Rank() {
		case 0:
			if err := c.Send(1, buf); err != nil {
				t.Error(err)
			}
		case 1:
			if _, err := c.Recv(0, buf); err != nil {
				t.Error(err)
			}
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if wrapped != 2 {
		t.Fatalf("WrapTransport called %d times, want once per node", wrapped)
	}
}
