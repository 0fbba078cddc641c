package core

import (
	"encoding/binary"
	"errors"
	"testing"
)

// One-sided atomics conformance: Accumulate and FetchAndOp must behave
// identically on the simulated and live backends — lossless combining
// under concurrency, MPI-style clipping, and fetch-uniqueness (the
// atomicity witness: every fetch-and-add observes a distinct prior
// value).

// winInt64 reads the int64 at slot i of a window buffer.
func winInt64(win []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(win[8*i:]))
}

// TestConformanceAccumulateSum drives concurrent fetch-free accumulates
// from every rank (two local to the window owner's node, two remote) and
// checks the combined result is exact — no lost updates — on both
// backends.
func TestConformanceAccumulateSum(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		const reps = 25
		cfg := backendConfig(backend, 2, 2) // ranks 0,1 on node 0; 2,3 on node 1
		job := NewJob(cfg)
		win := make([]byte, 64)
		vals := []int64{1, 10, 100}
		job.SetCPUKernel(func(c *CPUCtx) {
			if c.Rank() == 0 {
				c.RegisterWindow(0, win)
			}
			c.Barrier()
			for i := 0; i < reps; i++ {
				if err := c.Accumulate(0, 0, 0, AtomicSum, vals); err != nil {
					t.Errorf("rank %d accumulate: %v", c.Rank(), err)
				}
			}
			if c.Rank() == 0 {
				c.WinWait(0, 4*reps)
			}
			c.Barrier()
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if got, want := winInt64(win, i), 4*reps*v; got != want {
				t.Errorf("slot %d: got %d, want %d (lost updates)", i, got, want)
			}
		}
	})
}

// TestConformanceAccumulateOps pins the min/max/replace combining
// functions on both backends, via both the local fast path and the wire.
func TestConformanceAccumulateOps(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 2, 1))
		win := make([]byte, 32)
		binary.LittleEndian.PutUint64(win[0:], uint64(int64(50)))
		binary.LittleEndian.PutUint64(win[8:], uint64(int64(50)))
		binary.LittleEndian.PutUint64(win[16:], uint64(int64(50)))
		job.SetCPUKernel(func(c *CPUCtx) {
			switch c.Rank() {
			case 0:
				c.RegisterWindow(3, win)
				c.Barrier()
				c.WinWait(3, 3)
				// Local fast path on the owner: min loses, max wins.
				if err := c.Accumulate(0, 3, 0, AtomicMin, []int64{90}); err != nil {
					t.Errorf("local min: %v", err)
				}
				if err := c.Accumulate(0, 3, 8, AtomicMax, []int64{95}); err != nil {
					t.Errorf("local max: %v", err)
				}
				c.Barrier()
			case 1:
				c.Barrier()
				if err := c.Accumulate(0, 3, 0, AtomicMin, []int64{-7}); err != nil {
					t.Errorf("remote min: %v", err)
				}
				if err := c.Accumulate(0, 3, 8, AtomicMax, []int64{80}); err != nil {
					t.Errorf("remote max: %v", err)
				}
				if err := c.Accumulate(0, 3, 16, AtomicReplace, []int64{123}); err != nil {
					t.Errorf("remote replace: %v", err)
				}
				c.Barrier()
			}
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		if got := winInt64(win, 0); got != -7 {
			t.Errorf("min slot: got %d, want -7", got)
		}
		if got := winInt64(win, 1); got != 95 {
			t.Errorf("max slot: got %d, want 95", got)
		}
		if got := winInt64(win, 2); got != 123 {
			t.Errorf("replace slot: got %d, want 123", got)
		}
	})
}

// TestConformanceFetchAndOp is the atomicity witness: four ranks race
// fetch-and-add(1) on one counter slot; every returned prior value must
// be distinct and the final count exact, on both backends.
func TestConformanceFetchAndOp(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		const reps = 20
		job := NewJob(backendConfig(backend, 2, 2))
		win := make([]byte, 8)
		olds := make([][]int64, 4) // one slot per rank: no cross-rank writes
		job.SetCPUKernel(func(c *CPUCtx) {
			if c.Rank() == 0 {
				c.RegisterWindow(0, win)
			}
			c.Barrier()
			for i := 0; i < reps; i++ {
				old, err := c.FetchAndOp(0, 0, 0, AtomicSum, 1)
				if err != nil {
					t.Errorf("rank %d fetch-and-op: %v", c.Rank(), err)
				}
				olds[c.Rank()] = append(olds[c.Rank()], old)
			}
			c.Barrier()
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		if got := winInt64(win, 0); got != 4*reps {
			t.Errorf("final counter: got %d, want %d", got, 4*reps)
		}
		seen := make(map[int64]bool)
		for rank, vs := range olds {
			if len(vs) != reps {
				t.Fatalf("rank %d returned %d priors, want %d", rank, len(vs), reps)
			}
			for _, v := range vs {
				if v < 0 || v >= 4*reps {
					t.Errorf("prior %d outside [0,%d)", v, 4*reps)
				}
				if seen[v] {
					t.Errorf("prior %d observed twice (non-atomic RMW)", v)
				}
				seen[v] = true
			}
		}
	})
}

// TestConformanceFetchSwap checks AtomicReplace through FetchAndOp is an
// atomic swap: a remote swap returns the exact value a prior local swap
// installed.
func TestConformanceFetchSwap(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 2, 1))
		win := make([]byte, 16)
		job.SetCPUKernel(func(c *CPUCtx) {
			switch c.Rank() {
			case 0:
				c.RegisterWindow(0, win)
				old, err := c.FetchAndOp(0, 0, 8, AtomicReplace, 42)
				if err != nil || old != 0 {
					t.Errorf("local swap: old=%d err=%v", old, err)
				}
				c.Barrier()
				c.Barrier()
			case 1:
				c.Barrier()
				old, err := c.FetchAndOp(0, 0, 8, AtomicReplace, 7)
				if err != nil || old != 42 {
					t.Errorf("remote swap: old=%d err=%v, want 42", old, err)
				}
				c.Barrier()
			}
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		if got := winInt64(win, 1); got != 7 {
			t.Errorf("final slot: got %d, want 7", got)
		}
	})
}

// TestConformanceAtomicTruncation pins the clipping rules: an accumulate
// over-running the window applies only the whole elements that fit (and
// is counted truncated), a fetch-and-op on a slot outside the window
// applies nothing and reports ErrTruncate at the origin.
func TestConformanceAtomicTruncation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 2, 1))
		win := make([]byte, 20) // two whole int64 slots + 4 stray bytes
		job.SetCPUKernel(func(c *CPUCtx) {
			switch c.Rank() {
			case 0:
				c.RegisterWindow(0, win)
				c.Barrier()
				c.WinWait(0, 1)
				st := c.WinStats(0)
				if st.Arrivals != 1 || st.Truncated != 1 {
					t.Errorf("window stats after clipped accumulate: %+v", st)
				}
				c.Barrier()
			case 1:
				c.Barrier()
				if err := c.Accumulate(0, 0, 0, AtomicSum, []int64{5, 6, 7}); err != nil {
					t.Errorf("clipped accumulate: %v", err)
				}
				if _, err := c.FetchAndOp(0, 0, 16, AtomicSum, 1); !errors.Is(err, ErrTruncate) {
					t.Errorf("fetch past window end: err=%v, want ErrTruncate", err)
				}
				if _, err := c.FetchAndOp(0, 0, 1024, AtomicSum, 1); !errors.Is(err, ErrTruncate) {
					t.Errorf("fetch outside window: err=%v, want ErrTruncate", err)
				}
				c.Barrier()
			}
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		if got := winInt64(win, 0); got != 5 {
			t.Errorf("slot 0: got %d, want 5", got)
		}
		if got := winInt64(win, 1); got != 6 {
			t.Errorf("slot 1: got %d, want 6", got)
		}
		for _, b := range win[16:] {
			if b != 0 {
				t.Fatal("clipped atomic scribbled past the last whole slot")
			}
		}
	})
}
