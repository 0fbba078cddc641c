package core

import (
	"bytes"
	"testing"
	"time"

	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
)

// One-sided chaos differential: the lane has its own sequence/ack space
// (reliable.go), and this suite proves it delivers the same bytes whatever
// the wire does. Each origin rank fires a seeded schedule of puts —
// dynamic and persistent — into its own disjoint region of rank 0's
// window, then reads the region back with a Get; drops, duplicates and
// reordering must leave every region bit-identical to the fault-free
// expectation, with the retransmit machinery demonstrably firing.

// osChaosRegion is each origin's slice of the target window.
const osChaosRegion = 512

// osChaosExpected replays origin r's put schedule against a local buffer:
// per-origin puts apply in post order, so this is the exact image the
// region must hold after WinWait, faults or no faults.
func osChaosExpected(r, rounds int) []byte {
	img := make([]byte, osChaosRegion)
	for i := 0; i < rounds; i++ {
		off, n, fill := osChaosPut(r, i)
		for j := 0; j < n; j++ {
			img[off+j] = fill
		}
	}
	return img
}

// osChaosPut is origin r's i-th put: a deterministic offset/length/fill
// inside its region, overlapping earlier puts so apply ORDER (not just
// delivery) is observable.
func osChaosPut(r, i int) (off, n int, fill byte) {
	h := uint32(r*2654435761 + i*40503)
	off = int(h % (osChaosRegion / 2))
	n = 1 + int((h>>8)%(osChaosRegion/2))
	fill = byte(h>>16) | 1 // never zero, so untouched bytes are visible
	return off, n, fill
}

// runOneSidedChaos executes the workload and returns the report plus the
// target window contents.
func runOneSidedChaos(t *testing.T, backend string, shards int, f faults.Config) (Report, []byte) {
	t.Helper()
	cfg := backendConfig(backend, 3, 1)
	cfg.Shards = shards
	cfg.Faults = f
	if f.Enabled() {
		cfg.Reliability.Enabled = true
		cfg.Reliability.AckTimeout = 5 * time.Millisecond // keeps live fast
	}
	return runOneSidedChaosInner(t, cfg)
}

// runOneSidedChaosInner runs the workload on a fully prepared config.
func runOneSidedChaosInner(t *testing.T, cfg Config) (Report, []byte) {
	t.Helper()
	const rounds = 24
	nodes := cfg.Nodes
	win := make([]byte, (nodes-1)*osChaosRegion)
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		if c.Rank() == 0 {
			c.RegisterWindow(0, win)
		}
		c.Barrier()
		if c.Rank() != 0 {
			base := (c.Rank() - 1) * osChaosRegion
			// First half dynamic puts, second half a persistent handle —
			// both senders (osSendFrame's packed-per-fire frame and the
			// handle's patched-in-place one) see faults.
			data := make([]byte, osChaosRegion)
			for i := 0; i < rounds/2; i++ {
				off, n, fill := osChaosPut(c.Rank(), i)
				for j := 0; j < n; j++ {
					data[j] = fill
				}
				if err := c.Put(0, 0, base+off, data[:n]); err != nil {
					t.Errorf("rank %d put %d: %v", c.Rank(), i, err)
				}
			}
			// The persistent frame targets the region base with a full
			// region payload; each fire ships the region image as of that
			// round, which lands the same bytes as the sub-range put the
			// schedule describes (per-origin apply order makes the replay
			// exact).
			pp := c.NewPersistentPut(0, 0, base, data)
			for i := rounds / 2; i < rounds; i++ {
				copy(data, osChaosExpected(c.Rank(), i+1))
				if err := pp.Start(); err != nil {
					t.Errorf("rank %d persistent fire %d: %v", c.Rank(), i, err)
				}
			}
			pp.Free()
			// Read the region back over the faulted wire: the get
			// request/reply pair rides the same reliable lane.
			got := make([]byte, osChaosRegion)
			if _, err := c.Get(0, 0, base, got); err != nil {
				t.Errorf("rank %d get: %v", c.Rank(), err)
			}
			if !bytes.Equal(got, osChaosExpected(c.Rank(), rounds)) {
				t.Errorf("rank %d read back a diverged region", c.Rank())
			}
		} else {
			c.WinWait(0, (nodes-1)*rounds)
		}
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, win
}

// TestChaosOneSidedSim sweeps fault seeds on the simulated backend: every
// faulted run must reproduce the clean image bit for bit, with drops
// actually injected and retransmits actually fired — the same drops and
// retransmits, at the same virtual instants, on two and four shards.
func TestChaosOneSidedSim(t *testing.T) {
	_, clean := runOneSidedChaos(t, transport.BackendSim, 0, faults.Config{})
	for _, seed := range []int64{1, 7, 42} {
		f := faults.Config{Seed: seed, Drop: 0.12, Dup: 0.08, Reorder: 0.08}
		rep, got := runOneSidedChaos(t, transport.BackendSim, 0, f)
		for _, shards := range []int{2, 4} {
			srep, sgot := runOneSidedChaos(t, transport.BackendSim, shards, f)
			if !bytes.Equal(sgot, got) || srep.Elapsed != rep.Elapsed || srep.Retransmits != rep.Retransmits ||
				srep.DupWireFrames != rep.DupWireFrames || srep.FaultsInjected != rep.FaultsInjected {
				t.Errorf("seed %d shards %d: elapsed %v retransmits %d dups %d faults %+v, one shard had %v %d %d %+v",
					seed, shards, srep.Elapsed, srep.Retransmits, srep.DupWireFrames, srep.FaultsInjected,
					rep.Elapsed, rep.Retransmits, rep.DupWireFrames, rep.FaultsInjected)
			}
		}
		if !bytes.Equal(got, clean) {
			t.Errorf("seed %d: one-sided window diverged under faults", seed)
		}
		if rep.FaultsInjected.Drops == 0 {
			t.Errorf("seed %d: no drops injected; differential proves nothing", seed)
		}
		if rep.Retransmits == 0 {
			t.Errorf("seed %d: drops but zero retransmits on the one-sided lane", seed)
		}
		if rep.PoolAcquires != rep.PoolReleases {
			t.Errorf("seed %d: pool leak under one-sided chaos: %d acquires vs %d releases",
				seed, rep.PoolAcquires, rep.PoolReleases)
		}
	}
}

// TestChaosOneSidedLive runs the same differential on the live backend —
// real goroutines racing on the lane's locks, wall-clock retransmit
// timers. CI runs this package under -race.
func TestChaosOneSidedLive(t *testing.T) {
	_, clean := runOneSidedChaos(t, transport.BackendSim, 0, faults.Config{})
	rep, got := runOneSidedChaos(t, transport.BackendLive, 0,
		faults.Config{Seed: 5, Drop: 0.12, Dup: 0.05})
	if !bytes.Equal(got, clean) {
		t.Error("live one-sided window diverged under faults")
	}
	if rep.FaultsInjected.Drops > 0 && rep.Retransmits == 0 {
		t.Error("live drops but zero retransmits on the one-sided lane")
	}
}
