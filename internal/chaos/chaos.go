// Package chaos is the wire-hardening differential harness: it runs a
// seeded, randomized CPU-kernel workload — interleaved point-to-point
// rounds and collectives across every rank — and folds everything each
// rank receives into a per-rank digest. Because the workload is a pure
// function of (shape, seed, rounds), the digests are too: a run on a
// faulted wire (internal/transport/faults) must produce exactly the
// digests of a clean run, on either backend, or the reliability layer
// (internal/core/reliable.go) dropped, duplicated or reordered something
// it promised to hide.
//
// internal/core/chaos_test.go asserts digest equality (with
// prefix-shrinking on failure) and pool balance over it, on both backends
// and under both hosts: Run is the job run on a substrate of its own, and a
// test that wants it as a tenant of a Runtime submits New's Job itself.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
)

// Options selects the workload shape and wire conditions of one chaos run.
type Options struct {
	// Backend is the transport backend name (transport.BackendSim default).
	Backend string
	// Nodes / CPUs give the cluster shape (CPU kernels only).
	Nodes int
	CPUs  int
	// Rounds is the number of script rounds each rank executes.
	Rounds int
	// Seed drives the script: round kinds, pairings, payloads. Two runs
	// with equal (shape, Seed, Rounds) execute identical communication.
	Seed int64
	// Faults perturbs the wire; the zero value is a clean run.
	Faults faults.Config
	// Shards is core Config.Shards (simulated backend): how many event
	// loops the nodes are spread over. No value may change a digest or a
	// virtual number.
	Shards int
	// AckTimeout overrides the reliability layer's retransmit timeout
	// (zero keeps the default; live runs want it short).
	AckTimeout time.Duration
	// Trace enables lifecycle-span recording (core Config.Trace):
	// Result.Report.Trace then carries every request's phase timestamps,
	// ready for a Perfetto dump of a failing shrunken prefix
	// (obs.WriteChromeTrace). Spans are bookkeeping only — a traced run
	// executes the identical virtual-time schedule.
	Trace bool
	// Flows enables causal flow tracing (core Config.Flows, implies
	// Trace): wire frames carry the 16-byte trace context, so this is
	// the knob the differential uses to prove the flows wire extension
	// survives drops, duplicates and reordering without corrupting
	// application payloads.
	Flows bool
}

// Result is one chaos run's outcome.
type Result struct {
	// Digests holds one FNV-64a digest per rank over everything the rank
	// received, in (round, source, payload) order. Equal options must
	// produce equal digests whatever the wire did.
	Digests []uint64
	// Report is the run's engine report (fault and retransmit accounting).
	Report core.Report
}

// round kinds, drawn per round from the script hash.
const (
	roundP2P = iota
	roundP2PReverse
	roundBarrier
	roundBcast
	roundAlltoall
	roundKinds
)

// mix64 is a splitmix64 step: the script's stateless hash. Every rank
// computes the same values from the same coordinates.
func mix64(vals ...uint64) uint64 {
	z := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		z += v * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0x94d049bb133111eb
		z = (z ^ (z >> 27)) * 0x9e3779b97f4a7c15
		z ^= z >> 31
	}
	return z
}

// payloadFor derives the deterministic payload rank src sends to rank dst
// in round r: 1–256 bytes, every byte seeded.
func payloadFor(seed int64, r, src, dst int) []byte {
	h := mix64(uint64(seed), uint64(r), uint64(src), uint64(dst))
	n := 1 + int(h%256)
	b := make([]byte, n)
	for i := range b {
		h = mix64(h)
		b[i] = byte(h)
	}
	return b
}

// Workload is one chaos run before it has a host: the job to run, and the
// ledgers its ranks fill in as they go.
type Workload struct {
	// Job is the configured job, kernel installed; run it once, under any
	// host.
	Job      *core.Job
	digests  []uint64
	rankErrs []error
}

// Run executes one chaos run and returns the per-rank digests plus the
// engine report. Rank errors (lost payloads, corrupted bytes, unexpected
// sources) surface as an error, with the first offending round named.
func Run(o Options) (Result, error) {
	w, err := New(o)
	if err != nil {
		return Result{}, err
	}
	return w.Result(w.Job.Run())
}

// Result folds what the host returned for w.Job — Job.Run, or a Runtime
// handle's Wait — and what the ranks recorded into the run's outcome.
func (w *Workload) Result(rep core.Report, err error) (Result, error) {
	if err != nil {
		return Result{Report: rep}, err
	}
	for _, e := range w.rankErrs {
		if e != nil {
			return Result{Digests: w.digests, Report: rep}, e
		}
	}
	return Result{Digests: w.digests, Report: rep}, nil
}

// New builds the chaos workload o describes.
func New(o Options) (*Workload, error) {
	if o.Nodes <= 0 || o.CPUs <= 0 || o.Rounds <= 0 {
		return nil, fmt.Errorf("chaos: need positive nodes/cpus/rounds")
	}
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = o.Nodes, o.CPUs, 0, 0
	cfg.Transport.Backend = o.Backend
	cfg.Faults = o.Faults
	cfg.Shards = o.Shards
	cfg.Trace = o.Trace
	cfg.Flows = o.Flows
	if o.AckTimeout > 0 {
		cfg.Reliability.AckTimeout = o.AckTimeout
	}
	if cfg.Transport.Name() == transport.BackendLive {
		cfg.MaxVirtualTime = 60 * time.Second // wall-clock watchdog
	}

	total := o.Nodes * o.CPUs
	digests := make([]uint64, total)
	rankErrs := make([]error, total)

	job := core.NewJob(cfg)
	job.SetCPUKernel(func(c *core.CPUCtx) {
		me := c.Rank()
		h := fnv.New64a()
		scratch := make([]byte, 512)
		fail := func(r int, format string, args ...any) {
			if rankErrs[me] == nil {
				rankErrs[me] = fmt.Errorf("rank %d round %d: %s", me, r, fmt.Sprintf(format, args...))
			}
		}
		mixIn := func(r, src int, payload []byte) {
			var hdr [16]byte
			for i := 0; i < 8; i++ {
				hdr[i] = byte(uint64(r) >> (8 * i))
				hdr[8+i] = byte(uint64(src) >> (8 * i))
			}
			h.Write(hdr[:])
			h.Write(payload)
		}
		for r := 0; r < o.Rounds; r++ {
			roll := mix64(uint64(o.Seed), uint64(r), 0xC0FFEE)
			switch roll % roundKinds {
			case roundP2P, roundP2PReverse:
				// A seeded permutation pairs every rank: I ISend to perm[me]
				// and Recv from the rank that maps to me. ISend-first keeps
				// a rank from blocking on its own unposted receive.
				rng := rand.New(rand.NewSource(int64(mix64(uint64(o.Seed), uint64(r)))))
				perm := rng.Perm(total)
				if roll%roundKinds == roundP2PReverse {
					// Inverted pairing: exercises the other direction of
					// every (src, dst) FIFO lane.
					inv := make([]int, total)
					for i, p := range perm {
						inv[p] = i
					}
					perm = inv
				}
				src := -1
				for i, p := range perm {
					if p == me {
						src = i
						break
					}
				}
				dst := perm[me]
				op := c.ISend(dst, payloadFor(o.Seed, r, me, dst))
				want := payloadFor(o.Seed, r, src, me)
				st, err := c.Recv(src, scratch)
				if err != nil {
					fail(r, "recv from %d: %v", src, err)
				} else if st.Source != src || st.Bytes != len(want) || !equal(scratch[:st.Bytes], want) {
					fail(r, "payload from %d corrupted (%d bytes, want %d)", src, st.Bytes, len(want))
				} else {
					mixIn(r, src, scratch[:st.Bytes])
				}
				if _, err := op.Wait(c); err != nil {
					fail(r, "isend to %d: %v", dst, err)
				}
			case roundBarrier:
				c.Barrier()
				mixIn(r, -1, nil)
			case roundBcast:
				root := int(mix64(roll) % uint64(total))
				want := payloadFor(o.Seed, r, root, total)
				buf := make([]byte, len(want))
				if me == root {
					copy(buf, want)
				}
				if err := c.Bcast(root, buf); err != nil {
					fail(r, "bcast root %d: %v", root, err)
				} else if !equal(buf, want) {
					fail(r, "bcast from %d corrupted", root)
				} else {
					mixIn(r, root, buf)
				}
			case roundAlltoall:
				chunk := 1 + int(mix64(roll, 7)%16)
				send := make([]byte, total*chunk)
				for j := 0; j < total; j++ {
					p := payloadFor(o.Seed, r, me, j)
					for k := 0; k < chunk; k++ {
						send[j*chunk+k] = p[k%len(p)]
					}
				}
				recv := make([]byte, total*chunk)
				if err := c.AllToAll(send, recv); err != nil {
					fail(r, "alltoall: %v", err)
					continue
				}
				for j := 0; j < total; j++ {
					p := payloadFor(o.Seed, r, j, me)
					for k := 0; k < chunk; k++ {
						if recv[j*chunk+k] != p[k%len(p)] {
							fail(r, "alltoall chunk from %d corrupted", j)
							break
						}
					}
				}
				mixIn(r, -2, recv)
			}
		}
		digests[me] = h.Sum64()
	})
	return &Workload{Job: job, digests: digests, rankErrs: rankErrs}, nil
}

func equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
