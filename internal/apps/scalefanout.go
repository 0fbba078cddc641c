package apps

import (
	"encoding/binary"
	"fmt"

	"dcgn/internal/core"
)

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters used for the
// per-rank receive digests.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// ScaleFanout is the cluster-scale neighbor-exchange workload behind the
// scale/determinism CI gates: every node contributes one CPU rank, and in
// each round every rank exchanges 8-byte messages with its power-of-two
// neighbors (ranks me±2^k for k < fanout, wrapping), receiving each
// message from its specific mirror source. Each rank folds every received
// payload, in completion order, into an FNV-1a digest; a final Gather
// collects the digests at rank 0, exercising the node-level collective
// path (with cfg.MPI.TreeCollectives, the binomial tree).
//
// The returned slice holds the gathered per-rank digests in rank order.
// Two runs agree on it — and on Report.Elapsed — if and only if every
// rank saw the same messages in the same order at the same virtual times,
// which is what TestScaleFanoutShardInvariance diffs across shard counts.
func ScaleFanout(cfg core.Config, rounds, fanout int) (core.Report, []uint64, error) {
	n := cfg.Nodes
	if n < 2 {
		return core.Report{}, nil, fmt.Errorf("apps: ScaleFanout needs at least 2 nodes, got %d", n)
	}
	if rounds < 1 || fanout < 1 {
		return core.Report{}, nil, fmt.Errorf("apps: ScaleFanout needs rounds and fanout >= 1")
	}
	cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = 1, 0, 0
	job := core.NewJob(cfg)

	gathered := make([]byte, 8*n)
	errs := make([]error, n)
	job.SetCPUKernel(func(c *core.CPUCtx) {
		me := c.Rank()
		digest := fnvOffset
		for r := 0; r < rounds; r++ {
			var sends, recvs []*core.AsyncOp
			var recvBufs [][]byte
			for k := 0; k < fanout; k++ {
				d := (1 << k) % n
				if d == 0 {
					continue // the offset wrapped onto this rank itself
				}
				up, down := (me+d)%n, (me-d+n)%n
				// Post both receives before the sends so no message ever
				// waits in the unexpected path longer than it must.
				for _, src := range []int{down, up} {
					b := make([]byte, 8)
					recvs = append(recvs, c.IRecv(src, b))
					recvBufs = append(recvBufs, b)
				}
				for _, dst := range []int{up, down} {
					p := make([]byte, 8)
					binary.LittleEndian.PutUint64(p, uint64(me)<<32|uint64(r)<<8|uint64(k))
					sends = append(sends, c.ISend(dst, p))
				}
			}
			for i, op := range recvs {
				if _, err := op.Wait(c); err != nil && errs[me] == nil {
					errs[me] = err
				}
				for _, b := range recvBufs[i] {
					digest = (digest ^ uint64(b)) * fnvPrime
				}
			}
			for _, op := range sends {
				if _, err := op.Wait(c); err != nil && errs[me] == nil {
					errs[me] = err
				}
			}
		}
		mine := make([]byte, 8)
		binary.LittleEndian.PutUint64(mine, digest)
		var recv []byte
		if me == 0 {
			recv = gathered
		}
		if err := c.Gather(0, mine, recv); err != nil && errs[me] == nil {
			errs[me] = err
		}
	})

	rep, err := job.Run()
	if err == nil {
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	digests := make([]uint64, n)
	for i := range digests {
		digests[i] = binary.LittleEndian.Uint64(gathered[8*i:])
	}
	return rep, digests, err
}
