package apps

import (
	"testing"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/fabric"
)

// runScale runs ScaleFanout on nodes nodes with the given shard count and
// returns the digest vector plus the virtual elapsed time.
func runScale(t *testing.T, nodes, shards, rounds, fanout int, topo fabric.Topology) ([]uint64, time.Duration) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Shards = shards
	cfg.Net.Topology = topo
	cfg.MPI.TreeCollectives = true
	rep, digests, err := ScaleFanout(cfg, rounds, fanout)
	if err != nil {
		t.Fatalf("nodes=%d shards=%d: %v", nodes, shards, err)
	}
	return digests, rep.Elapsed
}

// TestScaleFanoutShardInvariance is the determinism tentpole check: the
// digest vector and the virtual elapsed time must be bit-identical for
// every shard count, Shards 0 included — on the flat fabric and on
// topologies, where the lookahead derives from the cross-shard latency
// instead of the flat link latency. The 256-node
// cells also pin the FNV fold of the digests and the elapsed time, so a
// change that moves every shard count together still fails here rather
// than in a human's diff against the parent commit.
func TestScaleFanoutShardInvariance(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		nodes, rounds, fanout int
		topo                  fabric.Topology
		shards                []int
		fold                  uint64
		elapsed               time.Duration
	}{
		{name: "flat64", nodes: 64, rounds: 3, fanout: 3, shards: []int{0, 1, 2, 4, 8}},
		{name: "fattree16", nodes: 16, rounds: 3, fanout: 3, shards: []int{0, 1, 2, 4},
			topo: fabric.NewFatTree(4, 100*time.Nanosecond)},
		{name: "flat256", nodes: 256, rounds: 4, fanout: 4, shards: []int{0, 1, 2, 8},
			fold: 0xdf60891d956fb425, elapsed: 1385240 * time.Nanosecond},
		// The smallest balanced dragonfly (a = h, p = a/2) with 256 hosts.
		{name: "dragonfly256", nodes: 256, rounds: 4, fanout: 4, shards: []int{0, 1, 2, 8},
			topo: fabric.NewDragonfly(6, 3, 6, 300*time.Nanosecond),
			fold: 0xdf60891d956fb425, elapsed: 1383840 * time.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantElapsed := runScale(t, tc.nodes, tc.shards[0], tc.rounds, tc.fanout, tc.topo)
			for _, shards := range tc.shards[1:] {
				got, gotElapsed := runScale(t, tc.nodes, shards, tc.rounds, tc.fanout, tc.topo)
				if gotElapsed != wantElapsed {
					t.Errorf("shards=%d: elapsed %v, want %v", shards, gotElapsed, wantElapsed)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shards=%d: rank %d digest %#x, want %#x", shards, i, got[i], want[i])
					}
				}
			}
			if tc.fold == 0 {
				return
			}
			fold := uint64(14695981039346656037)
			for _, d := range want {
				fold = (fold ^ d) * 1099511628211
			}
			if fold != tc.fold || wantElapsed != tc.elapsed {
				t.Errorf("digest fold %016x elapsed %v, pinned %016x %v", fold, wantElapsed, tc.fold, tc.elapsed)
			}
		})
	}
}

// TestScaleFanoutDigestsNontrivial guards against the digest pipeline
// degenerating (all-zero or all-equal vectors would make the CI diff
// vacuous).
func TestScaleFanoutDigestsNontrivial(t *testing.T) {
	digests, _ := runScale(t, 8, 2, 3, 3, nil)
	seen := map[uint64]bool{}
	for _, d := range digests {
		if d == 0 {
			t.Fatal("zero digest")
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all %d digests identical: %#x", len(digests), digests[0])
	}
}
