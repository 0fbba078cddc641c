package mpi

import (
	"bytes"
	"testing"
	"time"

	"dcgn/internal/fabric"
	"dcgn/internal/sim"
)

// treeWorld builds a world with binomial-tree Gatherv/Scatterv enabled.
func treeWorld(s *sim.Sim, ranks, nodes int) *World {
	net := fabric.New(s, nodes, fabric.DefaultConfig())
	nodeOf := make([]int, ranks)
	for i := range nodeOf {
		nodeOf[i] = i * nodes / ranks
	}
	cfg := DefaultConfig()
	cfg.TreeCollectives = true
	return NewWorld(s, net, nodeOf, cfg)
}

// TestTreeGatherv checks binomial gather against the packed layout for
// power-of-two and ragged sizes, every root, and variable counts.
func TestTreeGatherv(t *testing.T) {
	for _, n := range []int{3, 4, 7, 8} {
		for root := 0; root < n; root++ {
			s := sim.New()
			w := treeWorld(s, n, n)
			counts := make([]int, n)
			total := 0
			for i := range counts {
				counts[i] = 3 + 5*i // ragged, nonzero
				total += counts[i]
			}
			displs := displacements(counts)
			got := make([]byte, total)
			runRanks(t, w, func(p *sim.Proc, r *Rank) {
				send := fill(counts[r.ID()], byte(r.ID()))
				var recv []byte
				if r.ID() == root {
					recv = got
				}
				if err := r.World().Comm().Gatherv(p, r, send, recv, counts, root); err != nil {
					t.Errorf("n=%d root=%d rank=%d: %v", n, root, r.ID(), err)
				}
			})
			for i := 0; i < n; i++ {
				want := fill(counts[i], byte(i))
				if !bytes.Equal(got[displs[i]:displs[i]+counts[i]], want) {
					t.Fatalf("n=%d root=%d: rank %d chunk wrong", n, root, i)
				}
			}
		}
	}
}

// TestTreeScatterv checks binomial scatter for every root with ragged
// chunk sizes.
func TestTreeScatterv(t *testing.T) {
	for _, n := range []int{3, 4, 7, 8} {
		for root := 0; root < n; root++ {
			s := sim.New()
			w := treeWorld(s, n, n)
			counts := make([]int, n)
			total := 0
			for i := range counts {
				counts[i] = 2 + 3*i
				total += counts[i]
			}
			displs := displacements(counts)
			src := make([]byte, total)
			for i := 0; i < n; i++ {
				copy(src[displs[i]:displs[i]+counts[i]], fill(counts[i], byte(i*11)))
			}
			results := make([][]byte, n)
			runRanks(t, w, func(p *sim.Proc, r *Rank) {
				var send []byte
				if r.ID() == root {
					send = src
				}
				recv := make([]byte, counts[r.ID()])
				if err := coll(p, r.World().Comm(), r, CollScatterv, root, send, recv, counts, nil); err != nil {
					t.Errorf("n=%d root=%d rank=%d: %v", n, root, r.ID(), err)
				}
				results[r.ID()] = recv
			})
			for i := 0; i < n; i++ {
				if !bytes.Equal(results[i], fill(counts[i], byte(i*11))) {
					t.Fatalf("n=%d root=%d: rank %d got wrong chunk", n, root, i)
				}
			}
		}
	}
}

// TestLargeBcast checks the scatter–allgather broadcast delivers the
// root's exact payload everywhere, across ragged payload sizes
// (threshold-boundary, off-by-one, chunk sizes that don't divide evenly),
// member counts and a non-zero root.
func TestLargeBcast(t *testing.T) {
	sizes := []int{bcastLargeMin + 1, 3*bcastLargeMin + 17, 65 * bcastLargeMin}
	for _, n := range []int{2, 3, 5, 8} {
		for _, size := range sizes {
			root := n - 1
			s := sim.New()
			w := treeWorld(s, n, n)
			want := fill(size, 0)
			for i := range want {
				want[i] = byte(i * 131)
			}
			results := make([][]byte, n)
			runRanks(t, w, func(p *sim.Proc, r *Rank) {
				buf := make([]byte, size)
				if r.ID() == root {
					copy(buf, want)
				}
				if err := r.Bcast(p, buf, root); err != nil {
					t.Errorf("n=%d size=%d rank=%d: %v", n, size, r.ID(), err)
				}
				results[r.ID()] = buf
			})
			for i := 0; i < n; i++ {
				if !bytes.Equal(results[i], want) {
					t.Fatalf("n=%d size=%d: rank %d payload wrong", n, size, i)
				}
			}
		}
	}
}

// TestLargeBcastFaster pins the algorithm's point: for a bandwidth-bound
// payload, scatter–allgather finishes ahead of the plain binomial tree,
// whose root must inject log2(n) full payload copies.
func TestLargeBcastFaster(t *testing.T) {
	const n, size = 8, 512 << 10
	run := func(tree bool) time.Duration {
		s := sim.New()
		net := fabric.New(s, n, fabric.DefaultConfig())
		nodeOf := make([]int, n)
		for i := range nodeOf {
			nodeOf[i] = i
		}
		cfg := DefaultConfig()
		cfg.TreeCollectives = tree
		w := NewWorld(s, net, nodeOf, cfg)
		var last time.Duration
		runRanks(t, w, func(p *sim.Proc, r *Rank) {
			buf := make([]byte, size)
			if err := r.Bcast(p, buf, 0); err != nil {
				t.Errorf("rank %d: %v", r.ID(), err)
			}
			if done := p.Now(); done > last {
				last = done
			}
		})
		return last
	}
	plain := run(false)
	sag := run(true)
	if sag >= plain {
		t.Fatalf("scatter-allgather bcast (%v) not faster than binomial tree (%v)", sag, plain)
	}
}

// TestTreeGatherRendezvous pushes block sizes past the eager limit so the
// tree hops exercise the RTS/CTS path.
func TestTreeGatherRendezvous(t *testing.T) {
	const n = 5
	s := sim.New()
	w := treeWorld(s, n, n)
	count := w.cfg.EagerLimit + 100
	counts := make([]int, n)
	for i := range counts {
		counts[i] = count
	}
	got := make([]byte, n*count)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		send := fill(count, byte(r.ID()+1))
		var recv []byte
		if r.ID() == 0 {
			recv = got
		}
		if err := r.World().Comm().Gatherv(p, r, send, recv, counts, 0); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	})
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[i*count:(i+1)*count], fill(count, byte(i+1))) {
			t.Fatalf("rank %d chunk wrong", i)
		}
	}
}

// TestTreeRootIncast pins the motivation for the tree variants: both
// algorithms move n-1 messages in total, but the flat gather serializes
// all of them through the root's receive NIC, so for small payloads —
// where every block stays below collHopMinSize and per-message overhead
// dominates — the tree's log-depth critical path wins.
func TestTreeRootIncast(t *testing.T) {
	const n, count = 128, 1
	run := func(tree bool) (packets int, rootDone time.Duration) {
		s := sim.New()
		net := fabric.New(s, n, fabric.DefaultConfig())
		nodeOf := make([]int, n)
		for i := range nodeOf {
			nodeOf[i] = i
		}
		cfg := DefaultConfig()
		cfg.TreeCollectives = tree
		w := NewWorld(s, net, nodeOf, cfg)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = count
		}
		got := make([]byte, n*count)
		runRanks(t, w, func(p *sim.Proc, r *Rank) {
			send := fill(count, byte(r.ID()))
			var recv []byte
			if r.ID() == 0 {
				recv = got
			}
			if err := r.World().Comm().Gatherv(p, r, send, recv, counts, 0); err != nil {
				t.Errorf("rank %d: %v", r.ID(), err)
			}
			if r.ID() == 0 {
				rootDone = p.Now()
			}
		})
		pk, _ := net.Totals()
		return pk, rootDone
	}
	flatPk, flatDone := run(false)
	treePk, treeDone := run(true)
	// Every non-root sends exactly once under both algorithms.
	if flatPk != n-1 || treePk != n-1 {
		t.Fatalf("packets flat=%d tree=%d, want %d", flatPk, treePk, n-1)
	}
	if treeDone >= flatDone {
		t.Fatalf("tree gather (%v) not faster than flat incast (%v) at n=%d", treeDone, flatDone, n)
	}
}
