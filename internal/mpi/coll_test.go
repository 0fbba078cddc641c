package mpi

import (
	"bytes"
	"testing"
	"time"

	"dcgn/internal/sim"
)

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		s := sim.New()
		w := testWorld(s, n, min(n, 4))
		var releaseTimes []time.Duration
		var slowest time.Duration
		runRanks(t, w, func(p *sim.Proc, r *Rank) {
			// Each rank arrives at a different time; the slowest at n ms.
			d := time.Duration(r.ID()+1) * time.Millisecond
			if d > slowest {
				slowest = d
			}
			p.Sleep(d)
			r.Barrier(p)
			releaseTimes = append(releaseTimes, p.Now())
		})
		for _, rt := range releaseTimes {
			if rt < slowest {
				t.Fatalf("n=%d: a rank left the barrier at %v, before the slowest arrived at %v", n, rt, slowest)
			}
			if rt > slowest+time.Millisecond {
				t.Fatalf("n=%d: barrier exit %v unreasonably late", n, rt)
			}
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 8} {
		for root := 0; root < n; root += max(1, n-1) {
			for _, size := range []int{1, 1024, 100_000} {
				s := sim.New()
				w := testWorld(s, n, min(n, 4))
				want := fill(size, byte(root+1))
				runRanks(t, w, func(p *sim.Proc, r *Rank) {
					buf := make([]byte, size)
					if r.ID() == root {
						copy(buf, want)
					}
					if err := r.Bcast(p, buf, root); err != nil {
						t.Error(err)
					}
					if !bytes.Equal(buf, want) {
						t.Errorf("n=%d root=%d size=%d rank=%d: corrupted", n, root, size, r.ID())
					}
				})
			}
		}
	}
}

func TestGatherScatterRoundtrip(t *testing.T) {
	const n, chunk = 6, 500
	s := sim.New()
	w := testWorld(s, n, 3)
	root := 2
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		mine := fill(chunk, byte(r.ID()))
		var gathered []byte
		if r.ID() == root {
			gathered = make([]byte, n*chunk)
		}
		if err := r.Gather(p, mine, gathered, root); err != nil {
			t.Error(err)
		}
		if r.ID() == root {
			for i := 0; i < n; i++ {
				if !bytes.Equal(gathered[i*chunk:(i+1)*chunk], fill(chunk, byte(i))) {
					t.Errorf("gather chunk %d corrupted", i)
				}
			}
		}
		// Scatter the gathered data back out; every rank must get its own
		// chunk again.
		back := make([]byte, chunk)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = chunk
		}
		if err := coll(p, r.World().Comm(), r, CollScatterv, root, gathered, back, counts, nil); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(back, mine) {
			t.Errorf("rank %d scatter returned wrong chunk", r.ID())
		}
	})
}

func TestGathervScattervVariableSizes(t *testing.T) {
	const n = 5
	counts := []int{100, 0, 2500, 64, 9000}
	s := sim.New()
	w := testWorld(s, n, 2)
	total := 0
	for _, c := range counts {
		total += c
	}
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		mine := fill(counts[r.ID()], byte(r.ID()+1))
		var gathered []byte
		if r.ID() == 0 {
			gathered = make([]byte, total)
		}
		if err := r.World().Comm().Gatherv(p, r, mine, gathered, counts, 0); err != nil {
			t.Error(err)
		}
		if r.ID() == 0 {
			off := 0
			for i, c := range counts {
				if !bytes.Equal(gathered[off:off+c], fill(c, byte(i+1))) {
					t.Errorf("gatherv chunk %d corrupted", i)
				}
				off += c
			}
		}
		back := make([]byte, counts[r.ID()])
		if err := coll(p, r.World().Comm(), r, CollScatterv, 0, gathered, back, counts, nil); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(back, mine) {
			t.Errorf("rank %d scatterv mismatch", r.ID())
		}
	})
}

func TestBackToBackCollectivesDoNotCrossTalk(t *testing.T) {
	// Fast ranks entering collective k+1 while slow ranks are in k must not
	// mis-match (relies on per-sender non-overtaking).
	const n = 4
	s := sim.New()
	w := testWorld(s, n, 2)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		for iter := 0; iter < 10; iter++ {
			buf := make([]byte, 64)
			if r.ID() == iter%n {
				copy(buf, fill(64, byte(iter)))
			}
			if err := r.Bcast(p, buf, iter%n); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(buf, fill(64, byte(iter))) {
				t.Errorf("iter %d rank %d: cross-talk", iter, r.ID())
			}
			// Deliberately skew ranks between collectives.
			p.Sleep(time.Duration(r.ID()) * 100 * time.Microsecond)
		}
	})
}

func TestAlltoallvVariableSizes(t *testing.T) {
	const n = 4
	s := sim.New()
	w := testWorld(s, n, 2)
	// Rank i sends (i+j+1)*10 bytes to rank j.
	size := func(i, j int) int { return (i + j + 1) * 10 }
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		me := r.ID()
		sendCounts := make([]int, n)
		recvCounts := make([]int, n)
		totalS, totalR := 0, 0
		for j := 0; j < n; j++ {
			sendCounts[j] = size(me, j)
			recvCounts[j] = size(j, me)
			totalS += sendCounts[j]
			totalR += recvCounts[j]
		}
		sendBuf := make([]byte, 0, totalS)
		for j := 0; j < n; j++ {
			sendBuf = append(sendBuf, fill(size(me, j), byte(me*10+j))...)
		}
		recvBuf := make([]byte, totalR)
		if err := coll(p, r.World().Comm(), r, CollAlltoallv, 0, sendBuf, recvBuf, sendCounts, recvCounts); err != nil {
			t.Error(err)
		}
		off := 0
		for j := 0; j < n; j++ {
			if !bytes.Equal(recvBuf[off:off+recvCounts[j]], fill(size(j, me), byte(j*10+me))) {
				t.Errorf("rank %d: block from %d corrupted", me, j)
			}
			off += recvCounts[j]
		}
	})
}
