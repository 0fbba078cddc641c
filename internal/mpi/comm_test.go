package mpi

import (
	"bytes"
	"slices"
	"testing"

	"dcgn/internal/sim"
)

func TestWorldCommCoversAllRanks(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 5, 2)
	c := w.Comm()
	if c.Size() != 5 {
		t.Fatalf("world comm size=%d", c.Size())
	}
	for i := 0; i < 5; i++ {
		if c.Translate(i) != i {
			t.Fatal("world comm should be identity")
		}
		if c.RankOf(w.Rank(i)) != i {
			t.Fatal("membership wrong")
		}
	}
	if w.Comm() != c {
		t.Fatal("world comm not cached")
	}
}

func TestSubCommCollectivesIsolated(t *testing.T) {
	// Two interleaved groups run DIFFERENT collective schedules concurrently:
	// {0,2,4} does Bcast+Gatherv, {1,3,5} does Alltoallv+Barrier. Contexts
	// must not cross-match. This is what a Runtime relies on for co-resident
	// tenants.
	s := sim.New()
	w := testWorld(s, 6, 3)
	groups := []*Comm{w.NewGroupComm([]int{0, 2, 4}), w.NewGroupComm([]int{1, 3, 5})}
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		sub := groups[r.ID()%2]
		me := sub.RankOf(r)
		if sub.Translate(me) != r.ID() || sub.Size() != 3 {
			t.Errorf("rank %d: comm rank %d of %d translates to %d", r.ID(), me, sub.Size(), sub.Translate(me))
		}
		if r.ID()%2 == 0 {
			buf := make([]byte, 512)
			if me == 0 {
				copy(buf, fill(512, 77))
			}
			if err := sub.Bcast(p, r, buf, 0); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(buf, fill(512, 77)) {
				t.Errorf("group 0 bcast corrupted at comm rank %d", me)
			}
			counts := []int{8, 300, 64}
			var all []byte
			if me == 0 {
				all = make([]byte, 8+300+64)
			}
			if err := sub.Gatherv(p, r, fill(counts[me], byte(20+me)), all, counts, 0); err != nil {
				t.Error(err)
			}
			if me == 0 && !bytes.Equal(all, slices.Concat(fill(8, 20), fill(300, 21), fill(64, 22))) {
				t.Error("group 0 gatherv corrupted")
			}
		} else {
			counts := []int{64, 64, 64}
			out := slices.Concat(fill(64, byte(10*me)), fill(64, byte(10*me+1)), fill(64, byte(10*me+2)))
			in := make([]byte, 3*64)
			if err := coll(p, sub, r, CollAlltoallv, 0, out, in, counts, counts); err != nil {
				t.Error(err)
			}
			for i := 0; i < 3; i++ {
				if !bytes.Equal(in[i*64:(i+1)*64], fill(64, byte(10*i+me))) {
					t.Errorf("group 1 alltoallv chunk %d corrupted at comm rank %d", i, me)
				}
			}
			sub.Barrier(p, r)
		}
	})
}

// TestGroupCommContextsAreFresh: a communicator's context is its call's, not
// its member set's. Rank 0 broadcasts on the first communicator and rank 1
// never joins — a tenant canceled between its root's send and the other
// node's join — so the frame stays in rank 1's unexpected queue, where the
// second communicator's Bcast over the same members must not match it.
func TestGroupCommContextsAreFresh(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	first, second := w.NewGroupComm([]int{0, 1}), w.NewGroupComm([]int{0, 1})
	if first.id == second.id || first.id == w.Comm().id || second.id == w.Comm().id {
		t.Fatalf("contexts not distinct: world %d, first %d, second %d", w.Comm().id, first.id, second.id)
	}
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		buf := make([]byte, 64)
		if r.ID() == 0 {
			if err := first.Bcast(p, r, fill(64, 0xAA), 0); err != nil {
				t.Error(err)
			}
			copy(buf, fill(64, 0xBB))
		}
		if err := second.Bcast(p, r, buf, 0); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(buf, fill(64, 0xBB)) {
			t.Errorf("rank %d: second communicator's Bcast delivered %#x…, its root sent 0xbb…", r.ID(), buf[0])
		}
	})
	if n := len(w.Rank(1).unexpected); n != 1 {
		t.Errorf("rank 1 holds %d unexpected frames, want the first communicator's one", n)
	}
}
