package mpi

import (
	"testing"
	"time"

	"dcgn/internal/sim"
)

func TestWaitAllCollectsStatuses(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 3, 2)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			bufs := [][]byte{make([]byte, 10), make([]byte, 20)}
			reqs := []*Request{
				r.Irecv(p, bufs[0], 1, 5),
				r.Irecv(p, bufs[1], 2, 5),
			}
			stats, err := WaitAll(p, reqs...)
			if err != nil {
				t.Error(err)
			}
			if stats[0].Source != 1 || stats[0].Count != 10 {
				t.Errorf("stats[0] = %+v", stats[0])
			}
			if stats[1].Source != 2 || stats[1].Count != 20 {
				t.Errorf("stats[1] = %+v", stats[1])
			}
		case 1:
			p.Sleep(2 * time.Millisecond)
			r.Send(p, make([]byte, 10), 0, 5)
		case 2:
			p.Sleep(time.Millisecond)
			r.Send(p, make([]byte, 20), 0, 5)
		}
	})
}

func TestWaitAllPropagatesFirstError(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 2, 2)
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			tiny := make([]byte, 2) // will truncate
			req := r.Irecv(p, tiny, 1, 0)
			_, err := WaitAll(p, req)
			if err != ErrTruncate {
				t.Errorf("want ErrTruncate, got %v", err)
			}
		case 1:
			r.Send(p, make([]byte, 100), 0, 0)
		}
	})
}
