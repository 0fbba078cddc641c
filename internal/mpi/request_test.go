package mpi

import (
	"testing"
	"time"

	"dcgn/internal/sim"
)

// TestWaitAllWaitsForEverySend: WaitAll returns once the last of its sends
// is complete — an eager one at once, a rendezvous one once its receiver
// has posted and the data is on its way — whatever order they complete in.
func TestWaitAllWaitsForEverySend(t *testing.T) {
	s := sim.New()
	w := testWorld(s, 3, 3)
	const late = 2 * time.Millisecond
	runRanks(t, w, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			big := make([]byte, 2*w.cfg.EagerLimit)
			reqs := []*Request{
				r.Isend(p, big, 1, 5),
				r.Isend(p, make([]byte, 10), 2, 5),
			}
			if reqs[0].done == nil || reqs[1].done != nil {
				t.Fatal("want a rendezvous send, then an eager one")
			}
			WaitAll(p, reqs...)
			if p.Now() < late {
				t.Errorf("WaitAll returned at %v, before the rendezvous receive was posted at %v", p.Now(), late)
			}
		case 1:
			p.Sleep(late)
			if _, err := r.Recv(p, make([]byte, 2*w.cfg.EagerLimit), 0, 5); err != nil {
				t.Error(err)
			}
		case 2:
			if _, err := r.Recv(p, make([]byte, 10), 0, 5); err != nil {
				t.Error(err)
			}
		}
	})
}
