package mpi

import "dcgn/internal/sim"

// WaitAll blocks p until every send request completes, like MPI_Waitall.
func WaitAll(p *sim.Proc, reqs ...*Request) {
	for _, r := range reqs {
		r.Wait(p)
	}
}
