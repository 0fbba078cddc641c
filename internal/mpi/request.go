package mpi

import "dcgn/internal/sim"

// WaitAll blocks p until every request completes, returning the statuses
// in order and the first error encountered (all requests are still waited
// for, like MPI_Waitall).
func WaitAll(p *sim.Proc, reqs ...*Request) ([]Status, error) {
	stats := make([]Status, len(reqs))
	var firstErr error
	for i, r := range reqs {
		st, err := r.Wait(p)
		stats[i] = st
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return stats, firstErr
}
