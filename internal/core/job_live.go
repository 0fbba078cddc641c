package core

import (
	"fmt"
	"strings"
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/transport"
	"dcgn/internal/transport/live"
)

// liveEndpoints collects a live cluster's or tenant group's n endpoints.
func liveEndpoints(n int, at func(int) *live.Endpoint) []transport.Transport {
	eps := make([]transport.Transport, n)
	for i := range eps {
		eps[i] = at(i)
	}
	return eps
}

// liveWire is the live transport under one engine run: the default group
// of a private cluster for Job.Run, one tenant group of a shared cluster
// for a Runtime. Closing it is how the run is torn down.
type liveWire interface {
	wireTotals
	Close() error
}

// runLive executes the job on the live backend: the same progress engine
// (intake, matcher, collective accumulator, comm thread) running on real
// goroutines over the in-process goroutine/channel transport, on the wall
// clock. It owns everything job-scoped — the liveRT, the engine, the
// wait, teardown and report — while the wire (cluster or tenant group)
// is the caller's. cancel, when non-nil, aborts the run when closed — the
// Runtime's Cancel control — by the same teardown as the watchdog.
//
// The live backend trades determinism for real concurrency: it is how the
// engine's thread-confinement discipline is exercised under the race
// detector, which the one-goroutine-at-a-time simulator cannot do.
func (j *Job) runLive(endpoints []transport.Transport, pool *bufpool.Pool, wire liveWire, cancel <-chan struct{}) (Report, error) {
	rt := newLiveRT()
	j.start(engineEnv{rt: rt, endpoints: endpoints, pool: pool, clock: rt, wire: wire})

	// MaxVirtualTime doubles as the wall-clock watchdog: a deadlocked
	// application (unmatched receive, incomplete collective) would block
	// the kernel WaitGroup forever. An explicit timer (not time.After) so
	// the happy path stops it — with the defaulted 1-hour limit, time.After
	// leaked a live timer for an hour past every successful run.
	workersDone := make(chan struct{})
	go func() {
		rt.workers.Wait()
		close(workersDone)
	}()
	watchdog := time.NewTimer(j.cfg.MaxVirtualTime)
	defer watchdog.Stop()
	var runErr error
	select {
	case <-workersDone:
	case <-watchdog.C:
		runErr = fmt.Errorf("dcgn: live run exceeded %v (deadlocked kernels?)%s",
			j.cfg.MaxVirtualTime, liveStallDiagnosis(j.nodes))
	case <-cancel:
		runErr = ErrJobCanceled
	}

	// Teardown: closing the transport unwinds blocked receivers and
	// collective participants; closing the intakes unwinds the comm
	// threads. Quiesce the daemons before reading any engine state.
	_ = wire.Close() // idempotent, always nil: closing is the teardown signal itself
	for _, ns := range j.nodes {
		ns.intake.close()
	}
	if runErr != nil {
		// Timed out or canceled: kernels (and the daemons completing their
		// requests) may be blocked for good; report what is safely readable.
		return Report{Elapsed: rt.Now()}, runErr
	}
	// The daemons include the helpers they spawned — a last ack for a
	// duplicate frame that arrived after the kernels finished releases
	// pooled staging — so once they are done the pool counters are final.
	rt.daemons.Wait()

	return j.report(), nil
}

// liveStallDiagnosis summarizes, per node, what the intake layer still had
// in flight when the watchdog fired — the first thing a deadlock
// post-mortem wants to know. It reads only the intake atomics: matcher and
// collective state are comm-thread-confined and those daemons are still
// running when this is called.
func liveStallDiagnosis(nodes []*nodeState) string {
	var b strings.Builder
	for _, ns := range nodes {
		if ns == nil {
			continue
		}
		d := ns.intake.depth()
		fmt.Fprintf(&b, "; node %d: %d inflight intake events (%d local posts, %d wire posts)",
			ns.node, d, ns.intake.localPosts.Load(), ns.intake.wirePosts.Load())
	}
	return b.String()
}
