package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/loadgen"
	"dcgn/internal/obs"
	"dcgn/internal/obs/flow"
	"dcgn/internal/transport"
)

// serve_sim and serve_live: seeded open-loop Poisson traffic of loadgen's
// scatter/gather serving jobs onto a multi-tenant core.Runtime. Both
// drive the Runtime with its public API and keep every job's core.Report,
// so that pools and counts can be checked per job: serve_sim schedules the
// whole trace with SubmitAt (as loadgen.Run's sim path does) and replays
// it in virtual time; serve_live paces the same kind of trace on the wall
// clock with Submit, and times each job from the moment it was due.

const (
	serveNodes = 8
	// serveSLO is the knee search's latency limit on p99.
	serveSLO = 2 * time.Millisecond
	// serveLiveRate is serve_live's offered rate in jobs per second, and
	// serveLiveWindow how long one repetition offers traffic for.
	serveLiveRate   = 300
	serveLiveWindow = time.Second
	// serveDrainSlack is how long past the offered window a batch may take
	// to drain before the runtime gives up (as loadgen allows).
	serveDrainSlack = 30 * time.Second
	// serveShapeSeed fixes the multiset of job shapes; see serveTrace.
	serveShapeSeed = 1
)

var serveSim = &workload{
	name: "serve_sim",
	op:   "one job completed",
	why:  "5000 jobs/s of chat traffic in virtual time: admission, stride scheduling and per-job world build, with exactly repeatable tails",
	mix:  mix{sizes: []int{512}, nodes: serveNodes, procs: 64, serving: true},
	prepare: func(e env) (repFn, error) {
		tr, err := serveTrace(serveSimSpec(e, 500*time.Millisecond), e.seed)
		if err != nil {
			return nil, err
		}
		return func(traced bool) (outcome, error) {
			jobs, marks, sched, err := serveBatch(tr, traced)
			if err != nil {
				return outcome{}, err
			}
			o := serveOutcome(jobs, sched, traced, true)
			o.marks = marks
			e2e := sched.Histograms["e2e_ns"]
			o.own["virt_e2e_ms_p50"] = e2e.QuantileF(0.50) / 1e6
			o.own["virt_e2e_ms_p99"] = e2e.QuantileF(0.99) / 1e6
			return o, nil
		}, nil
	},
	once: func(e env) (values, outcome, error) {
		// The knee: the highest rate whose p99 stays within the SLO with
		// nothing shed, on a 1 s window. FindMaxRate generates its own
		// arrivals for every rate it probes, from the seed.
		spec := serveSimSpec(e, time.Second)
		res, err := loadgen.FindMaxRate(spec, serveSLO)
		if err != nil {
			return nil, outcome{}, err
		}
		spec.Rate = res.MaxRatePerSec
		at, err := loadgen.Run(spec)
		if err != nil {
			return nil, outcome{}, err
		}
		checked := outcome{ops: at.Offered}
		checked.fail("a job at the knee rate was shed, failed or was canceled", at.Rejected+at.Failed+at.Canceled)
		if at.Aggregate.E2E.P99Ns > float64(serveSLO.Nanoseconds()) {
			checked.fail("p99 at the knee rate misses the SLO", 1)
		}
		return values{"knee_jobs_per_s": res.MaxRatePerSec}, checked, nil
	},
}

func serveSimSpec(e env, window time.Duration) loadgen.Spec {
	spec := loadgen.Spec{
		Backend: transport.BackendSim, Seed: e.seed, Rate: 5000, Duration: window,
		Arrival: loadgen.ArrivalPoisson, Preset: "chat", Nodes: serveNodes,
	}
	if e.quick {
		spec.Rate, spec.Duration = 2000, window/20
	}
	return spec
}

var serveLive = &workload{
	name: "serve_live",
	op:   "one job completed",
	why:  "300 jobs/s paced on the wall clock onto the live goroutine transport: the only workload where sim does no work",
	mix:  mix{sizes: []int{512, 16384}, nodes: serveNodes, serving: true, live: true},
	prepare: func(e env) (repFn, error) {
		// The mixed preset's two classes, with no modelled service time:
		// what is left is the live path's own cost.
		classes, err := loadgen.Presets("mixed")
		if err != nil {
			return nil, err
		}
		for i := range classes {
			classes[i].Service = loadgen.Const(0)
		}
		window := serveLiveWindow
		if e.quick {
			window /= 8
		}
		tr, err := serveTrace(loadgen.Spec{
			Backend: transport.BackendLive, Rate: serveLiveRate, Duration: window,
			Arrival: loadgen.ArrivalPoisson, Classes: classes, Nodes: serveNodes,
		}, e.seed)
		if err != nil {
			return nil, err
		}
		// Nothing is shed: when the machine stalls for longer than the
		// default queue of 64 jobs absorbs (0.2 s at this rate), the jobs
		// wait, and the stall shows as latency instead of as failed ops.
		tr.MaxQueue = len(tr.Arrivals)
		return func(traced bool) (outcome, error) { return serveWindow(tr, traced) }, nil
	},
}

// serveTrace makes a serve workload's offered trace. The arrival times are
// the seed's Poisson process and the order of the jobs is the seed's, but
// the multiset of job shapes (class, fan-out, size, rounds, service time)
// is the one serveShapeSeed draws, and the seed's process is stretched so
// that exactly that many arrivals fall in the window. The work per
// repetition is then the same for every seed, so that the metrics of runs
// with different seeds compare; what the seed varies is what a serving
// system must not depend on.
func serveTrace(spec loadgen.Spec, seed int64) (*loadgen.Trace, error) {
	spec.Seed = serveShapeSeed
	shapes, err := loadgen.RecordTrace(spec)
	if err != nil {
		return nil, err
	}
	n := len(shapes.Arrivals)
	long := spec
	long.Seed, long.Duration = seed, 2*spec.Duration
	tr, err := loadgen.RecordTrace(long)
	if err != nil {
		return nil, err
	}
	if len(tr.Arrivals) <= n {
		return nil, fmt.Errorf("serve trace: seed %d drew %d arrivals in twice the window, need more than %d", seed, len(tr.Arrivals), n)
	}
	// Stretch time so that arrival n, the first one left out, falls on the
	// window's end.
	stretch := float64(spec.Duration.Nanoseconds()) / float64(tr.Arrivals[n].AtNs)
	order := rand.New(rand.NewSource(seed)).Perm(n)
	for i := 0; i < n; i++ {
		at := int64(float64(tr.Arrivals[i].AtNs) * stretch)
		tr.Arrivals[i] = shapes.Arrivals[order[i]]
		tr.Arrivals[i].AtNs = at
	}
	tr.Arrivals, tr.DurationNs = tr.Arrivals[:n], spec.Duration.Nanoseconds()
	return tr, nil
}

// served is one offered job and what became of it.
type served struct {
	handle *core.JobHandle // nil when Submit refused the job
	report core.Report
	err    error
	// latMs is due time to Wait's return and lateMs how far behind its due
	// time the generator submitted (wall-clock backend only).
	latMs, lateMs float64
}

func serveRuntime(tr *loadgen.Trace, backend string) (*core.Runtime, error) {
	return core.NewRuntime(core.RuntimeConfig{
		Nodes:          tr.Nodes,
		Transport:      transport.Config{Backend: backend},
		MaxQueue:       tr.MaxQueue,
		MaxVirtualTime: time.Duration(tr.DurationNs) + serveDrainSlack,
	})
}

func serveOpts(a loadgen.Arrival) core.SubmitOpts {
	return core.SubmitOpts{Tenant: a.Class, Weight: a.Weight}
}

// serveSimMarkEvery is how many job completions lie between two
// checkpoints of a serve_sim repetition.
const serveSimMarkEvery = 128

// serveBatch replays the trace on a simulated runtime in virtual time. It
// reads the host clock at every serveSimMarkEvery-th job completion: the
// batch is deterministic, so those are checkpoints.
func serveBatch(tr *loadgen.Trace, flows bool) ([]served, []time.Duration, obs.Snapshot, error) {
	start := time.Now()
	rt, err := serveRuntime(tr, transport.BackendSim)
	if err != nil {
		return nil, nil, obs.Snapshot{}, err
	}
	defer rt.Close()
	var marks []time.Duration
	finished := 0
	rt.SetOnJobDone(func(core.JobStatus) { // runs in sim context, one job at a time
		if finished++; finished%serveSimMarkEvery == 0 {
			marks = append(marks, time.Since(start))
		}
	})
	jobs := make([]served, len(tr.Arrivals))
	for i, a := range tr.Arrivals {
		h, err := rt.SubmitAt(loadgen.BuildJob(transport.BackendSim, a, flows), serveOpts(a), a.At())
		if err != nil {
			return nil, nil, obs.Snapshot{}, fmt.Errorf("serve_sim: %w", err)
		}
		jobs[i].handle = h
	}
	if err := rt.Run(); err != nil {
		return nil, nil, obs.Snapshot{}, fmt.Errorf("serve_sim: batch did not drain: %w", err)
	}
	for i := range jobs {
		jobs[i].report, jobs[i].err = jobs[i].handle.Wait()
	}
	return jobs, marks, rt.SchedSnapshot(), nil
}

// serveWindow offers the trace to a live runtime, every job at its due
// time, and waits for every job. The window lasts its full length
// whenever the last arrival fell.
func serveWindow(tr *loadgen.Trace, flows bool) (outcome, error) {
	rt, err := serveRuntime(tr, transport.BackendLive)
	if err != nil {
		return outcome{}, err
	}
	defer rt.Close()
	jobs := make([]served, len(tr.Arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range tr.Arrivals {
		due := start.Add(a.At())
		time.Sleep(time.Until(due))
		j := &jobs[i]
		j.lateMs = float64(time.Since(due).Nanoseconds()) / 1e6
		h, err := rt.Submit(loadgen.BuildJob(transport.BackendLive, a, flows), serveOpts(a))
		if err != nil {
			j.err = err // refused: counted as failed
			continue
		}
		j.handle = h
		wg.Add(1)
		go func() { // one waiter per job in flight: a handful at this rate
			defer wg.Done()
			j.report, j.err = h.Wait()
			j.latMs = float64(time.Since(due).Nanoseconds()) / 1e6
		}()
	}
	time.Sleep(time.Until(start.Add(time.Duration(tr.DurationNs))))
	wg.Wait()
	o := serveOutcome(jobs, rt.SchedSnapshot(), flows, false)
	for _, j := range jobs {
		if j.err == nil {
			o.latMs = append(o.latMs, j.latMs)
		}
		o.lateMs = append(o.lateMs, j.lateMs)
	}
	return o, nil
}

// serveOutcome checks and summarizes one batch or window. sched is the
// runtime's own scheduling registry, whose outcome counters must account
// for every offered job. On the virtual clock every job's timestamps must
// repeat, so they go into the digest and the last finish is the batch's
// virtual time.
func serveOutcome(jobs []served, sched obs.Snapshot, flows, virtual bool) outcome {
	o := outcome{ops: len(jobs), digest: fnvOffset, own: values{}}
	var match obs.HistogramSnapshot
	errs, rejected, schedWait := 0, 0, time.Duration(0)
	for _, j := range jobs {
		if j.err != nil {
			errs++
			if errors.Is(j.err, core.ErrQueueFull) {
				rejected++
			}
			continue
		}
		if j.report.PoolAcquires != j.report.PoolReleases {
			o.fail(poolLeak, 1)
		}
		o.counts.add(j.report, 0)
		st := j.handle.Status()
		schedWait += st.StartedAt - st.SubmittedAt
		for name, h := range j.report.Histograms {
			if strings.HasPrefix(name, "match_wait_ns") {
				match = match.Merge(h)
			}
		}
		if virtual {
			for _, t := range []time.Duration{st.SubmittedAt, st.StartedAt, st.FinishedAt} {
				o.digest = (o.digest ^ uint64(t)) * fnvPrime
			}
			o.virtNs = max(o.virtNs, st.FinishedAt.Nanoseconds())
		}
	}
	o.fail("a job was refused by a full admission queue", rejected)
	o.fail("a job failed or was canceled", errs-rejected)
	c := sched.Counters
	if int(c["jobs_done"]+c["jobs_rejected"]+c["jobs_failed"]+c["jobs_canceled"]) != len(jobs) ||
		int(c["jobs_done"]) != len(jobs)-errs {
		o.fail("offered != completed + rejected + failed + canceled by the runtime's counters", 1)
	}
	if flows {
		o.counts.addPhases(map[string]time.Duration{flow.PhaseSchedWait: schedWait})
	}
	o.own["runtime.queue_wait_ms_p99"] = sched.Histograms["queue_wait_ns"].QuantileF(0.99) / 1e6
	o.own["runtime.e2e_ms_p99"] = sched.Histograms["e2e_ns"].QuantileF(0.99) / 1e6
	o.own["runtime.match_wait_ms_p99"] = match.QuantileF(0.99) / 1e6
	o.own["runtime.rejected_frac"] = float64(rejected) / float64(max(len(jobs), 1))
	return o
}
