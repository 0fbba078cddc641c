package main

import (
	"fmt"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/obs"
	"dcgn/internal/obs/flow"
)

// env is what a workload is prepared from.
type env struct {
	seed  int64
	quick bool
}

// counts sums the program's own accounting (core.Report) over the jobs of
// one repetition. The program pass turns them into per-op ratios and the
// ladder multiplies them by unit costs.
type counts struct {
	jobs, devices                         int
	requests, packets                     int
	wireMsgs, netBytes                    int64 // wireMsgs: transport-level messages received
	busTransfers, busCtl, polls, pollHits int
	poolAcquires, poolReleases, poolHits  uint64
	peakPending, peakIntake               int
	spans                                 int
	traceDropped                          uint64
	phases                                map[string]time.Duration
	trace                                 []obs.Span // one job's spans, for the stitch cost cell
}

// add folds one job's report in; devices is how many simulated devices the
// job constructed.
func (c *counts) add(rep core.Report, devices int) {
	c.jobs++
	c.devices += devices
	c.requests += rep.Requests
	c.packets += rep.NetPackets
	c.netBytes += rep.NetBytes
	c.busTransfers += rep.BusTransfers
	c.busCtl += rep.BusCtlOps
	c.polls += rep.Polls
	c.pollHits += rep.PollHits
	c.poolAcquires += rep.PoolAcquires
	c.poolReleases += rep.PoolReleases
	c.poolHits += rep.PoolHits
	c.peakPending = max(c.peakPending, rep.PeakPending)
	for _, ns := range rep.Nodes {
		c.peakIntake = max(c.peakIntake, ns.PeakIntakeDepth)
		c.wireMsgs += ns.WireMessages
	}
	c.spans += len(rep.Trace) + int(rep.TraceDropped)
	c.traceDropped += rep.TraceDropped
	c.addPhases(rep.CriticalPath.Phases)
	if len(rep.Trace) > len(c.trace) {
		c.trace = rep.Trace
	}
}

// addPhases accumulates critical-path time by phase.
func (c *counts) addPhases(phases map[string]time.Duration) {
	if len(phases) == 0 {
		return
	}
	if c.phases == nil {
		c.phases = make(map[string]time.Duration, len(flow.Phases))
	}
	for p, d := range phases {
		c.phases[p] += d
	}
}

// outcome is what one repetition produced.
type outcome struct {
	// ops were attempted; failed of them failed, were refused or canceled,
	// or failed an output check; reasons says which checks, for the report.
	ops, failed int
	reasons     map[string]int
	// virtNs is the repetition's virtual time (zero on the wall clock).
	virtNs int64
	// digest folds every output of the repetition that must repeat; the
	// first and the last repetition of a run must agree on it.
	digest uint64
	counts counts
	// marks are host-clock readings at checkpoints the repetition passes,
	// as offsets from its start. The checkpoints are points of the
	// deterministic computation, so the segment between two of them is the
	// same work in every repetition of a run. A repetition without
	// checkpoints is one segment.
	marks []time.Duration
	// latMs are per-op wall latencies and lateMs the generator's lateness,
	// on the workload that paces its ops on the wall clock.
	latMs, lateMs []float64
	// own holds workload-specific metrics read from the program's reports.
	own values
	// refs lists paper_eval's reference points, each printed beside
	// model_err_pct.
	refs []refPoint
}

// poolLeak is the failure reason of a report whose staging-buffer pool did
// not get back every buffer it handed out.
const poolLeak = "PoolAcquires != PoolReleases"

// fail counts n ops as failed for the given reason.
func (o *outcome) fail(reason string, n int) {
	if n <= 0 {
		return
	}
	if o.reasons == nil {
		o.reasons = map[string]int{}
	}
	o.failed += n
	o.reasons[reason] += n
}

// count adds another outcome's ops and failures to a total.
func (o *outcome) count(other outcome) {
	o.ops += other.ops
	for reason, n := range other.reasons {
		o.fail(reason, n)
	}
}

// repFn runs one repetition of a prepared workload, construction and
// teardown included. traced switches the program's existing outputs on
// (Config.Trace, Flows, Metrics).
type repFn func(traced bool) (outcome, error)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	op   string // the unit of work that ops_per_s and the per-op metrics count
	why  string
	// mix is the op mix the ladder cells reproduce layer by layer. Its live
	// flag marks the workload on the wall-clock backend: goroutines are the
	// system under test there, so it gets GOMAXPROCS benchProcs() where the
	// simulated ones get 1; its arrival schedule, not what the program
	// costs, sets its wall time, so its waits are per op, and where host
	// cost is wanted (the ladder, the tracing overhead) it is CPU time.
	mix mix
	// prepare generates inputs and reference results from the seed.
	prepare func(e env) (repFn, error)
	// once, when set, runs once per traced run outside the repetitions
	// and returns workload-specific metrics and what it checked.
	once func(e env) (values, outcome, error)
}

// workloads in run order.
var workloads = []*workload{p2pSmall, p2pLarge, scaleSharded, paperEval, serveSim, serveLive}

// procs is the GOMAXPROCS the workload runs under.
func (w *workload) procs() int {
	if w.mix.live {
		return benchProcs()
	}
	return 1
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run is a sequence of repetitions of one kind (all untraced, or all
// traced), with the host counters read around each.
type run struct {
	secs  []float64 // wall seconds per repetition
	outs  []outcome
	host  hostDelta // summed over the repetitions
	total outcome   // ops, failed and reasons summed over the repetitions
}

// repeat runs one more repetition, in a span of its own.
func (r *run) repeat(rep repFn, traced bool, rec *recorder) error {
	name := "rep"
	if traced {
		name = "traced-rep"
	}
	defer rec.begin(fmt.Sprintf("%s#%d", name, len(r.outs)))()
	before := snapHost()
	t0 := time.Now()
	o, err := rep(traced)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	h := before.until(snapHost())
	h.wall = d
	r.host = r.host.plus(h)
	r.secs = append(r.secs, d.Seconds())
	r.outs = append(r.outs, o)
	r.total.count(o)
	return nil
}

// last returns the final repetition's outcome.
func (r *run) last() outcome { return r.outs[len(r.outs)-1] }

// repeatable reports whether the first and last repetition agree on every
// deterministic output. The live workload's times are wall-clock, so only
// its digest must repeat.
func (r *run) repeatable(w *workload) bool {
	a, b := r.outs[0], r.last()
	if a.digest != b.digest {
		return false
	}
	if w.mix.live {
		return true
	}
	for name, v := range a.own {
		if defByName(name).Clock == clockVirtual && b.own[name] != v {
			return false
		}
	}
	return a.virtNs == b.virtNs
}

// quietSecs estimates the wall time one repetition takes on a quiet
// machine. Neighbours on a shared machine only ever add time, in bursts
// that last seconds, so every segment between two checkpoints is taken at
// the fast decile of its times over the repetitions (the minimum under ten
// repetitions) and the segments are summed. Without checkpoints this is
// the fast-decile repetition. Shorter segments find more quiet moments:
// that is what checkpoints are for.
func (r *run) quietSecs() float64 {
	segs := make([][]float64, len(r.outs)) // [repetition][segment]
	for i, o := range r.outs {
		total, prev := time.Duration(r.secs[i]*float64(time.Second)), time.Duration(0)
		for _, m := range append(o.marks[:len(o.marks):len(o.marks)], total) {
			segs[i] = append(segs[i], (m - prev).Seconds())
			prev = m
		}
		if len(segs[i]) != len(segs[0]) {
			panic("benchmark: repetitions of one run passed different numbers of checkpoints")
		}
	}
	var sum float64
	for k := range segs[0] {
		times := make([]float64, len(segs))
		for i := range segs {
			times[i] = segs[i][k]
		}
		sum += fastDecile(times)
	}
	return sum
}

// waitsMs returns the wall time a submitter waited, in ms: per op on a
// paced workload, per repetition otherwise (a batch simulator's caller
// waits for the whole run).
func (r *run) waitsMs() []float64 {
	var out []float64
	for i, o := range r.outs {
		if o.latMs != nil {
			out = append(out, o.latMs...)
		} else {
			out = append(out, r.secs[i]*1e3)
		}
	}
	return out
}

// timed runs untraced repetitions for at least seconds: the run every
// end-to-end metric comes from.
func timed(w *workload, rep repFn, seconds float64, rec *recorder) (*run, error) {
	defer rec.begin("timed")()
	r := &run{}
	budget := time.Duration(seconds * float64(time.Second))
	for start := time.Now(); len(r.outs) == 0 || time.Since(start) < budget; {
		if err := r.repeat(rep, false, rec); err != nil {
			return nil, err
		}
	}
	if !r.repeatable(w) {
		r.total.fail("first and last repetition disagree on a deterministic output", 1)
	}
	return r, nil
}

// endToEnd derives the end-to-end metrics of untraced repetitions.
func endToEnd(w *workload, r *run, setup time.Duration) values {
	quiet := r.quietSecs()
	v := values{
		"setup_s":         setup.Seconds(),
		"ops_per_s":       float64(r.last().ops) / quiet,
		"allocs_per_op":   float64(r.host.mallocs) / float64(r.total.ops),
		"alloc_kb_per_op": float64(r.host.allocBytes) / 1024 / float64(r.total.ops),
		// One wait per repetition, and noise that only adds: the quiet
		// repetition time stands in for the median wait of a batch run.
		"e2e_ms_p50":     quiet * 1e3,
		"failed_frac":    float64(r.total.failed) / float64(r.total.ops),
		"virt_us_per_op": float64(r.last().virtNs) / 1e3 / float64(r.last().ops),
	}
	if w.mix.live {
		waits := r.waitsMs()
		v["e2e_ms_p50"] = median(waits)
		v["e2e_ms_p90"], _ = tail(waits, 0.90)
	}
	for name, x := range r.last().own {
		v[name] = x
	}
	for name := range v {
		if d := defByName(name); d.Kind == perLayer || !d.definedOn(w.name) {
			delete(v, name)
		}
	}
	return v
}

// defByName looks a metric definition up; an unknown name is a bug.
func defByName(name string) metricDef {
	for _, m := range metricDefs {
		if m.Name == name {
			return m
		}
	}
	panic("benchmark: metric " + name + " is not in metricDefs")
}
