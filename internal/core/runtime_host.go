package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/fabric"
	"dcgn/internal/mpi"
	"dcgn/internal/obs"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
	"dcgn/internal/transport/live"
	"dcgn/internal/transport/simmpi"
)

// Runtime hosts many concurrent DCGN jobs over one shared backend. It runs
// the same engine Job.Run does — one bring-up (Job.start over an
// engineEnv, which on the simulated backend substrate.env fills for both),
// one report — and differs only in who owns the substrate: Job.Run builds
// a whole one for its single job, a Runtime builds one and lends each
// admitted job a tenant's share of it. Jobs are submitted with
// a tenant label, weight and priority; the runtime admits them onto free
// nodes under stride-based weighted fair sharing, queues them (bounded,
// never silently dropped) when the cluster is saturated, and gives every
// admitted job fully isolated engine state: its own buffer pool, matcher,
// intake, reliability sequence space, metrics partition and Report.
//
// Isolation is by construction, not by locking: each tenant gets a
// private tag band (simulated backend) or a private channel group (live
// backend), so co-resident jobs can never match each other's traffic,
// and nodes are exclusively owned by one job at a time — tenants
// multiplex the cluster over time, not space-share a node.
//
// Every job follows one lifecycle — queued, admitted by admitLocked,
// ended by retire — whatever the backend and however it ends. What the
// two backends do differently is what their clocks force:
//
//   - Live (transport.BackendLive): the runtime is long-lived. Submit
//     admits immediately when nodes are free; each job waits on its own
//     goroutine (Job.runLive: wall-clock watchdog, teardown by closing its
//     transport group) and handles resolve as they finish. Cancel aborts
//     a running job through that same teardown.
//   - Simulated (transport.BackendSim): the runtime is batch-mode, because
//     virtual time only advances inside one Run. Submit everything first,
//     then Run executes the whole batch on a single shared simulator —
//     admission happens at t=0 and again, in virtual time, whenever a
//     finishing job frees its nodes. A job is a proc group of the shared
//     simulator (sim.Group): complete when the last of its kernels and
//     helpers returns, canceled by killing the group at an event boundary,
//     and either way every proc it started — comm threads, receivers,
//     monitors, timers, device blocks, MPI helpers — ends with it.
//     Scheduling is exactly as deterministic as a single-job run.
//
// A simulated tenant's Report is the one Job.Run returns for the same job,
// field for field, whatever its co-tenants do — lossy wire, retransmits and
// frames still in flight at its end included, and its timing noise too: the
// streams are its nodes', seeded by the job (TestSameEngineOnEveryHost,
// TestRuntimeSimLossyTenant, TestJitterIsTheJobs). A Runtime's substrate has
// one shard: tenants share its simulator, its arrival procs and its cancel
// injections.
type Runtime struct {
	cfg   RuntimeConfig
	epoch time.Time // live clock origin for JobStatus times

	mu      sync.Mutex
	nextID  int
	jobs    []*rtJob
	queue   []*rtJob
	tenants map[string]*tenantState
	// free marks the unclaimed nodes. The simulated backend needs the
	// identities (fabric distances are id-based); the live backend's nodes
	// are interchangeable goroutines and only the count matters there.
	free      []bool
	draining  bool
	closed    bool
	templates map[string]func() *Job

	obsParts *obs.Partitioned
	debug    debugServer

	// Live substrate: one shared cluster, one tenant group per job.
	cluster *live.Cluster
	wg      sync.WaitGroup

	// sub is the simulated substrate, built by Run: one simulator, fabric
	// and MPI world shared by every tenant.
	sub *substrate
	ran bool
	// simActive is true while Run is driving the simulator; it gates the
	// sim-context-only paths (admission, mid-batch Submit from an OnJobDone
	// callback, Cancel of a running simulated job).
	simActive bool
	// scheduled holds SubmitAt submissions awaiting their virtual arrival
	// time; Run hands them, in arrival order, to one arrivals proc.
	scheduled []*rtJob

	// sched is the runtime-wide scheduling registry (queue-wait and
	// end-to-end latency histograms, admission counters), aggregate and
	// per tenant. It is the "runtime" partition of obsParts, so the debug
	// endpoint serves it alongside per-job metrics, and it is never
	// dropped.
	sched *obs.Registry

	// onJobDone, when set (before Run / the first Submit), is invoked
	// without locks held each time a job reaches a terminal state; see
	// SetOnJobDone.
	onJobDone func(JobStatus)
}

// RuntimeConfig describes the shared substrate a Runtime serves jobs on.
// Submitted jobs bring their own kernels, node counts, engine tuning and
// wire conditions (Config.Params, Bus, Device, Reliability, Faults...); the
// cluster shape and wire model below are runtime-wide, and the fields of a
// submitted job's Config that shape a substrate — Net, MPI, MaxVirtualTime
// and Shards — are ignored.
type RuntimeConfig struct {
	// Nodes is the shared cluster size; a submitted job may request at
	// most this many nodes.
	Nodes int
	// Transport selects the backend every job runs on (BackendSim or
	// BackendLive); submitted jobs must match.
	Transport transport.Config
	// Net is the simulated fabric shape (BackendSim only).
	Net fabric.Config
	// MPI tunes the shared underlying MPI library (BackendSim only).
	MPI mpi.Config
	// MaxVirtualTime caps the whole simulated batch (BackendSim) or each
	// job's wall-clock watchdog (BackendLive). Defaults to the single-job
	// default.
	MaxVirtualTime time.Duration
	// MaxQueue bounds the admission queue: saturation queues submissions
	// rather than rejecting them, and only past MaxQueue pending jobs does
	// Submit fail with ErrQueueFull. Defaults to 64.
	MaxQueue int
	// DebugAddr, when set, serves the runtime control API (list, submit by
	// template, cancel, drain) and the merged per-tenant metrics snapshot
	// over HTTP; see runtime_http.go. ":0" binds a free port, readable via
	// ControlAddr.
	DebugAddr string
}

// DefaultMaxQueue is the admission-queue bound when RuntimeConfig.MaxQueue
// is zero.
const DefaultMaxQueue = 64

// validate normalizes a runtime configuration in place.
func (rc *RuntimeConfig) validate() error {
	if rc.Nodes <= 0 {
		return fmt.Errorf("dcgn: runtime needs at least one node, got %d", rc.Nodes)
	}
	switch rc.Transport.Name() {
	case transport.BackendSim, transport.BackendLive:
	default:
		return fmt.Errorf("dcgn: unknown transport backend %q", rc.Transport.Backend)
	}
	if rc.MaxQueue <= 0 {
		rc.MaxQueue = DefaultMaxQueue
	}
	if rc.MaxVirtualTime <= 0 {
		rc.MaxVirtualTime = DefaultConfig().MaxVirtualTime
	}
	if rc.Net == (fabric.Config{}) {
		rc.Net = DefaultConfig().Net
	}
	if rc.MPI == (mpi.Config{}) {
		rc.MPI = DefaultConfig().MPI
	}
	return nil
}

// SubmitOpts labels a submission for scheduling.
type SubmitOpts struct {
	// Name labels the job in List and the control API; defaults to
	// "job-<id>".
	Name string
	// Tenant groups jobs for fair sharing; all of a tenant's jobs charge
	// one stride account. Defaults to the job's name (every job its own
	// tenant).
	Tenant string
	// Weight is the tenant's fair-share weight (default 1): a
	// weight-2 tenant is admitted twice the node-time of a weight-1 tenant
	// under contention.
	Weight int
	// Priority orders admissions strictly: any queued priority-p job is
	// admitted before every job of lower priority, regardless of weights.
	Priority int
}

// JobState is the lifecycle state of a submitted job.
type JobState int

// Job lifecycle states.
const (
	// JobQueued means the job awaits free nodes in the admission queue.
	JobQueued JobState = iota
	// JobRunning means the job's kernels are executing.
	JobRunning
	// JobDone means the job completed and its Report is final.
	JobDone
	// JobFailed means the job ended with an error.
	JobFailed
	// JobCanceled means the job was canceled before or during execution.
	JobCanceled
)

// String names the state.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	}
	return fmt.Sprintf("state-%d", int(s))
}

// JobStatus is a point-in-time snapshot of one submission.
type JobStatus struct {
	// ID is the runtime-assigned job id (ids start at 1).
	ID int
	// Name and Tenant echo the submission's labels.
	Name   string
	Tenant string
	// State is the lifecycle state at snapshot time.
	State JobState
	// Nodes is the job's node count.
	Nodes int
	// Weight and Priority echo the scheduling parameters.
	Weight   int
	Priority int
	// SubmittedAt / StartedAt / FinishedAt are on the runtime clock:
	// virtual time on the simulated backend, wall time since runtime
	// creation on the live backend. Zero when not yet reached.
	SubmittedAt time.Duration
	StartedAt   time.Duration
	FinishedAt  time.Duration
}

// Runtime control errors.
var (
	// ErrJobCanceled reports a job aborted by Cancel.
	ErrJobCanceled = errors.New("dcgn: job canceled")
	// ErrQueueFull reports a Submit past the bounded admission queue.
	ErrQueueFull = errors.New("dcgn: runtime admission queue is full")
	// ErrRuntimeClosed reports a Submit to a draining or closed runtime.
	ErrRuntimeClosed = errors.New("dcgn: runtime is draining or closed")
	// ErrNoSuchJob reports a Cancel (or status lookup) for an unknown id.
	ErrNoSuchJob = errors.New("dcgn: no such job")
)

// rtJob is the runtime's bookkeeping for one submission: its status, kept
// current under r.mu, and what running it takes.
type rtJob struct {
	JobStatus
	// job is the engine; retire drops it, so a long-lived runtime retaining
	// every rtJob does not also retain every finished job's node state,
	// pools and trace rings.
	job *Job

	// notBefore is the job's virtual arrival time when it was scheduled
	// with SubmitAt; it enters the admission queue only once the clock
	// reaches it.
	notBefore time.Duration

	// placement is the nodes the job holds while running.
	placement []int
	// group holds every proc the job started on the shared simulator; the
	// simulator keeps the count whose zero is completion and the handles
	// Cancel kills.
	group *sim.Group
	// wire is the job's simulated-MPI group, retired with the job.
	wire *simmpi.Group

	partKey string

	report Report
	err    error
	done   chan struct{}

	cancelCh   chan struct{}
	cancelOnce sync.Once
}

// tenantState is one tenant's stride-scheduling account.
type tenantState struct {
	weight int
	// pass is the tenant's stride virtual time: admitting a job advances
	// it by nodes*strideScale/weight, so under contention tenants accrue
	// node-time proportionally to weight.
	pass int64
	// active counts the tenant's submissions that have not retired: queued,
	// running, or scheduled and not yet arrived.
	active int
	// queueWait and e2e are the tenant's "queue_wait_ns/tenant=<name>" and
	// "e2e_ns/tenant=<name>" histograms in the sched registry.
	queueWait, e2e *obs.Histogram
}

// strideScale keeps pass arithmetic integral.
const strideScale = 1 << 20

// JobHandle tracks one submission.
type JobHandle struct {
	r *Runtime
	j *rtJob
}

// ID returns the runtime-assigned job id.
func (h *JobHandle) ID() int { return h.j.ID }

// Wait blocks until the job reaches a terminal state and returns its
// Report. On the simulated backend jobs only execute inside Runtime.Run,
// so Wait resolves during (or after) that call.
func (h *JobHandle) Wait() (Report, error) {
	<-h.j.done
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.j.report, h.j.err
}

// Status snapshots the job's current state.
func (h *JobHandle) Status() JobStatus {
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.r.statusLocked(h.j)
}

// Cancel cancels the job; see Runtime.Cancel.
func (h *JobHandle) Cancel() error { return h.r.Cancel(h.j.ID) }

// NewRuntime builds a runtime over the given shared substrate. Live
// runtimes are ready immediately and long-lived; simulated runtimes
// collect submissions and execute them in one Run.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Runtime{
		cfg:       cfg,
		epoch:     time.Now(),
		tenants:   make(map[string]*tenantState),
		templates: make(map[string]func() *Job),
		free:      make([]bool, cfg.Nodes),
		obsParts:  obs.NewPartitioned(),
		sched:     obs.NewRegistry(),
	}
	for i := range r.free {
		r.free[i] = true
	}
	r.obsParts.Add("runtime", r.sched.Snapshot)
	if cfg.Transport.Name() == transport.BackendLive {
		r.cluster = live.New(cfg.Nodes, bufpool.New())
	}
	if err := r.debug.serve(cfg.DebugAddr, r.controlMux); err != nil {
		return nil, err
	}
	return r, nil
}

// backend names the runtime's transport backend.
func (r *Runtime) backend() string { return r.cfg.Transport.Name() }

// SetOnJobDone installs a callback invoked, without runtime locks held,
// exactly once for every accepted job, when it reaches its terminal state
// — done, failed, canceled, or shed at its virtual arrival time — on the
// goroutine that retired it. It must be set before Run (simulated) or
// before the first Submit (live). While a simulated batch is running the
// callback runs in sim context and may Submit follow-up jobs mid-batch —
// the closed-loop arrival hook; for jobs the batch left unfinished it runs
// after the simulator has stopped, when Submit is refused.
func (r *Runtime) SetOnJobDone(fn func(JobStatus)) { r.onJobDone = fn }

// SchedSnapshot copies the runtime-wide scheduling registry: queue_wait_ns
// and e2e_ns histograms (aggregate and per "tenant=<name>" suffix) plus
// jobs_{submitted,done,failed,canceled,rejected} counters. Unlike per-job
// metrics partitions it is never dropped, so it is readable after Run.
func (r *Runtime) SchedSnapshot() obs.Snapshot { return r.sched.Snapshot() }

// schedEnqueuedLocked records a submission entering the admission queue.
func (r *Runtime) schedEnqueuedLocked(c *rtJob) {
	r.sched.Counter("jobs_submitted").Add(1)
	r.sched.Gauge("queue_depth_peak").SetMax(int64(len(r.queue)))
}

// schedAdmittedLocked records a job's admission queue wait.
func (r *Runtime) schedAdmittedLocked(c *rtJob) {
	w := int64(c.StartedAt - c.SubmittedAt)
	r.sched.Histogram("queue_wait_ns").Observe(w)
	r.tenants[c.Tenant].queueWait.Observe(w)
}

// schedFinishedLocked records a job's terminal state: the per-outcome
// counter, and for completed jobs the end-to-end (submit → finish)
// latency.
func (r *Runtime) schedFinishedLocked(c *rtJob) {
	switch {
	case c.State == JobDone:
		r.sched.Counter("jobs_done").Add(1)
		e := int64(c.FinishedAt - c.SubmittedAt)
		r.sched.Histogram("e2e_ns").Observe(e)
		r.tenants[c.Tenant].e2e.Observe(e)
	case c.State == JobCanceled:
		r.sched.Counter("jobs_canceled").Add(1)
	case errors.Is(c.err, ErrQueueFull):
		r.sched.Counter("jobs_rejected").Add(1)
	default:
		r.sched.Counter("jobs_failed").Add(1)
	}
}

// now returns the runtime clock: virtual time on the simulated backend
// (zero before Run), wall time since creation on the live backend.
func (r *Runtime) now() time.Duration {
	if r.backend() == transport.BackendSim {
		if r.sub == nil {
			return 0
		}
		return r.sub.loop.Now()
	}
	return time.Since(r.epoch)
}

// Submit enqueues a configured job (kernels installed, Config describing
// its node count and engine tuning) for admission. It returns a handle
// immediately: on the live backend the job starts as soon as nodes are
// free, on the simulated backend it runs inside Runtime.Run. When the
// cluster is saturated the job queues; only past MaxQueue pending jobs
// does Submit fail with ErrQueueFull.
//
// The job's Config.Transport must match the runtime's backend and its node
// count must fit the cluster. Beyond that a Runtime takes every job Job.Run
// does, as it is — fault injection, Reliability, jitter, one-sided and GPU
// traffic, Shards set (the substrate is the runtime's, so it is ignored) —
// except one with a per-job DebugAddr: the runtime owns the endpoint.
func (r *Runtime) Submit(job *Job, opts SubmitOpts) (*JobHandle, error) {
	if job == nil {
		return nil, fmt.Errorf("dcgn: Submit needs a job")
	}
	if err := r.checkSubmittable(job); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.draining {
		return nil, ErrRuntimeClosed
	}
	if r.backend() == transport.BackendSim && r.ran && !r.simActive {
		// Mid-batch submission is allowed only while the simulator is live
		// (sim context: an OnJobDone callback); after the batch, nothing
		// could ever execute the job.
		return nil, fmt.Errorf("dcgn: simulated runtime is batch-mode: submit before Run")
	}
	if len(r.queue) >= r.cfg.MaxQueue {
		r.sched.Counter("jobs_rejected").Add(1)
		return nil, ErrQueueFull
	}
	c := r.newJobLocked(job, opts, r.now())
	r.queue = append(r.queue, c)
	r.schedEnqueuedLocked(c)
	r.admitLocked()
	return &JobHandle{r: r, j: c}, nil
}

// SubmitAt schedules a job to arrive at virtual time `at` (simulated
// backend, before Run): the job joins the admission queue only once the
// batch clock reaches the arrival time, where the usual MaxQueue bound
// applies — an arrival into a full queue is shed and its handle resolves
// with ErrQueueFull. This is the open-loop traffic entry point: a load
// generator pre-computes a seeded arrival schedule, and the batch then
// replays it deterministically. Arrivals keep the simulation alive until
// they fire, so gaps in the schedule cannot end the batch early.
func (r *Runtime) SubmitAt(job *Job, opts SubmitOpts, at time.Duration) (*JobHandle, error) {
	if job == nil {
		return nil, fmt.Errorf("dcgn: SubmitAt needs a job")
	}
	if r.backend() != transport.BackendSim {
		return nil, fmt.Errorf("dcgn: SubmitAt is virtual-time scheduling; the live backend paces submissions on the wall clock")
	}
	if at < 0 {
		at = 0
	}
	if err := r.checkSubmittable(job); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.draining {
		return nil, ErrRuntimeClosed
	}
	if r.ran {
		return nil, fmt.Errorf("dcgn: simulated runtime is batch-mode: schedule arrivals before Run")
	}
	c := r.newJobLocked(job, opts, at)
	c.notBefore = at
	r.scheduled = append(r.scheduled, c)
	return &JobHandle{r: r, j: c}, nil
}

// newJobLocked registers a submission: the next id (ids start at 1: tenant
// 0 is the single-job compatibility band), defaulted labels, its tenant's
// stride account, and a place in List.
func (r *Runtime) newJobLocked(job *Job, opts SubmitOpts, submittedAt time.Duration) *rtJob {
	r.nextID++
	c := &rtJob{
		JobStatus: JobStatus{ID: r.nextID, Name: opts.Name, Tenant: opts.Tenant, State: JobQueued, Nodes: job.cfg.Nodes,
			Weight: opts.Weight, Priority: opts.Priority, SubmittedAt: submittedAt},
		job:      job,
		done:     make(chan struct{}),
		cancelCh: make(chan struct{}),
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("job-%d", c.ID)
	}
	if c.Tenant == "" {
		c.Tenant = c.Name
	}
	if c.Weight <= 0 {
		c.Weight = 1
	}
	r.ensureTenantLocked(c.Tenant, c.Weight)
	r.tenants[c.Tenant].active++
	r.jobs = append(r.jobs, c)
	return c
}

// arriveSimJob moves a scheduled job into the admission queue at its
// virtual arrival time (sim context, from its arrival proc). A full queue
// sheds the arrival with ErrQueueFull.
func (r *Runtime) arriveSimJob(c *rtJob, now time.Duration) {
	r.mu.Lock()
	if c.State != JobQueued {
		// Canceled (or otherwise resolved) before it arrived.
		r.mu.Unlock()
		return
	}
	c.SubmittedAt = now
	r.ensureTenantLocked(c.Tenant, c.Weight)
	if len(r.queue) >= r.cfg.MaxQueue {
		r.retire(c, JobFailed, Report{}, ErrQueueFull)
		return
	}
	r.queue = append(r.queue, c)
	r.schedEnqueuedLocked(c)
	r.admitLocked()
	r.mu.Unlock()
}

// checkSubmittable validates a job against the runtime's substrate: what
// any run of it needs (Job.checkRunnable), then what sharing a substrate
// adds.
func (r *Runtime) checkSubmittable(job *Job) error {
	if err := job.checkRunnable(); err != nil {
		return err
	}
	cfg := job.Config()
	if cfg.Transport.Name() != r.backend() {
		return fmt.Errorf("dcgn: job backend %q does not match runtime backend %q", cfg.Transport.Name(), r.backend())
	}
	if cfg.Nodes > r.cfg.Nodes {
		return fmt.Errorf("dcgn: job wants %d nodes, runtime has %d", cfg.Nodes, r.cfg.Nodes)
	}
	if cfg.DebugAddr != "" {
		return fmt.Errorf("dcgn: the runtime owns the debug endpoint; clear the job's DebugAddr")
	}
	counted := 0
	if job.cpuKernel != nil {
		for n := 0; n < job.rmap.Nodes(); n++ {
			counted += job.rmap.Spec(n).CPUKernels
		}
	}
	if job.gpuKernel != nil {
		for n := 0; n < job.rmap.Nodes(); n++ {
			counted += job.rmap.Spec(n).GPUs
		}
	}
	if counted == 0 {
		return fmt.Errorf("dcgn: job spawns no kernel threads (its completion would be undetectable)")
	}
	return nil
}

// ensureTenantLocked creates or refreshes a tenant's stride account. A
// tenant (re)entering the queue is advanced to the active minimum pass,
// so idle time never banks into a later burst advantage.
func (r *Runtime) ensureTenantLocked(name string, weight int) {
	t := r.tenants[name]
	if t == nil {
		t = &tenantState{
			weight:    weight,
			pass:      r.minActivePassLocked(),
			queueWait: r.sched.Histogram("queue_wait_ns/tenant=" + name),
			e2e:       r.sched.Histogram("e2e_ns/tenant=" + name),
		}
		r.tenants[name] = t
		return
	}
	if weight > 0 {
		t.weight = weight
	}
	if t.active == 0 {
		if min := r.minActivePassLocked(); min > t.pass {
			t.pass = min
		}
	}
}

// minActivePassLocked is the stride scheduler's global virtual time: the
// minimum pass among tenants with pending or running work (falling back
// to the overall maximum, keeping pass monotone for fresh tenants).
func (r *Runtime) minActivePassLocked() int64 {
	min, have := int64(0), false
	for _, t := range r.tenants {
		if t.active == 0 {
			continue
		}
		if !have || t.pass < min {
			min, have = t.pass, true
		}
	}
	if have {
		return min
	}
	var max int64
	for _, t := range r.tenants {
		if t.pass > max {
			max = t.pass
		}
	}
	return max
}

// pickLocked selects the next queued job: strictly by priority, then by
// lowest tenant pass (weighted fair share), then FIFO. The caller admits
// it only if it fits — no backfill behind a blocked head, so a large job
// cannot be starved by a stream of small ones.
func (r *Runtime) pickLocked() *rtJob {
	var best *rtJob
	var bestPass int64
	for _, c := range r.queue {
		p := r.tenants[c.Tenant].pass
		if best == nil ||
			c.Priority > best.Priority ||
			(c.Priority == best.Priority && (p < bestPass || (p == bestPass && c.ID < best.ID))) {
			best, bestPass = c, p
		}
	}
	return best
}

// dequeueLocked removes a job from the admission queue.
func (r *Runtime) dequeueLocked(c *rtJob) {
	for i, q := range r.queue {
		if q == c {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return
		}
	}
}

// chargeTenantLocked advances the admitted job's tenant pass by its
// node-time claim.
func (r *Runtime) chargeTenantLocked(c *rtJob) {
	t := r.tenants[c.Tenant]
	t.pass += int64(c.Nodes) * strideScale / int64(t.weight)
}

// statusLocked snapshots one job.
func (r *Runtime) statusLocked(c *rtJob) JobStatus { return c.JobStatus }

// MatchQueues returns how many receives wait posted on the simulated
// substrate's MPI ranks, and how many arrived messages wait there
// unmatched: what a retired tenant must not leave behind (mpi.Comm.Retire,
// its receivers' sim.Dropper). Zero on the live backend. Sim context only —
// an OnJobDone callback — or after Run.
func (r *Runtime) MatchQueues() (posted, unexpected int) {
	if r.sub == nil {
		return 0, 0
	}
	for i := 0; i < r.sub.world.Size(); i++ {
		rank := r.sub.world.Rank(i)
		posted += rank.Posted()
		unexpected += rank.Unexpected()
	}
	return posted, unexpected
}

// List snapshots every submission, in submit order.
func (r *Runtime) List() []JobStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobStatus, 0, len(r.jobs))
	for _, c := range r.jobs {
		out = append(out, r.statusLocked(c))
	}
	return out
}

// Cancel cancels a job. A queued job is removed from the admission queue
// immediately; a running live job has its transport group closed, which
// unwinds its engine (its handle resolves with ErrJobCanceled and a
// partial Report). A running simulated job is torn down at the next
// virtual-time event boundary: the cancel is injected into the scheduler,
// which kills the job's proc group — kernels, helpers, daemons, device
// blocks, all of it — frees its nodes and resolves the handle with
// ErrJobCanceled and a partial Report. Co-tenant determinism is preserved
// because the teardown happens between events on the shared clock.
// Canceling an unknown id fails with ErrNoSuchJob.
func (r *Runtime) Cancel(id int) error {
	r.mu.Lock()
	var c *rtJob
	for _, q := range r.jobs {
		if q.ID == id {
			c = q
			break
		}
	}
	if c == nil {
		r.mu.Unlock()
		return fmt.Errorf("dcgn: job %d: %w", id, ErrNoSuchJob)
	}
	switch c.State {
	case JobQueued:
		r.retire(c, JobCanceled, Report{}, ErrJobCanceled)
		return nil
	case JobRunning:
		sub := r.sub
		r.mu.Unlock()
		if r.backend() == transport.BackendLive {
			c.cancelOnce.Do(func() { close(c.cancelCh) })
		} else if !sub.loop.Shard(0).Sim().Inject(func() { r.cancelSimJobNow(c) }) {
			return fmt.Errorf("dcgn: job %d is running but the batch has ended", id)
		}
		return nil
	default:
		r.mu.Unlock()
		return fmt.Errorf("dcgn: job %d already %s", id, c.State)
	}
}

// cancelSimJobNow tears down a running simulated job. It executes in
// scheduler context (via sim.Inject) at an event boundary, where no proc
// is mid-step: the job's proc group is killed (defers release staging
// state, posted receives and fabric NICs; pending timers for dead procs
// become no-ops), the partial Report is assembled exactly like a
// completion, and the freed nodes admit successors at the current virtual
// time.
func (r *Runtime) cancelSimJobNow(c *rtJob) {
	if c.job == nil {
		// Completed (or already canceled) before the injection ran: retire,
		// which drops a running job's engine, runs in sim context like this.
		return
	}
	c.group.Kill()
	rep := c.job.report()
	c.job.releaseEngines()
	r.mu.Lock()
	r.retire(c, JobCanceled, rep, ErrJobCanceled)
}

// retire is the one terminal transition: every way a job can end — done,
// failed, canceled while queued or running, shed at its arrival, left
// unfinished by the batch — ends here, so none can skip a step. Called
// with r.mu held and returns with it released, because its last step,
// OnJobDone, must run without it: the callback may Submit.
//
// In order: leave the tenant's active count; record the outcome; count it;
// drop the job's metrics partition and the engine itself (the Report owns
// the spans now, so this frees the preallocated trace rings with it: a
// simulated job's procs, the only other references, are dead or about to
// be killed with its group, and a canceled live job's goroutines still
// unwinding reach the engine through their own references, never through
// c); leave the queue; retire a simulated job's MPI group, so nothing it
// left in flight reaches its nodes' next job; free the nodes; admit
// successors; resolve the handle; notify.
func (r *Runtime) retire(c *rtJob, state JobState, rep Report, err error) {
	r.tenants[c.Tenant].active--
	c.State, c.report, c.err = state, rep, err
	c.FinishedAt = r.now()
	r.schedFinishedLocked(c)
	if c.partKey != "" {
		r.obsParts.Drop(c.partKey)
	}
	c.job = nil
	r.dequeueLocked(c)
	if c.wire != nil {
		// What the job left in flight must not reach its nodes' next job.
		c.wire.Retire(r.sched.Counter("late_frames_dropped"))
		c.wire = nil
	}
	for _, n := range c.placement {
		r.free[n] = true
	}
	// Freed nodes — or a canceled head of line — may let queued work in. A
	// simulated admission spawns procs, so it may only happen in sim
	// context: where a job that held nodes ends, never on a foreign
	// goroutine's Cancel of a queued one.
	if c.placement != nil || r.backend() == transport.BackendLive {
		r.admitLocked()
	}
	c.placement = nil
	st := r.statusLocked(c)
	r.mu.Unlock()
	close(c.done)
	if r.onJobDone != nil {
		r.onJobDone(st)
	}
}

// Drain stops admitting new submissions and blocks until every accepted
// job reaches a terminal state. On the simulated backend that requires
// Run to execute the batch (call Drain after, or concurrently with, Run).
func (r *Runtime) Drain() {
	r.mu.Lock()
	r.draining = true
	jobs := append([]*rtJob(nil), r.jobs...)
	r.mu.Unlock()
	for _, c := range jobs {
		<-c.done
	}
}

// Close drains the runtime and tears down its substrate: the shared live
// cluster and the control endpoint. The runtime is unusable afterwards.
func (r *Runtime) Close() error {
	r.Drain()
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.wg.Wait()
	if r.cluster != nil {
		r.cluster.Close()
	}
	r.debug.stop()
	return nil
}

// --- Admission -------------------------------------------------------------

// admitLocked starts every queued job that fits, best candidate first, on
// the lowest-numbered free nodes. On the live backend it runs on Submit
// and whenever a job retires; on the simulated one at t=0 and, in virtual
// time, from arrivals and retiring jobs — never outside a running batch,
// where there is no simulator to spawn on.
func (r *Runtime) admitLocked() {
	if r.backend() == transport.BackendSim && !r.simActive {
		return
	}
	for {
		c := r.pickLocked()
		if c == nil {
			return
		}
		free := 0
		for _, f := range r.free {
			if f {
				free++
			}
		}
		if c.Nodes > free {
			return
		}
		r.dequeueLocked(c)
		r.chargeTenantLocked(c)
		c.placement = make([]int, 0, c.Nodes)
		for n := 0; len(c.placement) < c.Nodes; n++ {
			if r.free[n] {
				r.free[n] = false
				c.placement = append(c.placement, n)
			}
		}
		c.State = JobRunning
		c.StartedAt = r.now()
		r.schedAdmittedLocked(c)
		// The job's metrics are a tenant partition of the runtime's debug
		// view, dropped again after the final Report snapshot.
		c.job.setupObs()
		if m := c.job.metrics; m != nil {
			c.partKey = fmt.Sprintf("%s/job-%d", c.Tenant, c.ID)
			r.obsParts.Add(c.partKey, m.snapshot)
		}
		// The placement step is all the backends differ in.
		if r.backend() == transport.BackendLive {
			r.wg.Add(1)
			go r.runLiveJob(c)
		} else {
			r.startSimJobLocked(c)
		}
	}
}

// runLiveJob executes one admitted job over a fresh tenant group of the
// shared cluster, on its own goroutine.
func (r *Runtime) runLiveJob(c *rtJob) {
	defer r.wg.Done()
	state, rep := JobFailed, Report{}
	pool := bufpool.New()
	g, err := r.cluster.Join(c.ID, c.Nodes, pool)
	if err == nil {
		rep, err = c.job.runLive(liveEndpoints(c.Nodes, g.Endpoint), pool, g, c.cancelCh)
	}
	switch {
	case err == nil:
		state = JobDone
	case errors.Is(err, ErrJobCanceled):
		state = JobCanceled
	}
	r.mu.Lock()
	r.retire(c, state, rep, err)
}

// --- Simulated batch execution -------------------------------------------

// Run executes the whole submitted batch on the simulated backend: it
// builds the shared substrate (one simulator, fabric and MPI world),
// admits at t=0, and lets finishing jobs admit their successors in
// virtual time. It returns when every admitted job has finished (or the
// runtime-wide MaxVirtualTime cap fires). Live runtimes have no Run —
// submissions execute as they are admitted.
func (r *Runtime) Run() error {
	r.mu.Lock()
	if r.backend() != transport.BackendSim {
		r.mu.Unlock()
		return fmt.Errorf("dcgn: Run is the simulated batch executor; live runtimes run jobs on Submit")
	}
	if r.ran {
		r.mu.Unlock()
		return fmt.Errorf("dcgn: runtime batch already ran")
	}
	r.ran = true
	r.sub = newSubstrate(r.cfg.Nodes, r.cfg.Net, r.cfg.MPI, 1, r.cfg.MaxVirtualTime)
	// One arrivals proc walks the SubmitAt schedule in arrival order,
	// schedule order breaking ties. It is non-daemon, so the batch stays
	// alive through gaps in the schedule, and it sleeps before every
	// arrival — zero between simultaneous ones, a yield — so whatever the
	// previous arrival admitted runs first, as if each had its own proc.
	if sched := r.scheduled; len(sched) > 0 {
		sort.SliceStable(sched, func(a, b int) bool { return sched[a].notBefore < sched[b].notBefore })
		r.sub.loop.Shard(0).Sim().Spawn("arrivals", func(p *sim.Proc) {
			for _, c := range sched {
				p.Sleep(c.notBefore - p.Now())
				r.arriveSimJob(c, p.Now())
			}
		})
	}
	r.simActive = true
	r.admitLocked()
	r.mu.Unlock()

	err := r.sub.loop.Run()

	// Anything not terminal after the simulator drained hit the virtual
	// time cap (or could never be admitted); retire it so Wait and Drain
	// cannot hang. Nothing joins r.jobs any more: Submit refuses once the
	// batch has run.
	r.mu.Lock()
	r.simActive = false
	jobs := r.jobs
	r.mu.Unlock()
	for _, c := range jobs {
		r.mu.Lock()
		if c.State != JobQueued && c.State != JobRunning {
			r.mu.Unlock()
			continue
		}
		cerr := fmt.Errorf("dcgn: batch ended before job %d finished", c.ID)
		if err != nil {
			cerr = fmt.Errorf("dcgn: batch ended before job %d finished: %w", c.ID, err)
		}
		var rep Report
		if c.State == JobRunning {
			rep = c.job.report() // cut short: what Job.Run returns beside its timeout
		}
		r.retire(c, JobFailed, rep, cerr)
	}
	return err
}

// startSimJobLocked brings one admitted job's engine up on its share of
// the substrate: a private buffer pool retargeted under its world ranks, a
// tenant transport group in its own tag band over its placement, a meter
// over its nodes' fabric counters, and — around the bring-up, so that every
// proc it spawns and every proc those spawn is a member — a proc group
// whose going idle is the job's completion.
func (r *Runtime) startSimJobLocked(c *rtJob) {
	pool := bufpool.New()
	// Exclusive node ownership makes the pool retarget safe: the previous
	// tenant of these ranks has quiesced (its group went idle or was
	// killed), so no staging acquired from the old pool is still in flight.
	for _, w := range c.placement {
		r.sub.world.SetRankPool(w, pool)
	}
	s := r.sub.loop.Shard(0).Sim()
	// Completion happens in virtual time, on the proc whose return emptied
	// the group: the Report is final (the engine is quiescent — every kernel
	// and helper has returned and the event loop is single-threaded), the
	// nodes free up and successors are admitted, all at that instant. What
	// is left of the job — parked daemons, monitors still polling — is
	// killed at the next event boundary, which is as soon as a proc can ask:
	// Kill needs the scheduler's context. Only then, with nothing of the job
	// left to run on them, do its node engines go back for later tenants.
	c.group = s.NewGroup(func() {
		job := c.job
		rep := job.report()
		r.mu.Lock()
		r.retire(c, JobDone, rep, nil)
		s.Inject(func() {
			c.group.Kill()
			job.releaseEngines()
		})
	})
	c.wire = simmpi.NewGroup(r.sub.world, c.placement, c.ID)
	s.InGroup(c.group, func() {
		c.job.start(r.sub.env(c.wire, c.placement, pool, c.StartedAt))
	})
}
