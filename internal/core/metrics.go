package core

import (
	"time"

	"dcgn/internal/obs"
)

// matchKey identifies one match-wait histogram: the op, the source class
// and the log2 payload size class. A struct key means steady-state metric
// observation allocates nothing — the instrument handle is cached after
// the first observation of each combination.
type matchKey struct {
	op   opKind
	gpu  bool
	size uint8
}

// nodeMetrics is one node's cached handles into the job-wide metrics
// registry (Config.Metrics). Instruments are shared across nodes — the
// registry aggregates job-wide — but the lookup caches here are per node
// and comm-thread-confined (maps are touched only by the owning comm
// thread), so the hot path is a map hit plus one atomic add. The
// instruments reached from helper goroutines (retransmit backoff, from tx
// helpers) are plain struct fields resolved at construction, never the
// maps.
type nodeMetrics struct {
	reg *obs.Registry

	// intakeDepth observes the intake queue depth at every comm-thread
	// dequeue: the distribution of how far the engine runs behind its
	// event stream.
	intakeDepth *obs.Histogram
	// matchDepthPeak is the high-water mark of the matching index.
	matchDepthPeak *obs.Gauge
	// backoff observes each retransmission's ack-timeout backoff (ns).
	backoff *obs.Histogram
	// gpuPolls / gpuPollHits count GPU-monitor polling activity; their
	// ratio is the paper's §3.2.3 polling-efficiency trade-off.
	gpuPolls    *obs.Counter
	gpuPollHits *obs.Counter
	// gpuSignals counts doorbell-serviced mailbox requests
	// (FutureHW.DeviceSignal) — the poll-free complement of gpuPolls.
	gpuSignals *obs.Counter

	// One-sided lane. osPuts/osGets count origin-side
	// operations, osTriggered counts NIC-fired device descriptors;
	// osTrigFire observes device-enqueue → NIC-fire latency and
	// osRemoteComplete observes origin-post → target-apply latency, the
	// enqueued→triggered→remote-complete phases of the lane.
	osPuts           *obs.Counter
	osGets           *obs.Counter
	osTriggered      *obs.Counter
	osTrigFire       *obs.Histogram
	osRemoteComplete *obs.Histogram

	// matchWait caches match-wait histograms by op/src/size-class.
	matchWait map[matchKey]*obs.Histogram
	// collWait caches collective-accumulation-wait histograms by op.
	collWait map[opKind]*obs.Histogram
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	return &nodeMetrics{
		reg:            reg,
		intakeDepth:    reg.Histogram("queue_depth/layer=intake"),
		matchDepthPeak: reg.Gauge("peak_depth/layer=match"),
		backoff:        reg.Histogram("retransmit_backoff_ns"),
		gpuPolls:       reg.Counter("gpu_polls"),
		gpuPollHits:    reg.Counter("gpu_poll_hits"),
		gpuSignals:     reg.Counter("gpu_doorbell_services"),

		osPuts:           reg.Counter("onesided_puts"),
		osGets:           reg.Counter("onesided_gets"),
		osTriggered:      reg.Counter("onesided_triggered"),
		osTrigFire:       reg.Histogram("onesided_trigger_fire_ns"),
		osRemoteComplete: reg.Histogram("onesided_remote_complete_ns"),

		matchWait: make(map[matchKey]*obs.Histogram),
		collWait:  make(map[opKind]*obs.Histogram),
	}
}

// observeMatchWait records how long a point-to-point request sat in the
// matching layer (handled → matched), keyed by op, source and size class.
// Called from matched() on the comm thread.
func (m *nodeMetrics) observeMatchWait(req *request, now time.Duration) {
	k := matchKey{op: req.op, gpu: req.gpu, size: obs.SizeClassIndex(len(req.buf))}
	h := m.matchWait[k]
	if h == nil {
		src := "cpu"
		if k.gpu {
			src = "gpu"
		}
		h = m.reg.Histogram("match_wait_ns/op=" + req.op.String() + "/src=" + src + "/size=" + obs.SizeClass(len(req.buf)))
		m.matchWait[k] = h
	}
	h.Observe(int64(now - req.handledAt))
}

// observeCollWait records how long a collective group accumulated on this
// node (first local arrival → all resident ranks joined). Called from the
// collective accumulator on the comm thread.
func (m *nodeMetrics) observeCollWait(op opKind, wait time.Duration) {
	h := m.collWait[op]
	if h == nil {
		h = m.reg.Histogram("coll_accum_wait_ns/op=" + op.String())
		m.collWait[op] = h
	}
	h.Observe(int64(wait))
}
