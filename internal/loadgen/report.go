package loadgen

import (
	"encoding/json"
	"strings"

	"dcgn/internal/core"
	"dcgn/internal/obs"
	"dcgn/internal/obs/flow"
)

// ReportSchema versions the SLO report format the CI smoke job checks.
const ReportSchema = "dcgn-loadgen/v1"

// LatencyStats summarizes one obs histogram with interpolated
// percentiles (HistogramSnapshot.QuantileF), so tail figures are not
// quantized to powers of two.
type LatencyStats struct {
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// MeanNs through P999Ns are nanoseconds.
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P95Ns  float64 `json:"p95_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
}

// latencyStats extracts the standard percentile set from a snapshot.
func latencyStats(h obs.HistogramSnapshot) LatencyStats {
	return LatencyStats{
		Count:  h.Count,
		MeanNs: h.Mean(),
		P50Ns:  h.QuantileF(0.50),
		P95Ns:  h.QuantileF(0.95),
		P99Ns:  h.QuantileF(0.99),
		P999Ns: h.QuantileF(0.999),
	}
}

// TenantStats is one tenant's (or the aggregate) SLO view.
type TenantStats struct {
	// Jobs is the completed-job count.
	Jobs int `json:"jobs"`
	// QueueWait is admission-queue wait (submit → node assignment).
	QueueWait LatencyStats `json:"queue_wait"`
	// MatchWait is per-message receive match wait inside completed jobs.
	MatchWait LatencyStats `json:"match_wait"`
	// E2E is submit → finish latency of completed jobs.
	E2E LatencyStats `json:"e2e"`
	// Phases attributes end-to-end latency to the canonical pipeline
	// phases (flow.Phases), one LatencyStats per phase, when Spec.Flows
	// is on. Every completed job observes every phase (zero when absent),
	// so the per-phase MeanNs values sum exactly to E2E.MeanNs:
	// "sched_wait" is admission-queue wait and the rest is the job's
	// critical path (compute, queueing, match wait, wire, ack, ...).
	Phases map[string]LatencyStats `json:"phases,omitempty"`
}

// Report is the SLO report of one load-generation run. On the simulated
// backend it contains no wall-clock quantity, so a fixed seed reproduces
// it byte for byte.
type Report struct {
	// Schema is ReportSchema.
	Schema string `json:"schema"`
	// Backend, Preset, Arrival, Seed, RatePerSec and DurationS echo the
	// spec.
	Backend    string  `json:"backend"`
	Preset     string  `json:"preset"`
	Arrival    string  `json:"arrival"`
	Seed       int64   `json:"seed"`
	RatePerSec float64 `json:"rate_per_sec"`
	DurationS  float64 `json:"duration_s"`
	// Offered counts submissions; Completed/Rejected/Failed/Canceled
	// partition their outcomes (Rejected = shed by admission control).
	Offered   int `json:"offered"`
	Completed int `json:"completed"`
	Rejected  int `json:"rejected"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	// AchievedRatePerSec is completed jobs per offered second.
	AchievedRatePerSec float64 `json:"achieved_rate_per_sec"`
	// Aggregate pools every tenant; Tenants breaks the same stats out per
	// class.
	Aggregate TenantStats            `json:"aggregate"`
	Tenants   map[string]TenantStats `json:"tenants"`
	// WallS is the live backend's wall-clock run time (absent on sim —
	// it would break report determinism).
	WallS float64 `json:"wall_s,omitempty"`
}

// JSON renders the report as indented, key-sorted JSON with a trailing
// newline — the byte-stable form the determinism check diffs.
func (r *Report) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "\t")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// collector accumulates per-tenant and aggregate outcome counts,
// match-wait merges and (with flows on) per-phase critical-path
// attribution while handles resolve.
type collector struct {
	completed, rejected, failed, canceled int
	jobs                                  map[string]int                   // completed per tenant
	match                                 map[string]obs.HistogramSnapshot // merged match-wait per tenant
	matchAll                              obs.HistogramSnapshot
	// phases holds one histogram per canonical phase, aggregate and per
	// tenant ("phase_ns/phase=P[/tenant=T]"); nil when flows are off.
	phases *obs.Registry
}

func newCollector(flows bool) *collector {
	c := &collector{
		jobs:  make(map[string]int),
		match: make(map[string]obs.HistogramSnapshot),
	}
	if flows {
		c.phases = obs.NewRegistry()
	}
	return c
}

// addCompleted folds one completed job's report into the tenant and
// aggregate accumulators. With flows on it also splits the job's
// end-to-end latency across the canonical phases: admission-queue wait
// ("sched_wait", from the job's status timestamps) plus the report's
// critical-path phase totals, which tile the job's run window exactly —
// so per job, the observed phase values sum to its end-to-end latency.
// Every canonical phase is observed every job (zero when absent), which
// keeps the per-phase means summable.
func (c *collector) addCompleted(tenant string, rep core.Report, st core.JobStatus) {
	c.completed++
	c.jobs[tenant]++
	for name, h := range rep.Histograms {
		if !strings.HasPrefix(name, "match_wait_ns") {
			continue
		}
		c.match[tenant] = c.match[tenant].Merge(h)
		c.matchAll = c.matchAll.Merge(h)
	}
	if c.phases == nil {
		return
	}
	for _, p := range flow.Phases {
		v := rep.CriticalPath.Phases[p].Nanoseconds()
		if p == flow.PhaseSchedWait {
			v = (st.StartedAt - st.SubmittedAt).Nanoseconds()
		}
		c.phases.Histogram("phase_ns/phase=" + p).Observe(v)
		c.phases.Histogram("phase_ns/phase=" + p + "/tenant=" + tenant).Observe(v)
	}
}

// buildReport assembles the final SLO report from the collector, the
// runtime scheduling snapshot and the spec.
func buildReport(spec Spec, offered int, c *collector, sched obs.Snapshot) *Report {
	rep := &Report{
		Schema:     ReportSchema,
		Backend:    spec.Backend,
		Preset:     spec.Preset,
		Arrival:    spec.Arrival,
		Seed:       spec.Seed,
		RatePerSec: spec.Rate,
		DurationS:  spec.Duration.Seconds(),
		Offered:    offered,
		Completed:  c.completed,
		Rejected:   c.rejected,
		Failed:     c.failed,
		Canceled:   c.canceled,
		Tenants:    make(map[string]TenantStats),
	}
	if spec.Duration > 0 {
		rep.AchievedRatePerSec = float64(c.completed) / spec.Duration.Seconds()
	}
	rep.Aggregate = TenantStats{
		Jobs:      c.completed,
		QueueWait: latencyStats(sched.Histograms["queue_wait_ns"]),
		MatchWait: latencyStats(c.matchAll),
		E2E:       latencyStats(sched.Histograms["e2e_ns"]),
		Phases:    phaseStats(c, ""),
	}
	for tenant, n := range c.jobs {
		rep.Tenants[tenant] = TenantStats{
			Jobs:      n,
			QueueWait: latencyStats(sched.Histograms["queue_wait_ns/tenant="+tenant]),
			MatchWait: latencyStats(c.match[tenant]),
			E2E:       latencyStats(sched.Histograms["e2e_ns/tenant="+tenant]),
			Phases:    phaseStats(c, tenant),
		}
	}
	return rep
}

// phaseStats extracts one LatencyStats per canonical phase from the
// collector's phase registry — aggregate for an empty tenant, else that
// tenant's series. Nil when flows are off.
func phaseStats(c *collector, tenant string) map[string]LatencyStats {
	if c.phases == nil {
		return nil
	}
	snap := c.phases.Snapshot()
	out := make(map[string]LatencyStats, len(flow.Phases))
	for _, p := range flow.Phases {
		name := "phase_ns/phase=" + p
		if tenant != "" {
			name += "/tenant=" + tenant
		}
		out[p] = latencyStats(snap.Histograms[name])
	}
	return out
}
