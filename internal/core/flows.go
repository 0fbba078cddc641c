package core

import (
	"net/http"
	"sort"
	"strconv"

	"dcgn/internal/obs"
	"dcgn/internal/obs/flow"
)

// /debug/dcgn/flows: the live flow-inspection endpoint (Config.Flows +
// DebugAddr). It stitches the trace sink's current spans into causal
// flows and serves the top-k slowest as JSON, so a curl mid-run answers
// "which messages are slow, and in which phase" without stopping the
// job. The runtime variant merges every submission — stitching per job
// (span IDs restart at each job's sink, so trace IDs are only unique
// within one) and labeling each flow with its job and tenant.

// DefaultFlowsTopK is how many flows /debug/dcgn/flows returns when the
// ?k= query parameter is absent.
const DefaultFlowsTopK = 20

// flowJSON is the wire shape of one stitched flow in the flows document.
type flowJSON struct {
	// JobID, Job and Tenant identify the owning submission (runtime
	// endpoint only; the single-job endpoint leaves them empty).
	JobID  int    `json:"job_id,omitempty"`
	Job    string `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// TraceID is the flow identity (the root span's SpanID).
	TraceID uint64 `json:"trace_id"`
	// StartNs/EndNs bound the flow on the run clock; LatencyNs is their
	// difference.
	StartNs   int64 `json:"start_ns"`
	EndNs     int64 `json:"end_ns"`
	LatencyNs int64 `json:"latency_ns"`
	// Spans is the number of stitched member spans.
	Spans int `json:"spans"`
	// PhasesNs attributes the flow's span time by pipeline phase.
	PhasesNs map[string]int64 `json:"phases_ns"`
}

// flowsJSON is the /debug/dcgn/flows document.
type flowsJSON struct {
	// Flows counts every stitched flow before top-k truncation.
	Flows int `json:"flows"`
	// Top holds the k slowest flows, latency-descending.
	Top []flowJSON `json:"top"`
}

// flowsTopK parses the ?k= query parameter, defaulting to
// DefaultFlowsTopK.
func flowsTopK(req *http.Request) int {
	if s := req.URL.Query().Get("k"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return DefaultFlowsTopK
}

// stitchJSON stitches one job's spans and renders them as flowJSON
// records carrying the given submission labels.
func stitchJSON(spans []obs.Span, jobID int, jobName, tenant string) []flowJSON {
	flows := flow.Stitch(spans)
	out := make([]flowJSON, 0, len(flows))
	for _, f := range flows {
		phases := make(map[string]int64, len(f.Phases))
		for name, d := range f.Phases {
			phases[name] = d.Nanoseconds()
		}
		out = append(out, flowJSON{
			JobID:     jobID,
			Job:       jobName,
			Tenant:    tenant,
			TraceID:   f.TraceID,
			StartNs:   f.Start.Nanoseconds(),
			EndNs:     f.End.Nanoseconds(),
			LatencyNs: f.Latency().Nanoseconds(),
			Spans:     len(f.Spans),
			PhasesNs:  phases,
		})
	}
	return out
}

// flowsDocument ranks stitched flows latency-descending (ties: job ID
// then trace ID ascending, so the order is deterministic) and truncates
// to the top k.
func flowsDocument(flows []flowJSON, k int) flowsJSON {
	sort.Slice(flows, func(i, j int) bool {
		a, b := flows[i], flows[j]
		if a.LatencyNs != b.LatencyNs {
			return a.LatencyNs > b.LatencyNs
		}
		if a.JobID != b.JobID {
			return a.JobID < b.JobID
		}
		return a.TraceID < b.TraceID
	})
	doc := flowsJSON{Flows: len(flows), Top: []flowJSON{}}
	if k > len(flows) {
		k = len(flows)
	}
	doc.Top = append(doc.Top, flows[:k]...)
	return doc
}

// flowsHandler serves the single-job flows document from the job's live
// trace sink; an empty document when flow tracing is off.
func (j *Job) flowsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var spans []obs.Span
		if ts := j.trace; ts != nil {
			spans = ts.spans()
		}
		writeJSON(w, flowsDocument(stitchJSON(spans, 0, "", ""), flowsTopK(req)))
	})
}

// handleFlows serves the runtime flows document: running jobs
// contribute their live sinks, finished jobs the trace retained in
// their reports. Only the spans are collected under the runtime's lock —
// a ring snapshot per running job, a slice header per finished one, whose
// retained trace nothing writes again; stitching and ranking them, which
// sorts and walks every span of every job, happens after it is released,
// so a request cannot stall Submit, retire or the simulated event loop for
// longer than that.
func (r *Runtime) handleFlows(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	type jobSpans struct {
		spans        []obs.Span
		id           int
		name, tenant string
	}
	r.mu.Lock()
	jobs := make([]jobSpans, 0, len(r.jobs))
	for _, c := range r.jobs {
		spans := c.report.Trace
		if c.job != nil && c.job.trace != nil {
			spans = c.job.trace.spans()
		}
		jobs = append(jobs, jobSpans{spans, c.ID, c.Name, c.Tenant})
	}
	r.mu.Unlock()
	var flows []flowJSON
	for _, j := range jobs {
		flows = append(flows, stitchJSON(j.spans, j.id, j.name, j.tenant)...)
	}
	writeJSON(w, flowsDocument(flows, flowsTopK(req)))
}
