package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dcgn/internal/obs"
)

// The runtime control API, served on RuntimeConfig.DebugAddr alongside
// the metrics endpoint:
//
//	GET  /debug/dcgn          merged per-tenant metrics snapshot
//	GET  /debug/dcgn/flows    top-k slowest stitched flows (?k=, Config.Flows)
//	GET  /runtime/jobs        every submission's JobStatus, submit order
//	POST /runtime/submit      submit a registered template
//	                          (?template=NAME&name=&tenant=&weight=&priority=)
//	POST /runtime/cancel?id=N cancel a queued or running job
//	POST /runtime/drain       stop admissions, reply when all jobs settle
//
// Kernels are Go functions and cannot cross HTTP, so remote submission
// goes through templates: the host process registers named job factories
// with RegisterTemplate, and /runtime/submit instantiates one.

// RegisterTemplate names a job factory for submission over the control
// API. The factory runs once per submission and must return a fresh,
// fully configured job (kernels installed).
func (r *Runtime) RegisterTemplate(name string, factory func() *Job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.templates[name] = factory
}

// ControlAddr reports the bound control endpoint ("host:port"), or ""
// when RuntimeConfig.DebugAddr is unset.
func (r *Runtime) ControlAddr() string { return r.debug.addr() }

// controlMux routes the control API listed above.
func (r *Runtime) controlMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/dcgn", obs.DebugHandler(r.obsParts.Snapshot))
	mux.HandleFunc("/debug/dcgn/flows", r.handleFlows)
	mux.HandleFunc("/runtime/jobs", r.handleJobs)
	mux.HandleFunc("/runtime/submit", r.handleSubmit)
	mux.HandleFunc("/runtime/cancel", r.handleCancel)
	mux.HandleFunc("/runtime/drain", r.handleDrain)
	return mux
}

// jobStatusJSON is the wire shape of a JobStatus: states by name,
// timestamps in seconds on the runtime clock.
type jobStatusJSON struct {
	ID          int     `json:"id"`
	Name        string  `json:"name"`
	Tenant      string  `json:"tenant"`
	State       string  `json:"state"`
	Nodes       int     `json:"nodes"`
	Weight      int     `json:"weight"`
	Priority    int     `json:"priority"`
	SubmittedAt float64 `json:"submitted_at_s"`
	StartedAt   float64 `json:"started_at_s"`
	FinishedAt  float64 `json:"finished_at_s"`
}

// secs converts a runtime-clock duration to JSON seconds.
func secs(d time.Duration) float64 { return d.Seconds() }

func statusJSON(st JobStatus) jobStatusJSON {
	return jobStatusJSON{
		ID:          st.ID,
		Name:        st.Name,
		Tenant:      st.Tenant,
		State:       st.State.String(),
		Nodes:       st.Nodes,
		Weight:      st.Weight,
		Priority:    st.Priority,
		SubmittedAt: secs(st.SubmittedAt),
		StartedAt:   secs(st.StartedAt),
		FinishedAt:  secs(st.FinishedAt),
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	_ = enc.Encode(v)
}

func (r *Runtime) handleJobs(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	statuses := r.List()
	out := make([]jobStatusJSON, 0, len(statuses))
	for _, st := range statuses {
		out = append(out, statusJSON(st))
	}
	writeJSON(w, out)
}

func (r *Runtime) handleSubmit(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q := req.URL.Query()
	tmpl := q.Get("template")
	r.mu.Lock()
	factory := r.templates[tmpl]
	r.mu.Unlock()
	if factory == nil {
		http.Error(w, fmt.Sprintf("unknown template %q", tmpl), http.StatusNotFound)
		return
	}
	opts := SubmitOpts{Name: q.Get("name"), Tenant: q.Get("tenant")}
	if s := q.Get("weight"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			http.Error(w, "weight must be a positive integer", http.StatusBadRequest)
			return
		}
		opts.Weight = v
	}
	if s := q.Get("priority"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			http.Error(w, "priority must be an integer", http.StatusBadRequest)
			return
		}
		opts.Priority = v
	}
	h, err := r.Submit(factory(), opts)
	if err != nil {
		// Admission-control rejections are the client's backpressure signal
		// (retry later); lifecycle conflicts mean the runtime cannot take
		// work at all; anything else is a bad submission.
		switch {
		case errors.Is(err, ErrQueueFull):
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.Is(err, ErrRuntimeClosed):
			http.Error(w, err.Error(), http.StatusConflict)
		default:
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	writeJSON(w, statusJSON(h.Status()))
}

func (r *Runtime) handleCancel(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	id, err := strconv.Atoi(req.URL.Query().Get("id"))
	if err != nil {
		http.Error(w, "id must be an integer", http.StatusBadRequest)
		return
	}
	if err := r.Cancel(id); err != nil {
		if errors.Is(err, ErrNoSuchJob) {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]any{"canceled": id})
}

func (r *Runtime) handleDrain(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	r.Drain()
	writeJSON(w, map[string]any{"drained": true})
}
