package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// TraceSchema versions the committed trace format; Replay refuses
// anything else.
const TraceSchema = "dcgn-loadgen-trace/v1"

// Trace is a recorded offered workload: the fully sampled arrival stream
// plus enough of the generating spec to rebuild the runtime. Replaying a
// trace bypasses every random draw, so a trace recorded on one backend
// can drive the other one with an identical offered load.
type Trace struct {
	// Schema is TraceSchema.
	Schema string `json:"schema"`
	// Backend, Preset, Arrival, Seed, RatePerSec and DurationNs echo the
	// generating spec (informational for replay; the arrivals are
	// authoritative).
	Backend    string  `json:"backend"`
	Preset     string  `json:"preset"`
	Arrival    string  `json:"arrival"`
	Seed       int64   `json:"seed"`
	RatePerSec float64 `json:"rate_per_sec"`
	DurationNs int64   `json:"duration_ns"`
	// Nodes and MaxQueue rebuild the runtime shape.
	Nodes    int `json:"nodes"`
	MaxQueue int `json:"max_queue,omitempty"`
	// Arrivals is the offered stream, in time order.
	Arrivals []Arrival `json:"arrivals"`
}

// RecordTrace materializes a spec's offered trace (open-loop only).
func RecordTrace(spec Spec) (*Trace, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	if spec.Arrival == ArrivalClosed {
		return nil, fmt.Errorf("loadgen: closed-loop arrivals depend on completions and cannot be recorded ahead of a run")
	}
	return &Trace{
		Schema:     TraceSchema,
		Backend:    spec.Backend,
		Preset:     spec.Preset,
		Arrival:    spec.Arrival,
		Seed:       spec.Seed,
		RatePerSec: spec.Rate,
		DurationNs: spec.Duration.Nanoseconds(),
		Nodes:      spec.Nodes,
		MaxQueue:   spec.MaxQueue,
		Arrivals:   GenArrivals(spec),
	}, nil
}

// WriteFile writes the trace as indented JSON.
func (t *Trace) WriteFile(path string) error {
	out, err := json.MarshalIndent(t, "", "\t")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}

// LoadTrace reads and validates a recorded trace.
func LoadTrace(path string) (*Trace, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := parseTrace(raw)
	if err != nil {
		return nil, fmt.Errorf("loadgen: trace %s: %w", path, err)
	}
	return t, nil
}

// parseTrace decodes and validates a trace file's bytes: the schema tag,
// arrivals in time order from the run's start, and every job shape
// runnable.
func parseTrace(raw []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, err
	}
	if t.Schema != TraceSchema {
		return nil, fmt.Errorf("schema %q, want %q", t.Schema, TraceSchema)
	}
	var last int64
	for i, a := range t.Arrivals {
		if a.AtNs < last {
			return nil, fmt.Errorf("arrival %d out of time order", i)
		}
		if a.Nodes < 2 || a.Fanout < 1 || a.Iters < 1 || a.Size < 1 {
			return nil, fmt.Errorf("arrival %d has a degenerate job shape", i)
		}
		last = a.AtNs
	}
	return &t, nil
}

// Spec rebuilds a runnable spec from the trace for the given backend
// ("" keeps the recorded one). The caller passes the result to RunTrace.
func (t *Trace) Spec(backend string) Spec {
	if backend == "" {
		backend = t.Backend
	}
	return Spec{
		Backend:  backend,
		Seed:     t.Seed,
		Rate:     t.RatePerSec,
		Duration: time.Duration(t.DurationNs),
		Arrival:  t.Arrival,
		Preset:   t.Preset,
		Nodes:    t.Nodes,
		MaxQueue: t.MaxQueue,
	}
}
