package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one benchmark-side interval around a batch of calls into a
// layer. Spans are recorded from the benchmark's own files only (no
// tracing is added inside the program) and kept in memory until exit.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	// Parent is the ID of the enclosing span, 0 for a root.
	Parent int `json:"parent"`
	// StartNs and EndNs are offsets from process start.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// recorder collects spans for one workload. It is used from the main
// goroutine only; open spans nest as a stack.
type recorder struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int // indices into spans, innermost last
}

func newRecorder(workload string, epoch time.Time) *recorder {
	return &recorder{workload: workload, epoch: epoch}
}

// begin opens a span under the innermost open one and returns the function
// that closes it.
func (r *recorder) begin(name string) (end func()) {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{
		ID: idx + 1, Name: name, Workload: r.workload, Parent: parent,
		StartNs: time.Since(r.epoch).Nanoseconds(),
	})
	r.open = append(r.open, idx)
	return func() {
		r.spans[idx].EndNs = time.Since(r.epoch).Nanoseconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// selfTimes returns each span's self time by ID: its duration minus the
// part of its interval that its child spans cover (overlapping children
// are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, cursor := int64(0), s.StartNs
		for _, k := range kids {
			from, to := max(k.StartNs, cursor), min(k.EndNs, s.EndNs)
			if to > from {
				covered += to - from
				cursor = to
			}
		}
		out[s.ID] = s.EndNs - s.StartNs - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format that
// Perfetto and chrome://tracing load. Times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes one workload's spans after another's as a Chrome
// trace: one process per workload, every span an "X" event whose args
// carry the span's id, parent, workload, exact start and end, and self
// time.
func writeChromeTrace(path string, perWorkload [][]span) error {
	var events []chromeEvent
	for pid, spans := range perWorkload {
		self := selfTimes(spans) // span ids are unique within a workload only
		for _, s := range spans {
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Workload, Ph: "X",
				Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
				Pid: pid + 1, Tid: 1,
				Args: map[string]any{
					"id": s.ID, "parent": s.Parent, "workload": s.Workload,
					"start_ns": s.StartNs, "end_ns": s.EndNs, "self_ns": self[s.ID],
				},
			})
		}
	}
	out, err := json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
