package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// DebugState is the JSON document served by the live-inspection endpoint:
// an expvar-style snapshot of the registry plus derived per-histogram
// quantiles, so a curl mid-run answers "where is time going right now"
// without attaching a tracer.
type DebugState struct {
	// Counters maps counter name to current value.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps gauge name to current value.
	Gauges map[string]int64 `json:"gauges"`
	// Histograms maps histogram name to a quantile summary.
	Histograms map[string]DebugHistogram `json:"histograms"`
}

// DebugHistogram is one histogram's summary in the debug document.
type DebugHistogram struct {
	// Count is the number of observations so far.
	Count uint64 `json:"count"`
	// Sum is the total of all observations.
	Sum int64 `json:"sum"`
	// Mean is Sum/Count.
	Mean float64 `json:"mean"`
	// P50, P90 and P99 are the quantiles HistogramSnapshot.QuantileF
	// estimates: interpolated within the log2 bucket, not quantized to its
	// power-of-two bound.
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	// Buckets holds the raw per-log2-bucket counts.
	Buckets []uint64 `json:"buckets"`
}

// DebugSnapshot assembles the debug document from a registry snapshot.
func DebugSnapshot(s Snapshot) DebugState {
	out := DebugState{
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: make(map[string]DebugHistogram, len(s.Histograms)),
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = summarize(h)
	}
	return out
}

// summarize derives one histogram's count, mean and quantile columns.
func summarize(h HistogramSnapshot) DebugHistogram {
	return DebugHistogram{
		Count:   h.Count,
		Sum:     h.Sum,
		Mean:    h.Mean(),
		P50:     h.QuantileF(0.50),
		P90:     h.QuantileF(0.90),
		P99:     h.QuantileF(0.99),
		Buckets: h.Buckets,
	}
}

// WriteHistograms renders a run's metric distributions (Report.Histograms)
// as an aligned table sorted by instrument name, with the columns of the
// debug document: count, mean and the interpolated p50/p90/p99. An
// instrument whose base name (before any "/label=value" tags) ends in
// "_ns" prints as durations; everything else (queue depths, counts) prints
// raw.
func WriteHistograms(w io.Writer, hists map[string]HistogramSnapshot) error {
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "histogram\tcount\tmean\tp50\tp90\tp99")
	for _, name := range names {
		h := summarize(hists[name])
		base, _, _ := strings.Cut(name, "/")
		isDuration := strings.HasSuffix(base, "_ns")
		val := func(v float64) string {
			if isDuration {
				return time.Duration(v).String()
			}
			return fmt.Sprintf("%.0f", v)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n", name, h.Count, val(h.Mean), val(h.P50), val(h.P90), val(h.P99))
	}
	return tw.Flush()
}

// DebugHandler serves snap's document as JSON at /debug/dcgn: a job's
// metrics (Config.DebugAddr) or a runtime's merged partitions. Each request
// takes a fresh snapshot, so repeated polls watch the run progress.
func DebugHandler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "\t")
		_ = enc.Encode(DebugSnapshot(snap()))
	})
}
