package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Registry is a metrics namespace — a Runtime's scheduling metrics, a load
// generator's phase histograms: counters, gauges and log2-bucketed
// histograms, created on first use and identified by flat string names
// ("queue_wait_ns/tenant=chat"). Lookups take a short registry lock; the
// returned instruments are lock-free atomics, so hot paths hold a pointer
// and never touch the registry again.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v is larger (monotonic high-water mark).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the histogram resolution: bucket i holds observations v
// with bits.Len64(v) == i, i.e. [2^(i-1), 2^i); bucket 0 holds v <= 0.
// 64 buckets cover every int64, so Observe never clamps.
const histBuckets = 64

// Histogram is a lock-free log2-bucketed distribution. Units are the
// caller's (the engine records nanoseconds for waits and raw counts for
// depths); log2 bucketing gives ~1 significant bit of resolution across
// the full range, which is exactly what latency-tail questions need.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot captures a consistent-enough copy for reporting. (Concurrent
// Observe calls may land between field reads; the engine snapshots after
// the run quiesces, where the copy is exact.)
func (h *Histogram) Snapshot() HistogramSnapshot {
	// Trailing empty buckets are left out so snapshots serialize
	// compactly; only the kept prefix is allocated.
	n := len(h.buckets)
	for n > 0 && h.buckets[n-1].Load() == 0 {
		n--
	}
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]uint64, n),
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram: total count and
// sum plus per-log2-bucket counts (bucket i covers [2^(i-1), 2^i), bucket
// 0 covers v <= 0; trailing empty buckets are trimmed).
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count uint64
	// Sum is the total of all observed values.
	Sum int64
	// Buckets holds per-bucket observation counts.
	Buckets []uint64
}

// Mean is the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// QuantileF returns the q-quantile (q in [0, 1]) with linear interpolation
// inside the containing log2 bucket: it assumes the bucket's observations
// are uniformly spread over [2^(i-1), 2^i) and interpolates by rank, so
// tail figures like p999 are not quantized to the factor-of-two grid of
// the bucket bounds. Bucket 0 (v <= 0) reports 0 exactly.
func (s HistogramSnapshot) QuantileF(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1)
	var cum uint64
	for i, b := range s.Buckets {
		if b == 0 {
			cum += b
			continue
		}
		lo, hi := float64(cum), float64(cum+b)
		cum += b
		if rank >= hi && cum < s.Count {
			continue
		}
		if i == 0 {
			return 0
		}
		vlo := float64(uint64(1) << (i - 1))
		vhi := float64(uint64(1) << i)
		// Position of rank within this bucket's [lo, hi) rank span.
		frac := (rank - lo) / (hi - lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return vlo + frac*(vhi-vlo)
	}
	return 0
}

// Merge returns the bucket-wise sum of s and o, for aggregating the same
// instrument across partitions (per-job or per-tenant registries) before
// extracting percentiles. Bucket slices of different trimmed lengths are
// aligned by index.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	n := len(s.Buckets)
	if len(o.Buckets) > n {
		n = len(o.Buckets)
	}
	out := HistogramSnapshot{
		Count:   s.Count + o.Count,
		Sum:     s.Sum + o.Sum,
		Buckets: make([]uint64, n),
	}
	copy(out.Buckets, s.Buckets)
	for i, b := range o.Buckets {
		out.Buckets[i] += b
	}
	return out
}

// Snapshot is a point-in-time copy of a set of named instruments — a
// registry's, or a job's metrics — ready for JSON serialization (the debug
// endpoint) or report aggregation.
type Snapshot struct {
	// Counters maps counter name to value.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps gauge name to value.
	Gauges map[string]int64 `json:"gauges"`
	// Histograms maps histogram name to its snapshot.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every instrument's current state. A histogram nothing
// has observed yet is left out: the snapshot holds what was touched.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		if h.count.Load() > 0 {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}
