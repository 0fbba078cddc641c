package obs

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// QuantileF: interpolated percentile extraction from the log2-bucketed
// histograms. Reporting a bucket's upper bound would quantize tails like
// p999 to a factor-of-two grid; these tests pin the interpolation against
// exact recorded samples.

// exactQuantile is the reference: the continuous empirical q-quantile of
// the recorded samples (linear interpolation between order statistics,
// rank = q·(n−1)).
func exactQuantile(samples []int64, q float64) float64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := q * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	if hi >= len(s) {
		return float64(s[len(s)-1])
	}
	frac := rank - float64(lo)
	return float64(s[lo]) + frac*float64(s[hi]-s[lo])
}

// TestQuantileFExactOnFilledBucket records every integer in one bucket
// ([1024, 2048)) once. Reporting the bucket's bound would give 2047 for
// every q; QuantileF reproduces the exact empirical quantile of the
// recorded samples.
func TestQuantileFExactOnFilledBucket(t *testing.T) {
	h := &Histogram{}
	var samples []int64
	for v := int64(1024); v < 2048; v++ {
		h.Observe(v)
		samples = append(samples, v)
	}
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 0.999, 1} {
		want := exactQuantile(samples, q)
		got := s.QuantileF(q)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("QuantileF(%v) = %v, want exact %v", q, got, want)
		}
	}
}

// TestQuantileFExactAcrossBuckets records every integer in [1, 4096] —
// thirteen fully occupied buckets — and checks QuantileF against the
// exact empirical quantile at the percentiles the SLO report extracts.
func TestQuantileFExactAcrossBuckets(t *testing.T) {
	h := &Histogram{}
	var samples []int64
	for v := int64(1); v <= 4096; v++ {
		h.Observe(v)
		samples = append(samples, v)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.50, 0.90, 0.95, 0.99, 0.999} {
		want := exactQuantile(samples, q)
		got := s.QuantileF(q)
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("QuantileF(%v) = %v, want exact %v", q, got, want)
		}
	}
}

// TestQuantileFP999NotQuantized is the regression pin for the p999 bug:
// on a realistic multi-bucket latency shape, QuantileF must land within
// half a percent of the exact recorded p999, strictly closer than the
// containing bucket's power-of-two ceiling.
func TestQuantileFP999NotQuantized(t *testing.T) {
	h := &Histogram{}
	var samples []int64
	// Buckets 8..14, each covered by 128 evenly spaced samples.
	for b := 8; b <= 14; b++ {
		lo := int64(1) << (b - 1)
		step := lo / 128
		for i := int64(0); i < 128; i++ {
			v := lo + i*step
			h.Observe(v)
			samples = append(samples, v)
		}
	}
	s := h.Snapshot()
	exact := exactQuantile(samples, 0.999)
	got := s.QuantileF(0.999)
	const ceiling = 16383 // of bucket 14, where p999 falls
	if rel := math.Abs(got-exact) / exact; rel > 0.005 {
		t.Errorf("QuantileF(0.999) = %v, exact %v: relative error %.4f > 0.5%%", got, exact, rel)
	}
	if math.Abs(got-exact) >= math.Abs(ceiling-exact) {
		t.Errorf("QuantileF(0.999) = %v is no closer to exact %v than the bucket ceiling %v", got, exact, ceiling)
	}
}

// TestQuantileFEdgeCases: empty snapshot, zero/negative observations and
// out-of-range q values must not panic or extrapolate.
func TestQuantileFEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.QuantileF(0.99); got != 0 {
		t.Errorf("empty QuantileF = %v, want 0", got)
	}
	h := &Histogram{}
	h.Observe(0)
	h.Observe(-7)
	s := h.Snapshot()
	if got := s.QuantileF(0.999); got != 0 {
		t.Errorf("bucket-0 QuantileF = %v, want 0", got)
	}
	h2 := &Histogram{}
	for v := int64(64); v < 128; v++ {
		h2.Observe(v)
	}
	s2 := h2.Snapshot()
	if got := s2.QuantileF(-1); got != 64 {
		t.Errorf("QuantileF(-1) = %v, want clamp to 64", got)
	}
	if got := s2.QuantileF(2); math.Abs(got-127) > 1e-6 {
		t.Errorf("QuantileF(2) = %v, want clamp to 127", got)
	}
}

// TestHistogramSnapshotMerge checks Merge is equivalent to observing both
// streams into one histogram, and leaves its inputs untouched.
func TestHistogramSnapshotMerge(t *testing.T) {
	obs1 := []int64{100, 100, 100, 5000, 5000}
	obs2 := []int64{7, 100, 100, 1 << 20, 1 << 20, 1 << 20, 1 << 20}
	h1, h2, both := &Histogram{}, &Histogram{}, &Histogram{}
	for _, v := range obs1 {
		h1.Observe(v)
		both.Observe(v)
	}
	for _, v := range obs2 {
		h2.Observe(v)
		both.Observe(v)
	}
	s1, s2 := h1.Snapshot(), h2.Snapshot()
	s1Copy := append([]uint64(nil), s1.Buckets...)
	merged := s1.Merge(s2)
	want := both.Snapshot()
	if merged.Count != want.Count || merged.Sum != want.Sum {
		t.Fatalf("merged count/sum = %d/%d, want %d/%d", merged.Count, merged.Sum, want.Count, want.Sum)
	}
	if !reflect.DeepEqual(merged.Buckets, want.Buckets) {
		t.Fatalf("merged buckets = %v, want %v", merged.Buckets, want.Buckets)
	}
	if !reflect.DeepEqual(s1.Buckets, s1Copy) {
		t.Fatal("Merge mutated its receiver")
	}
	if got, want := merged.QuantileF(0.999), want.QuantileF(0.999); got != want {
		t.Errorf("merged QuantileF(0.999) = %v, want %v", got, want)
	}
	// Merging with an empty snapshot is the identity in both directions.
	var empty HistogramSnapshot
	if got := empty.Merge(s2); !reflect.DeepEqual(got.Buckets, s2.Buckets) || got.Count != s2.Count {
		t.Error("empty.Merge(s2) != s2")
	}
	if got := s2.Merge(empty); !reflect.DeepEqual(got.Buckets, s2.Buckets) || got.Count != s2.Count {
		t.Error("s2.Merge(empty) != s2")
	}
}
