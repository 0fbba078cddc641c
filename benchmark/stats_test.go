package main

import "testing"

// ramp returns 1..n in a scrambled order.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[(i*7)%n] = float64(i + 1) // 7 is coprime to every n used below
	}
	return xs
}

func TestFastDecile(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3, 1, 2}, 1},   // fewer than ten samples: the minimum
		{ramp(9), 1},              // still the minimum
		{ramp(10), 1},             // the 10th percentile of ten samples is the first
		{ramp(100), 10},           // the tenth smallest of a hundred
		{ramp(45), 5},             // ceil(4.5) = 5th smallest
		{[]float64{5, 5, 5}, 5},   // ties
		{[]float64{2, 1, 9e9}, 1}, // a slow outlier does not move it
	}
	for _, c := range cases {
		if got := fastDecile(c.xs); got != c.want {
			t.Errorf("fastDecile(%d samples) = %v, want %v", len(c.xs), got, c.want)
		}
	}
}

func TestMedianNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {101, 51}} {
		if got := median(ramp(c.n)); got != c.want {
			t.Errorf("median of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
	if median(nil) != 0 {
		t.Error("median of nothing is 0")
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 = not reportable
	}{
		{99, 0.90, 0},     // rank 90 of 99 leaves 9 beyond
		{100, 0.90, 90},   // rank 90 of 100 leaves exactly 10
		{999, 0.99, 0},    // rank 990 of 999 leaves 9
		{1000, 0.99, 990}, // rank 990 of 1000 leaves 10
		{20, 0.50, 10},
		{19, 0.50, 0}, // rank 10 of 19 leaves 9
		{0, 0.90, 0},
	} {
		got, ok := tail(ramp(max(c.n, 1))[:c.n], c.q)
		if ok != (c.want != 0) || got != c.want {
			t.Errorf("tail(n=%d, q=%v) = %v, %v; want %v", c.n, c.q, got, ok, c.want)
		}
	}
}

// The highest percentile reported is the highest candidate that still has
// ten samples beyond it.
func TestHighestTail(t *testing.T) {
	cands := []float64{0.50, 0.90, 0.99, 0.999}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {4500, 0.99}, {10000, 0.999}} {
		if got := highestTail(c.n, cands); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
