package main

import (
	"math"
	"sort"
)

// Estimators. Host timings on a shared machine are one-sided noise: a
// deterministic repetition only ever gains time from its neighbours. So
// throughput is read at the fast decile of the repetition times, and a
// tail percentile is reported only when enough samples lie beyond it.

// tailSamples is how many samples must lie beyond a percentile for it to
// be reported (choosing-metrics §1).
const tailSamples = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// nearestRank returns the q-quantile of ascending xs by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below it.
func nearestRank(xs []float64, q float64) float64 {
	k := int(math.Ceil(q * float64(len(xs))))
	if k < 1 {
		k = 1
	}
	return xs[k-1]
}

// fastDecile returns the 10th-percentile sample, or the minimum when there
// are fewer than ten samples. It is zero for no samples.
func fastDecile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return nearestRank(sorted(xs), 0.10)
}

// median returns the 50th-percentile sample by nearest rank (zero for no
// samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return nearestRank(sorted(xs), 0.50)
}

// tail returns the q-quantile of xs and whether it may be reported: a
// percentile is reportable only when at least tailSamples samples lie
// strictly beyond its rank. An unreportable percentile returns (0, false).
func tail(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	k := int(math.Ceil(q * float64(n)))
	if n == 0 || n-k < tailSamples {
		return 0, false
	}
	return nearestRank(sorted(xs), q), true
}

// highestTail returns the highest of the candidate quantiles (ascending)
// that is reportable for n samples, or 0 when none is.
func highestTail(n int, candidates []float64) float64 {
	best := 0.0
	for _, q := range candidates {
		if n-int(math.Ceil(q*float64(n))) >= tailSamples {
			best = q
		}
	}
	return best
}
