package apps

import (
	"testing"
)

func TestPipelineGASCorrect(t *testing.T) {
	pc := DefaultPipelineConfig(false)
	res, err := PipelineGAS(gasConfig(2, 1, 2), pc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("GAS pipeline produced wrong frames")
	}
}

func TestPipelineDCGNCorrect(t *testing.T) {
	for _, skewed := range []bool{false, true} {
		pc := DefaultPipelineConfig(skewed)
		res, err := PipelineDCGN(dcgnConfig(2, 1, 2), pc)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("DCGN pipeline (skewed=%v) produced wrong frames", skewed)
		}
	}
}

// TestPipelineSkewFavorsDynamic pins the §2.3 claim: the static pipeline
// "does not extend well to problems poorly suited to pipelining" — under
// skewed stage costs the dynamic DCGN work queue gains ground on (or
// overtakes) the static GAS pipeline relative to the uniform case.
func TestPipelineSkewFavorsDynamic(t *testing.T) {
	ratio := func(skewed bool) float64 {
		pc := DefaultPipelineConfig(skewed)
		gasRes, err := PipelineGAS(gasConfig(2, 1, 2), pc)
		if err != nil {
			t.Fatal(err)
		}
		dcgnRes, err := PipelineDCGN(dcgnConfig(2, 1, 2), pc)
		if err != nil {
			t.Fatal(err)
		}
		if !gasRes.Verified || !dcgnRes.Verified {
			t.Fatal("verification failed")
		}
		return float64(dcgnRes.Elapsed) / float64(gasRes.Elapsed)
	}
	uniform := ratio(false)
	skewed := ratio(true)
	if skewed >= uniform {
		t.Fatalf("skew should shift the balance toward the dynamic version: dcgn/gas uniform=%.2f skewed=%.2f", uniform, skewed)
	}
}
