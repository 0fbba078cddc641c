package apps

// The §5.1 acceptance bar for the wire-hardening work: with a seeded
// drop rate past 10% on the simulated backend, every paper app must
// complete with bit-correct results, and the run's Report must show the
// retransmit machinery actually covering for the injected drops.

import (
	"testing"

	"dcgn/internal/core"
	"dcgn/internal/transport/faults"
)

// lossyDCGN is dcgnConfig plus a 12% seeded drop rate; validate()
// auto-enables the reliability layer when wire faults are active.
func lossyDCGN(nodes, cpus, gpus int, seed int64) core.Config {
	cfg := dcgnConfig(nodes, cpus, gpus)
	cfg.Faults = faults.Config{Seed: seed, Drop: 0.12}
	return cfg
}

// requireLossyRun asserts the fault/retransmit accounting that every
// lossy-wire app run must satisfy.
func requireLossyRun(t *testing.T, app string, rep core.Report) {
	t.Helper()
	if rep.FaultsInjected.Drops == 0 {
		t.Errorf("%s: no drops injected; lossy run proves nothing", app)
	}
	if rep.Retransmits == 0 {
		t.Errorf("%s: drops injected but zero retransmits", app)
	}
	if rep.PoolAcquires != rep.PoolReleases {
		t.Errorf("%s: pool leak under faults: %d acquires vs %d releases",
			app, rep.PoolAcquires, rep.PoolReleases)
	}
}

func TestMandelbrotDCGNSurvivesLossyWire(t *testing.T) {
	mc := tinyMandel()
	clean, err := MandelbrotDCGN(dcgnConfig(2, 1, 2), mc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MandelbrotDCGN(lossyDCGN(2, 1, 2, 31), mc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Image {
		if res.Image[i] != clean.Image[i] {
			t.Fatalf("pixel %d diverged under faults: got %d want %d", i, res.Image[i], clean.Image[i])
		}
	}
	requireLossyRun(t, "mandelbrot", res.Report)
}

func TestCannonDCGNSurvivesLossyWire(t *testing.T) {
	cc := CannonConfig{N: 64, MatmulEff: 0.3, RealMath: true}
	res, err := CannonDCGN(lossyDCGN(2, 0, 2, 47), cc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("Cannon result failed verification under faults")
	}
	requireLossyRun(t, "cannon", res.Report)
}

func TestNBodyDCGNSurvivesLossyWire(t *testing.T) {
	// N-body's wire traffic is all collectives (per-step GPU broadcasts),
	// so its lossy run injects transient collective failures rather than
	// point-to-point drops; the retry loop (collAccum.call) must cover them.
	nc := NBodyConfig{Bodies: 128, Steps: 3, FlopsPerInteraction: 20, NBodyEff: 0.2, RealMath: true}
	cfg := dcgnConfig(2, 0, 2)
	cfg.Faults = faults.Config{Seed: 59, Drop: 0.12, CollFail: 0.25}
	res, err := NBodyDCGN(cfg, nc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("N-body result failed verification under faults")
	}
	if res.Report.FaultsInjected.CollFails == 0 {
		t.Error("nbody: no collective faults injected; lossy run proves nothing")
	}
	if res.Report.CollRetries == 0 {
		t.Error("nbody: collective faults injected but zero retries")
	}
	if res.Report.PoolAcquires != res.Report.PoolReleases {
		t.Errorf("nbody: pool leak under faults: %d acquires vs %d releases",
			res.Report.PoolAcquires, res.Report.PoolReleases)
	}
}
