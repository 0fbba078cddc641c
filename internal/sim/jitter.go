package sim

import (
	"math/rand"
	"time"
)

// Jitter is a seeded stream of multiplicative timing noise: Scale stretches
// a modeled duration by a factor drawn uniformly from [1-frac, 1+frac],
// modeling run-to-run OS and network noise while every seed's run stays
// deterministic. It is a plain value its owner keeps, not kernel state: the
// simulator never draws from one. A stream belongs to one node of whatever
// is being simulated, and only procs of that node's Sim may Scale through
// it, so the draws come in the node's own event order whichever event loop
// runs the node and whatever else that loop hosts. The zero value and nil
// are the identity.
type Jitter struct {
	frac float64
	rng  *rand.Rand
}

// Seed starts stream number `stream` of the streams seed fans out into (one
// per node, by node index) at noise fraction frac; a frac of zero or less
// turns the noise off, and with it whatever a previous owner of the node had
// seeded.
func (j *Jitter) Seed(frac float64, seed int64, stream int) {
	if frac <= 0 {
		*j = Jitter{}
		return
	}
	// One multiply by the 64-bit golden ratio keeps the streams of nearby
	// seeds apart: seed 7's node 1 is not seed 8's node 0.
	mixed := uint64(seed) + uint64(stream+1)*0x9E3779B97F4A7C15
	*j = Jitter{frac: frac, rng: rand.New(rand.NewSource(int64(mixed)))}
}

// Scale returns d perturbed by the stream's next draw, or d itself when the
// stream is nil or unseeded or d is not positive.
func (j *Jitter) Scale(d time.Duration) time.Duration {
	if j == nil || j.frac == 0 || d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (1 + j.frac*(2*j.rng.Float64()-1)))
}
