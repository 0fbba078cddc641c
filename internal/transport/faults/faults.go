// Package faults is a deterministic fault-injection middleware for the
// transport seam: it wraps any transport.Transport and perturbs the wire
// with seeded drops, duplicates, reorders and delays, plus spurious
// (transient) collective failures.
//
// The middleware is the repo's stand-in for a lossy fabric: DCGN's comm
// thread owns every transport call (paper §3.2.3), so this one seam is
// where real-cluster failure modes can be injected and survived. The
// engine's reliability layer (internal/core/reliable.go) is what turns a
// faulted wire from a deadlock into a throughput loss; the chaos harness
// (internal/core/chaos_test.go) asserts exactly that.
//
// Determinism: every point-to-point decision is drawn from a per-endpoint
// generator seeded with Config.Seed XOR the node id, so a simulated run
// replays bit-identically for a given seed. Collective failures must be
// cluster-consistent — if one node skips the underlying collective while
// another enters it, every backend deadlocks — so they are decided from a
// hash of (Config.Seed, per-endpoint collective call counter), which every
// node computes identically because every node executes the same sequence
// of node-level collectives.
//
// Each lane has one send and one receive, the transport's step forms: a
// send draws its decisions on its first step and queues a duplicate and a
// flushed frame behind its own (transport.SendOp.Then); a receive's
// injected delay is a SleepStep on the simulator and a wall-clock sleep on
// the live backend, so a sender or receiver meets the same faults on every
// host.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

// Config holds the fault probabilities: what a test that wants a faulty
// wire — dropping, duplicating, reordering or delaying sends, failing
// collectives — sets (core.Config.Faults) instead of writing a transport
// wrapper of its own. The zero value injects nothing.
// All probabilities are in [0, 1] and evaluated independently per message
// (Drop, Dup, Reorder on the send path; Delay on the receive path) or per
// node-level collective call (CollFail).
type Config struct {
	// Seed drives every injection decision; runs on the simulated backend
	// replay bit-identically per seed.
	Seed int64
	// Drop is the probability a wire message is silently discarded.
	Drop float64
	// Dup is the probability a wire message is transmitted twice.
	Dup float64
	// Reorder is the probability a wire message is held back and
	// transmitted after the endpoint's next send (at most one message is
	// held at a time; Close flushes nothing — a held message ages out with
	// the endpoint, exactly like a message lost in a dying switch).
	Reorder float64
	// Delay is the probability an inbound message is delayed before
	// delivery to the receiver.
	Delay float64
	// MaxDelay bounds each injected delay (default 500µs when Delay > 0).
	MaxDelay time.Duration
	// CollFail is the probability a node-level collective call fails with
	// transport.ErrTransient — consistently on every node, so the cluster
	// stays in lockstep and the engine can simply retry.
	CollFail float64
}

// WireActive reports whether any point-to-point fault can fire; the
// engine auto-enables its reliability layer when it does, because a
// dropped wire message deadlocks an unreliable receive forever.
func (c Config) WireActive() bool {
	return c.Drop > 0 || c.Dup > 0 || c.Reorder > 0 || c.Delay > 0
}

// Enabled reports whether the middleware would inject anything at all.
func (c Config) Enabled() bool { return c.WireActive() || c.CollFail > 0 }

// maxDelay returns the configured delay bound with the default applied.
func (c Config) maxDelay() time.Duration {
	if c.MaxDelay > 0 {
		return c.MaxDelay
	}
	return 500 * time.Microsecond
}

// Endpoint wraps one node's transport with fault injection on both lanes.
// Like every transport it owns what it is sent; pool is the job's buffer
// pool, which a dropped message goes back to and a duplicate comes from.
type Endpoint struct {
	inner transport.Transport
	cfg   Config
	node  int
	pool  *bufpool.Pool

	// mu guards the RNG, stats and held-message slots. It is never held
	// across a (potentially blocking) inner transport call: on the
	// simulated backend a proc parking while holding a sync.Mutex would
	// wedge the whole scheduler.
	mu        sync.Mutex
	rng       *rand.Rand
	held      []byte // one reordered wire message awaiting flush
	heldDst   int
	heldOS    []byte // one reordered one-sided frame awaiting flush
	heldOSDst int
	collCalls uint64
	stats     transport.FaultStats
}

// New wraps inner with fault injection for the given node, whose frames
// come from pool. Every endpoint of a cluster must share the same Config
// (in particular Seed), or the cluster-consistent collective failure
// decisions diverge.
func New(inner transport.Transport, cfg Config, node int, pool *bufpool.Pool) *Endpoint {
	return &Endpoint{
		inner: inner,
		cfg:   cfg,
		node:  node,
		pool:  pool,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ int64(node)<<17 ^ 0x5bd1e995)),
	}
}

// FaultStats returns a snapshot of the faults injected so far.
func (e *Endpoint) FaultStats() transport.FaultStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// roll draws one Bernoulli decision; callers hold e.mu.
func (e *Endpoint) roll(p float64) bool { return p > 0 && e.rng.Float64() < p }

// draw makes the drop/dup/reorder decisions of op's frame and reports
// whether it goes out. Fault decisions apply to the primary frame only; a
// flushed (previously held) message and the duplicate are sent as-is,
// queued behind it (SendOp.Then), so at most one message is ever parked per
// lane — each lane has a held-message slot of its own in the endpoint,
// guarded by mu, so the two reorder independently (a parked put can never
// block a wire send's flush). The duplicate and the flushed message are
// pooled copies, for the inner transport to own.
func (e *Endpoint) draw(op *transport.SendOp) bool {
	held, heldDst := &e.held, &e.heldDst
	if op.OneSided {
		held, heldDst = &e.heldOS, &e.heldOSDst
	}
	e.mu.Lock()
	if e.roll(e.cfg.Drop) {
		e.stats.Drops++
		e.mu.Unlock()
		e.pool.Put(op.Msg)
		return false // "sent" into the void; reliability retransmits
	}
	dup := e.roll(e.cfg.Dup)
	if dup {
		e.stats.Dups++
	}
	if *held == nil && e.roll(e.cfg.Reorder) {
		// Park a private copy and release the frame; the copy rides out
		// with the endpoint's next send. It is a plain allocation,
		// deliberately outside the job's buffer pool: held messages are
		// fabric state, not engine staging, and one the endpoint dies
		// holding must not count as a pooled buffer never released.
		e.stats.Reorders++
		*held = append([]byte(nil), op.Msg...)
		*heldDst = op.Dst
		e.mu.Unlock()
		e.pool.Put(op.Msg)
		return false
	}
	flush, flushDst := *held, *heldDst
	*held = nil
	e.mu.Unlock()
	if dup {
		op.Then(op.Dst, e.pooled(op.Msg))
	}
	if flush != nil {
		op.Then(flushDst, e.pooled(flush))
	}
	return true
}

// pooled returns a copy of msg in a buffer from the job's pool, for the
// inner transport to own.
func (e *Endpoint) pooled(msg []byte) []byte {
	cp := e.pool.Get(len(msg))
	copy(cp, msg)
	return cp
}

// delay draws the latency injected on one received message: zero, or with
// probability Config.Delay up to the configured bound.
func (e *Endpoint) delay() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.roll(e.cfg.Delay) {
		return 0
	}
	e.stats.Delays++
	return time.Duration(1 + e.rng.Int63n(int64(e.cfg.maxDelay())))
}

// SendStep draws op's fault decisions on its first step (draw), then
// forwards the op to the inner transport; a dropped or held-back frame
// completes the op at once.
func (e *Endpoint) SendStep(p transport.Proc, op *transport.SendOp) (bool, error) {
	if op.Mid == 0 {
		op.Mid = 1
		if !e.draw(op) {
			return true, nil
		}
	}
	return e.inner.SendStep(p, op)
}

// RecvStep forwards the inner receive, then injects latency on delivery
// with probability Config.Delay: virtual time on the simulator, as p's
// next wake, and real time on the live backend, whose WallProc sleeps are
// deliberate no-ops because modeled costs there are replaced by real
// execution time — an injected delay is real time.
func (e *Endpoint) RecvStep(p transport.Proc, op *transport.RecvOp) (bool, error) {
	if op.Mid != 0 {
		return true, nil // the delay is over
	}
	if done, err := e.inner.RecvStep(p, op); !done || err != nil {
		return done, err
	}
	d := e.delay()
	if d == 0 {
		return true, nil
	}
	if sp, ok := p.(*sim.Proc); ok {
		op.Mid = 1
		sp.SleepStep(d)
		return false, nil
	}
	time.Sleep(d)
	return true, nil
}

// failCollective decides — identically on every node — whether the
// current collective round fails. Each endpoint counts its own node-level
// collective calls; since every node executes the same global sequence of
// collectives, the counters (and therefore the seeded decisions) agree
// across the cluster without any coordination.
func (e *Endpoint) failCollective() error {
	if e.cfg.CollFail <= 0 {
		return nil
	}
	e.mu.Lock()
	round := e.collCalls
	e.collCalls++
	fail := collRoundProb(e.cfg.Seed, round) < e.cfg.CollFail
	if fail {
		e.stats.CollFails++
	}
	e.mu.Unlock()
	if fail {
		return fmt.Errorf("faults: injected failure on collective round %d: %w", round, transport.ErrTransient)
	}
	return nil
}

// collRoundProb hashes (seed, round) to a uniform [0,1) value with a
// splitmix64 step — cheap, stateless, and identical on every node.
func collRoundProb(seed int64, round uint64) float64 {
	z := uint64(seed) + (round+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// CollectiveStep runs the inner collective unless this round is failed,
// which its first step decides (op.Mid).
func (e *Endpoint) CollectiveStep(p transport.Proc, op *transport.CollOp) (bool, error) {
	if op.Mid == 0 {
		if err := e.failCollective(); err != nil {
			return true, err
		}
		op.Mid = 1
	}
	done, err := e.inner.CollectiveStep(p, op)
	if done {
		op.Mid = 0
	}
	return done, err
}

// Close drops any held messages and closes the inner transport.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	e.held = nil
	e.heldOS = nil
	e.mu.Unlock()
	return e.inner.Close()
}
