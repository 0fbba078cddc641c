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
// Over a transport with step forms (simmpi.Steps) the middleware forwards
// them (Steps, SendStep, RecvStep), drawing each decision at the point its
// blocking call draws it, so a stackless sender or receiver meets the same
// faults as a blocking one.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
	"dcgn/internal/transport/simmpi"
)

// Config holds the fault probabilities. The zero value injects nothing.
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
	// step is the inner transport's step forms, nil when it has none.
	step simmpi.Stepper
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
		step:  simmpi.Steps(inner),
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

// survivors are what is left of one message once its fault decisions are
// drawn: the message itself unless it was dropped or held back, then its
// duplicate, then the lane's held message flushed behind it; nil slices are
// sends that do not happen.
type survivors struct {
	msg, twin, flush []byte
	flushDst         int
}

// draw makes msg's drop/dup/reorder decisions. Fault decisions apply to
// the primary message only; a flushed (previously held) message and the
// duplicate are sent as-is, so at most one message is ever parked per lane
// (held/heldDst point at the lane's slot in the endpoint, guarded by mu).
// The duplicate and the flushed message are pooled copies, for the inner
// transport to own.
func (e *Endpoint) draw(dstNode int, msg []byte, held *[]byte, heldDst *int) (sv survivors) {
	e.mu.Lock()
	if e.roll(e.cfg.Drop) {
		e.stats.Drops++
		e.mu.Unlock()
		e.pool.Put(msg)
		return sv // "sent" into the void; reliability retransmits
	}
	dup := e.roll(e.cfg.Dup)
	if dup {
		e.stats.Dups++
	}
	if *held == nil && e.roll(e.cfg.Reorder) {
		// Park a private copy and release msg; the copy rides out with the
		// endpoint's next send. It is a plain allocation, deliberately
		// outside the job's buffer pool: held messages are fabric state, not
		// engine staging, and one the endpoint dies holding must not count
		// as a pooled buffer never released.
		e.stats.Reorders++
		*held = append([]byte(nil), msg...)
		*heldDst = dstNode
		e.mu.Unlock()
		e.pool.Put(msg)
		return sv
	}
	flush := *held
	sv.flushDst = *heldDst
	*held = nil
	e.mu.Unlock()
	sv.msg = msg
	if dup {
		sv.twin = e.pooled(msg)
	}
	if flush != nil {
		sv.flush = e.pooled(flush)
	}
	return sv
}

// sendFaulty applies drop/dup/reorder to msg, then forwards the survivors
// through send, which owns each buffer it is given, and releases the ones
// a failed send leaves unsent.
func (e *Endpoint) sendFaulty(p transport.Proc, dstNode int, msg []byte, held *[]byte, heldDst *int, send func(transport.Proc, int, []byte) error) error {
	sv := e.draw(dstNode, msg, held, heldDst)
	if sv.msg == nil {
		return nil
	}
	if err := send(p, dstNode, sv.msg); err != nil {
		e.pool.Put(sv.twin)
		e.pool.Put(sv.flush)
		return err
	}
	if sv.twin != nil {
		if err := send(p, dstNode, sv.twin); err != nil {
			e.pool.Put(sv.flush)
			return err
		}
	}
	if sv.flush != nil {
		return send(p, sv.flushDst, sv.flush)
	}
	return nil
}

// pooled returns a copy of msg in a buffer from the job's pool, for the
// inner transport to own.
func (e *Endpoint) pooled(msg []byte) []byte {
	cp := e.pool.Get(len(msg))
	copy(cp, msg)
	return cp
}

// Send applies drop/dup/reorder to msg, then forwards the survivors to
// the inner transport.
func (e *Endpoint) Send(p transport.Proc, dstNode int, msg []byte) error {
	return e.sendFaulty(p, dstNode, msg, &e.held, &e.heldDst, e.inner.Send)
}

// SendOneSided applies the same drop/dup/reorder machinery to one-sided
// frames, with a held-message slot of its own so the two lanes reorder
// independently (a parked put can never block a wire send's flush).
func (e *Endpoint) SendOneSided(p transport.Proc, dstNode int, frame []byte) error {
	return e.sendFaulty(p, dstNode, frame, &e.heldOS, &e.heldOSDst, e.inner.SendOneSided)
}

// recvFaulty injects latency on a successfully received message with
// probability Config.Delay.
func (e *Endpoint) recvFaulty(p transport.Proc, msg []byte, err error) ([]byte, error) {
	if err != nil {
		return msg, err
	}
	if d := e.delay(); d > 0 {
		sleepFor(p, d)
	}
	return msg, nil
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

// Steps returns the endpoint's step forms when the transport it wraps has
// them (simmpi.Steps), nil otherwise.
func (e *Endpoint) Steps() simmpi.Stepper {
	if e.step == nil {
		return nil
	}
	return e
}

// SendStep is the step form of Send and SendOneSided: it draws op's fault
// decisions on its first step, queues the duplicate and any flushed message
// behind op's own frame, and forwards the op; a dropped or held-back frame
// completes the op at once.
func (e *Endpoint) SendStep(p *sim.Proc, op *simmpi.SendOp) bool {
	if op.Mid == 0 {
		op.Mid = 1
		held, heldDst := &e.held, &e.heldDst
		if op.OneSided {
			held, heldDst = &e.heldOS, &e.heldOSDst
		}
		sv := e.draw(op.Dst, op.Msg, held, heldDst)
		if sv.msg == nil {
			return true
		}
		if sv.twin != nil {
			op.Then(op.Dst, sv.twin)
		}
		if sv.flush != nil {
			op.Then(sv.flushDst, sv.flush)
		}
	}
	return e.step.SendStep(p, op)
}

// RecvStep is the step form of RecvMsg and RecvOneSided: the inner
// receive, then the injected latency, if one is drawn, as p's next wake.
func (e *Endpoint) RecvStep(p *sim.Proc, op *simmpi.RecvOp) bool {
	if op.Mid != 0 {
		return true // the delay is over
	}
	if !e.step.RecvStep(p, op) {
		return false
	}
	if d := e.delay(); d > 0 {
		op.Mid = 1
		p.SleepStep(d)
		return false
	}
	return true
}

// RecvMsg forwards the inner receive, injecting latency on delivery with
// probability Config.Delay.
func (e *Endpoint) RecvMsg(p transport.Proc) ([]byte, error) {
	msg, err := e.inner.RecvMsg(p)
	return e.recvFaulty(p, msg, err)
}

// RecvOneSided forwards the inner one-sided receive, injecting latency on
// delivery with probability Config.Delay.
func (e *Endpoint) RecvOneSided(p transport.Proc) ([]byte, error) {
	frame, err := e.inner.RecvOneSided(p)
	return e.recvFaulty(p, frame, err)
}

// sleepFor charges an injected delay on whatever clock the backend runs:
// virtual time on the simulator, real time on the live backend (whose
// WallProc sleeps are deliberate no-ops, because modeled costs there are
// replaced by real execution time — an injected delay is real time).
func sleepFor(p transport.Proc, d time.Duration) {
	if _, wall := p.(*transport.WallProc); wall {
		time.Sleep(d)
		return
	}
	p.Sleep(d)
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

// Barrier runs the inner barrier unless this round is failed.
func (e *Endpoint) Barrier(p transport.Proc) error {
	if err := e.failCollective(); err != nil {
		return err
	}
	return e.inner.Barrier(p)
}

// Bcast runs the inner broadcast unless this round is failed.
func (e *Endpoint) Bcast(p transport.Proc, buf []byte, rootNode int) error {
	if err := e.failCollective(); err != nil {
		return err
	}
	return e.inner.Bcast(p, buf, rootNode)
}

// Gatherv runs the inner gather unless this round is failed.
func (e *Endpoint) Gatherv(p transport.Proc, sendBuf, recvBuf []byte, counts []int, rootNode int) error {
	if err := e.failCollective(); err != nil {
		return err
	}
	return e.inner.Gatherv(p, sendBuf, recvBuf, counts, rootNode)
}

// Scatterv runs the inner scatter unless this round is failed.
func (e *Endpoint) Scatterv(p transport.Proc, sendBuf []byte, counts []int, recvBuf []byte, rootNode int) error {
	if err := e.failCollective(); err != nil {
		return err
	}
	return e.inner.Scatterv(p, sendBuf, counts, recvBuf, rootNode)
}

// Alltoallv runs the inner all-to-all unless this round is failed.
func (e *Endpoint) Alltoallv(p transport.Proc, sendBuf []byte, sendCounts []int, recvBuf []byte, recvCounts []int) error {
	if err := e.failCollective(); err != nil {
		return err
	}
	return e.inner.Alltoallv(p, sendBuf, sendCounts, recvBuf, recvCounts)
}

// Close drops any held messages and closes the inner transport.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	e.held = nil
	e.heldOS = nil
	e.mu.Unlock()
	return e.inner.Close()
}
