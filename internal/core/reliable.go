package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

// The wire lane. A node talks to its peers over two frame streams, the two
// lanes of transport.Transport: the two-sided lane (feeding the comm
// thread's intake) and, once the node has made a one-sided call, the
// one-sided lane (feeding the window sink). Below the point where a
// received frame is handed on, the two are the same machine, so there is
// one relLane type and a node makes it once per lane, differing only in
// the frame layout, the lane flag of its transport ops and where deliver
// hands an arrival.
//
// With Config.Reliability on, a lane numbers every frame per (sender node,
// receiver node), the receiver acknowledges every data frame and
// resequences out-of-order arrivals, and the sender retransmits on ack
// timeout with capped exponential backoff. A lossy transport
// (internal/transport/faults) then degrades throughput instead of
// deadlocking a receive forever, and per-pair FIFO order — DCGN's matching
// rule, and the apply order of puts from one origin — survives drops,
// duplicates and reordering. Each lane has a sequence space of its own:
// numbering the streams jointly would couple their FIFOs and put one-sided
// traffic back behind the comm thread. With reliability off a lane sends
// each frame once and delivers each arrival as it comes.

// ErrUnacked is reported by a send whose wire frame was never acknowledged
// within Reliability.MaxRetries retransmissions — the reliability layer's
// "the peer is unreachable" verdict.
var ErrUnacked = errors.New("dcgn: send unacknowledged after retries")

// relKey identifies one in-flight frame: the peer node and the sequence
// number on that node pair.
type relKey struct {
	node int
	seq  uint64
}

// relWaiter is a sender-side record of an unacknowledged frame: the frame
// (msg, which the lane keeps until the frame is acknowledged or given up
// on), its key, the attempt the sender is on and the cancel of that
// attempt's retransmit timer. ev is the completion the sender currently
// waits on (made again per retry, in evs on the simulated backend:
// rt.EventIn); the ack path and the retransmit timer both fire it, and
// acked — read and written only under relSeq.mu — disambiguates which
// happened.
type relWaiter struct {
	ev      completion
	evs     sim.Event
	acked   bool
	key     relKey
	msg     []byte
	attempt int
	cancel  func()
}

// relStats counts one node's reliability traffic over both lanes: a
// retransmitted put is a retransmission, whichever lane carried it. Only
// badFrames, the arrivals that did not decode, counts on unreliable lanes
// too.
type relStats struct {
	retransmits  int64
	dupFrames    int64
	acksSent     int64
	acksReceived int64
	badFrames    int64
}

// relLane is one node's end of one frame stream. Its receiver and every
// frame it sends are step machines, each written once (step and txFrame)
// over the transport's step forms: a simulated sender or receiver is a
// stackless proc, and on the live backend each form blocks in place.
type relLane struct {
	ns       *nodeState
	layout   layout
	oneSided bool
	// seq is the lane's sequencing state under Config.Reliability; nil
	// otherwise.
	seq *relSeq
	// The receiver's state between its steps: the transport receive in
	// flight, and the arrived frame being delivered (rxMsg, from node
	// rxSrc), whose deliver has registered a wake when rxAgain is set. The
	// frame is kept packed and decoded again when the receiver wakes, so
	// that every node's lane holds a slice, not a decoded frame.
	rx      transport.RecvOp
	rxMsg   []byte
	rxSrc   int
	rxAgain bool
}

// relSeq is a reliable lane's bookkeeping. Senders are any thread that
// posts a frame — the comm thread's tx helpers, CPU kernels, NIC daemons,
// reply helpers — so nextTx and waiters are guarded by mu, which is never
// held across a blocking operation: on the simulated backend a proc
// parking with a sync.Mutex held would wedge the cooperative scheduler
// (completion.Fire does not block; Wait does and is always called
// unlocked). nextRx and held belong to the lane's receiver daemon.
type relSeq struct {
	mu      sync.Mutex
	nextTx  []uint64 // per dst node: next sequence to assign
	waiters map[relKey]*relWaiter

	nextRx []uint64           // per src node: next sequence to deliver
	held   []map[uint64]frame // per src node: out-of-order frames parked
}

// init makes l ns's lane, reusing the tables of the one a recycled engine
// held (nodeState.reset).
func (l *relLane) init(ns *nodeState, oneSided bool) {
	cfg := &ns.job.cfg
	seq := l.seq
	*l = relLane{
		ns: ns, layout: laneLayout(oneSided, cfg.Reliability.Enabled, ns.flowsOn), oneSided: oneSided,
		rx: transport.RecvOp{OneSided: oneSided},
	}
	if cfg.Reliability.Enabled {
		if seq == nil {
			seq = &relSeq{waiters: make(map[relKey]*relWaiter)}
		}
		clear(seq.waiters)
		seq.nextTx, seq.nextRx = zeroed(seq.nextTx, cfg.Nodes), zeroed(seq.nextRx, cfg.Nodes)
		seq.held = zeroed(seq.held, cfg.Nodes)
		l.seq = seq
	}
}

// zeroed returns n zero values in s's backing, or in a new one when s's is
// too short.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// assignSeq takes the next sequence number towards dstNode. A sender calls
// it at the point that fixes the frame's place in the stream — handleSend
// on the comm thread, before concurrent tx helpers race to the transport.
func (l *relLane) assignSeq(dstNode int) uint64 {
	s := l.seq
	if s == nil {
		return 0
	}
	s.mu.Lock()
	seq := s.nextTx[dstNode]
	s.nextTx[dstNode]++
	s.mu.Unlock()
	return seq
}

// relBackoff returns the ack timeout for the given attempt number:
// AckTimeout doubled per retry, capped at BackoffCap.
func relBackoff(r Reliability, attempt int) time.Duration {
	d := r.AckTimeout
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= r.BackoffCap {
			return r.BackoffCap
		}
	}
	if d > r.BackoffCap {
		return r.BackoffCap
	}
	return d
}

// txFrame is one frame on its way out through a lane, as a step machine:
// the state of transmit. An unreliable lane hands the frame itself to the
// transport. A reliable one keeps it until the frame is acknowledged,
// sending a pooled copy per attempt and retransmitting on ack timeout
// until the retry budget is spent or the transport fails hard, and then
// releases it. The retransmit timer is armed only after the send
// completes, so a rendezvous transfer never eats into its own ack timeout.
// sentAt, when not nil, receives the time the frame first reached the
// wire.
type txFrame struct {
	l      *relLane
	op     transport.SendOp
	sentAt *time.Duration
	w      *relWaiter
	err    error
	phase  uint8
}

// The phases of a txFrame.
const (
	txAttempt uint8 = iota // a reliable lane's attempt sends a pooled copy
	txSend                 // the transport send of this attempt
	txAck                  // waiting for the ack or the retransmit timer
	txDone
)

// startTx readies t to transmit the packed frame msg, numbered seq, to
// dstNode; the lane owns msg from here, and a reliable one registers it.
func (l *relLane) startTx(t *txFrame, dstNode int, seq uint64, msg []byte, sentAt *time.Duration) {
	*t = txFrame{l: l, op: transport.SendOp{Dst: dstNode, Msg: msg, OneSided: l.oneSided}, sentAt: sentAt}
	if s := l.seq; s != nil {
		t.w = &relWaiter{key: relKey{dstNode, seq}, msg: msg}
		t.w.ev = l.ns.rt.EventIn(&t.w.evs, "rel-wait", int(seq))
		s.mu.Lock()
		s.waiters[t.w.key] = t.w
		s.mu.Unlock()
	}
}

// transmit puts the packed frame msg, numbered seq, on the wire to dstNode
// inline on the calling proc, blocking until it is sent (acknowledged, on
// a reliable lane), and takes ownership of msg: txFrame driven in place.
func (l *relLane) transmit(h transport.Proc, dstNode int, seq uint64, msg []byte, sentAt *time.Duration) error {
	t := new(txFrame)
	l.startTx(t, dstNode, seq, msg, sentAt)
	defer t.Drop()
	for !t.step(h) {
		await(h)
	}
	return t.err
}

// step advances the transmit; it has ended when it returns true, with the
// outcome in t.err.
func (t *txFrame) step(h transport.Proc) bool {
	l := t.l
	ns, s := l.ns, l.seq
	cfg := ns.job.cfg.Reliability
	for {
		switch t.phase {
		case txAttempt:
			t.phase = txSend
			if w := t.w; w != nil {
				t.op = transport.SendOp{Dst: w.key.node, Msg: ns.job.pool.Get(len(w.msg)), OneSided: l.oneSided}
				copy(t.op.Msg, w.msg)
			}
		case txSend:
			done, err := ns.tr.SendStep(h, &t.op)
			if !done {
				return false
			}
			if err != nil {
				t.err = err
				return t.end()
			}
			if t.sentAt != nil && *t.sentAt == 0 {
				*t.sentAt = h.Now()
			}
			w := t.w
			if w == nil {
				t.phase = txDone
				return true
			}
			s.mu.Lock()
			acked, ev := w.acked, w.ev
			s.mu.Unlock()
			if acked {
				return t.end()
			}
			w.cancel = ns.rt.After(relBackoff(cfg, w.attempt), ev.Fire)
			t.phase = txAck
		case txAck:
			w := t.w
			if !w.ev.WaitStep(h) {
				return false
			}
			w.cancel()
			s.mu.Lock()
			acked := w.acked
			if !acked && w.attempt < cfg.MaxRetries {
				// Timed out: re-arm with a fresh completion and go around
				// for a retransmission. The spent one's storage is safe to
				// make again: the timer that fired it has ended, and the ack
				// path fires only the w.ev it reads under this lock.
				w.ev = ns.rt.EventIn(&w.evs, "rel-wait", int(w.key.seq))
			}
			s.mu.Unlock()
			if acked {
				return t.end()
			}
			if w.attempt >= cfg.MaxRetries {
				t.err = fmt.Errorf("dcgn: node %d seq %d to node %d: %w", ns.node, w.key.seq, w.key.node, ErrUnacked)
				return t.end()
			}
			atomic.AddInt64(&ns.rel.retransmits, 1)
			if m := ns.job.metrics; m != nil {
				m.observe(histKey{kind: histBackoff}, int64(relBackoff(cfg, w.attempt)))
			}
			w.attempt++
			t.phase = txAttempt
		default:
			return true
		}
	}
}

// end ends the transmit: a reliable lane forgets the frame and releases
// it.
func (t *txFrame) end() bool {
	t.phase = txDone
	if w := t.w; w != nil {
		s := t.l.seq
		s.mu.Lock()
		delete(s.waiters, w.key)
		s.mu.Unlock()
		t.l.ns.job.pool.Put(w.msg)
	}
	return true
}

// Drop ends a transmit its proc was killed in the middle of, as end does
// (sim.Dropper); the frame on the wire is the transport's.
func (t *txFrame) Drop() {
	if t.phase != txDone {
		t.end()
	}
}

// relAck is a rel-ack helper: one ack frame on its way to its peer.
type relAck struct {
	l  *relLane
	op transport.SendOp
}

// step sends the ack. Best-effort: a dropped or post-close ack is recovered
// by the sender's retransmission, which the receiver will re-ack.
func (a *relAck) step(h transport.Proc) bool {
	done, _ := a.l.ns.tr.SendStep(h, &a.op)
	return done
}

// sendAck acknowledges seq to peerNode from a spawned helper so the
// receiver never blocks in a transport send (two receivers synchronously
// acking into each other's full inbound queues would deadlock). The helper
// is not a daemon: the run stays alive until the ack is handed to the
// transport, which owns it from then on.
func (l *relLane) sendAck(peerNode int, seq uint64) {
	ns := l.ns
	ack := packFrame(ns.job.pool, l.layout, &frame{kind: kindAck, src: ns.node, seq: seq})
	atomic.AddInt64(&ns.rel.acksSent, 1)
	ns.rt.SpawnStep("rel-ack", ns.node, &relAck{l: l, op: transport.SendOp{Dst: peerNode, Msg: ack, OneSided: l.oneSided}}, false, true)
}

// admit takes one arrived frame on a reliable lane and reports whether it
// is the next in order from its node (src), to be delivered now. An ack
// resolves its waiter (late and duplicate acks find none and are no-ops).
// A data frame is always (re-)acknowledged — the previous ack may itself
// have been the frame the fabric dropped — then deduplicated, or parked
// until the gap before it fills, so deliver observes per-node-pair FIFO
// order no matter what order the wire produced.
func (l *relLane) admit(f frame) (src int, next bool) {
	ns, s := l.ns, l.seq
	if f.kind == kindAck {
		atomic.AddInt64(&ns.rel.acksReceived, 1)
		s.mu.Lock()
		if w, ok := s.waiters[relKey{f.src, f.seq}]; ok && !w.acked {
			w.acked = true
			w.ev.Fire()
		}
		s.mu.Unlock()
		ns.job.pool.Put(f.backing)
		return 0, false
	}
	src = ns.job.rmap.Node(f.src)
	l.sendAck(src, f.seq)
	switch next := s.nextRx[src]; {
	case f.seq < next:
		// Already delivered: a retransmission whose ack was lost.
		l.dropDup(f)
	case f.seq == next:
		return src, true
	default:
		// Ahead of the cursor: park it until the gap fills (the sender
		// retransmits the missing frame until we ack it, so it will).
		if _, parked := s.held[src][f.seq]; parked {
			l.dropDup(f)
			break
		}
		if s.held[src] == nil {
			s.held[src] = make(map[uint64]frame)
		}
		s.held[src][f.seq] = f
	}
	return src, false
}

// dropDup counts and releases a data frame the lane has already seen.
func (l *relLane) dropDup(f frame) {
	atomic.AddInt64(&l.ns.rel.dupFrames, 1)
	l.ns.job.pool.Put(f.backing)
}

// releaseHeld returns parked out-of-order frames to the pool; called when
// the receiver unwinds on a closed transport (live teardown can close the
// wire with unfilled gaps still parked).
func (l *relLane) releaseHeld() {
	if l.seq == nil {
		return
	}
	for _, m := range l.seq.held {
		for seq, f := range m {
			l.ns.job.pool.Put(f.backing)
			delete(m, seq)
		}
	}
}

// step is the lane's receiver, a daemon: it receives each frame, drops
// what does not decode, admits it on a reliable lane and delivers what is
// in order — on a reliable lane, then every parked frame the delivery
// brings into order. The take-ownership receive hands over the sender's
// pooled wire buffer directly — no staging buffer and no copy; the payload
// aliases it until deliver's consumer returns it to the pool. It ends only
// when the transport is closed (live backend teardown).
func (l *relLane) step(h transport.Proc) bool {
	for {
		var f frame
		if l.rxMsg != nil {
			f, _ = unpackFrame(l.layout, l.rxMsg) // it decoded when it arrived
		} else {
			done, err := l.ns.tr.RecvStep(h, &l.rx)
			if !done {
				return false
			}
			msg := l.rx.Take()
			if err != nil {
				if errors.Is(err, transport.ErrClosed) {
					l.releaseHeld()
					return true // transport shut down (live backend teardown)
				}
				panic(fmt.Sprintf("dcgn: receiver on node %d: %v", l.ns.node, err))
			}
			if f, err = unpackFrame(l.layout, msg); err != nil {
				// Outside bytes that do not decode: drop and count them. A
				// reliable sender retransmits the frame they were meant to be.
				atomic.AddInt64(&l.ns.rel.badFrames, 1)
				l.ns.job.pool.Put(msg)
				continue
			}
			if l.seq != nil {
				src, next := l.admit(f)
				if !next {
					continue
				}
				l.rxSrc = src
			}
			l.rxMsg = msg
		}
		if !l.deliver(h, f, l.rxAgain) {
			l.rxAgain = true
			return false
		}
		l.rxMsg, l.rxAgain = nil, false
		if s := l.seq; s != nil {
			src := l.rxSrc
			s.nextRx[src]++
			if g, ok := s.held[src][s.nextRx[src]]; ok {
				delete(s.held[src], g.seq)
				l.rxMsg = g.backing
			}
		}
	}
}

// deliver hands the in-order data frame f (and its backing buffer) on as a
// step form: it reports whether f is handed on, and otherwise has
// registered h's next wake, after which the receiver calls it again with
// again set. A two-sided arrival is charged the relay cost, then funneled
// to the comm thread, which returns the wire buffer to the pool once it has
// delivered the payload — or hands it to the GPU receive that adopts it.
// A one-sided one is dispatched in place, straight into its window (the
// intake/matcher layers never see this traffic), by the sink's step form.
func (l *relLane) deliver(h transport.Proc, f frame, again bool) bool {
	ns := l.ns
	if l.oneSided {
		return ns.osDispatchStep(h, &f)
	}
	if !again && !sleepStep(h, ns.jit, ns.job.cfg.Params.RemoteRelayCost) {
		return false
	}
	in := ns.ins.Get()
	*in = inbound{src: f.src, dst: f.dst, data: f.payload, backing: f.backing, traceID: f.traceID, spanID: f.spanID}
	ns.intake.postInbound(in)
	return true
}

// Drop takes back the receive a killed receiver leaves posted
// (sim.Dropper).
func (l *relLane) Drop() { l.rx.Drop() }
