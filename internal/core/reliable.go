package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcgn/internal/transport"
)

// The wire lane. A node talks to its peers over two frame streams, the two
// lanes of transport.Transport: the two-sided lane (Send/RecvMsg, feeding
// the comm thread's intake) and, once the node has made a one-sided call,
// the one-sided lane (feeding the window sink). Below the point where a
// received frame is handed on, the two are the same machine, so there is
// one relLane type and a node makes it once per lane, differing only in
// the frame layout and in the transport functions and the deliver step of
// its laneEnd.
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

// relWaiter is a sender-side record of an unacknowledged frame. ev is the
// completion the sender currently waits on (re-created per retry); the
// ack path and the retransmit timer both fire it, and acked — read and
// written only under relSeq.mu — disambiguates which happened.
type relWaiter struct {
	ev    completion
	acked bool
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

// laneEnd is what differs between a node's two frame streams: the
// transport functions that move a packed frame, and the step that takes an
// in-order data frame (and its backing buffer) from the receiver daemon.
// Both implementations (twoSidedEnd, oneSidedEnd) are pointer conversions
// of state the node has anyway, so a lane costs no allocation of its own.
type laneEnd interface {
	send(p transport.Proc, dstNode int, msg []byte) error
	recv(p transport.Proc) ([]byte, error)
	deliver(p transport.Proc, f frame)
}

// relLane is one node's end of one frame stream.
type relLane struct {
	ns     *nodeState
	end    laneEnd
	layout layout
	// seq is the lane's sequencing state under Config.Reliability; nil
	// otherwise.
	seq *relSeq
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

func (l *relLane) init(ns *nodeState, end laneEnd, oneSided bool) {
	cfg := &ns.job.cfg
	*l = relLane{ns: ns, end: end, layout: laneLayout(oneSided, cfg.Reliability.Enabled, ns.flowsOn)}
	if cfg.Reliability.Enabled {
		l.seq = &relSeq{
			nextTx:  make([]uint64, cfg.Nodes),
			waiters: make(map[relKey]*relWaiter),
			nextRx:  make([]uint64, cfg.Nodes),
			held:    make([]map[uint64]frame, cfg.Nodes),
		}
	}
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

// transmit puts the packed frame msg, numbered seq, on the wire to dstNode,
// inline on the calling proc, and takes ownership of msg. An unreliable
// lane hands msg itself to the transport. A reliable one keeps msg until
// the frame is acknowledged, sending a pooled copy per attempt and
// retransmitting on ack timeout until the retry budget is spent or the
// transport fails hard, and then releases it. The retransmit timer is
// armed only after send returns, so a rendezvous transfer never eats into
// its own ack timeout. sentAt, when not nil, receives the time the frame
// first reached the wire.
func (l *relLane) transmit(h transport.Proc, dstNode int, seq uint64, msg []byte, sentAt *time.Duration) error {
	ns, s := l.ns, l.seq
	cfg := ns.job.cfg.Reliability
	key := relKey{dstNode, seq}
	var w *relWaiter
	if s != nil {
		w = &relWaiter{ev: ns.rt.NewEventID("rel-wait", int(seq))}
		s.mu.Lock()
		s.waiters[key] = w
		s.mu.Unlock()
		defer func() {
			s.mu.Lock()
			delete(s.waiters, key)
			s.mu.Unlock()
			ns.job.pool.Put(msg)
		}()
	}
	for attempt := 0; ; attempt++ {
		wire := msg
		if s != nil {
			wire = ns.job.pool.Get(len(msg))
			copy(wire, msg)
		}
		if err := l.end.send(h, dstNode, wire); err != nil {
			return err
		}
		if sentAt != nil && *sentAt == 0 {
			*sentAt = h.Now()
		}
		if s == nil {
			return nil
		}
		s.mu.Lock()
		acked, ev := w.acked, w.ev
		s.mu.Unlock()
		if acked {
			return nil
		}
		cancel := ns.rt.After(relBackoff(cfg, attempt), ev.Fire)
		ev.Wait(h)
		cancel()
		s.mu.Lock()
		acked = w.acked
		if !acked && attempt < cfg.MaxRetries {
			// Timed out: re-arm with a fresh completion (the old one is
			// spent) and go around for a retransmission.
			w.ev = ns.rt.NewEventID("rel-wait", int(seq))
		}
		s.mu.Unlock()
		if acked {
			return nil
		}
		if attempt >= cfg.MaxRetries {
			return fmt.Errorf("dcgn: node %d seq %d to node %d: %w", ns.node, seq, dstNode, ErrUnacked)
		}
		atomic.AddInt64(&ns.rel.retransmits, 1)
		if m := ns.job.metrics; m != nil {
			m.observe(histKey{kind: histBackoff}, int64(relBackoff(cfg, attempt)))
		}
	}
}

// sendAck acknowledges seq to peerNode from a spawned helper so the
// receiver daemon never blocks in a transport send (two receivers
// synchronously acking into each other's full inbound queues would
// deadlock). The helper is a worker, not a daemon: the run stays alive
// until the ack is handed to the transport, which owns it from then on.
func (l *relLane) sendAck(peerNode int, seq uint64) {
	ns := l.ns
	ack := packFrame(ns.job.pool, l.layout, &frame{kind: kindAck, src: ns.node, seq: seq})
	atomic.AddInt64(&ns.rel.acksSent, 1)
	ns.rt.SpawnID("rel-ack", ns.node, func(h transport.Proc) {
		// Best-effort: a dropped or post-close ack is recovered by the
		// sender's retransmission, which we will re-ack.
		_ = l.end.send(h, peerNode, ack)
	})
}

// receive dispatches one sequenced frame inside the receiver daemon. An
// ack resolves its waiter (late and duplicate acks find none and are
// no-ops). A data frame is always (re-)acknowledged — the previous ack may
// itself have been the frame the fabric dropped — then deduplicated and
// resequenced, so deliver observes per-node-pair FIFO order no matter what
// order the wire produced.
func (l *relLane) receive(p transport.Proc, f frame) {
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
		return
	}
	src := ns.job.rmap.Node(f.src)
	l.sendAck(src, f.seq)
	switch next := s.nextRx[src]; {
	case f.seq < next:
		// Already delivered: a retransmission whose ack was lost.
		l.dropDup(f)
	case f.seq == next:
		l.end.deliver(p, f)
		s.nextRx[src]++
		for {
			g, ok := s.held[src][s.nextRx[src]]
			if !ok {
				break
			}
			delete(s.held[src], g.seq)
			l.end.deliver(p, g)
			s.nextRx[src]++
		}
	default:
		// Ahead of the cursor: park it until the gap fills (the sender
		// retransmits the missing frame until we ack it, so it will).
		if _, parked := s.held[src][f.seq]; parked {
			l.dropDup(f)
			return
		}
		if s.held[src] == nil {
			s.held[src] = make(map[uint64]frame)
		}
		s.held[src][f.seq] = f
	}
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

// run is the lane's receiver daemon. The take-ownership receive hands over
// the sender's pooled wire buffer directly — no staging buffer and no
// copy; the payload aliases it until deliver's consumer returns it to the
// pool.
func (l *relLane) run(p transport.Proc) {
	for {
		msg, err := l.end.recv(p)
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				l.releaseHeld()
				return // transport shut down (live backend teardown)
			}
			panic(fmt.Sprintf("dcgn: receiver on node %d: %v", l.ns.node, err))
		}
		f, err := unpackFrame(l.layout, msg)
		if err != nil {
			// Outside bytes that do not decode: drop and count them. A
			// reliable sender retransmits the frame they were meant to be.
			atomic.AddInt64(&l.ns.rel.badFrames, 1)
			l.ns.job.pool.Put(msg)
			continue
		}
		if l.seq != nil {
			l.receive(p, f)
		} else {
			l.end.deliver(p, f)
		}
	}
}
