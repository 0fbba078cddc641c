package core

import (
	"fmt"
	"sync"
	"time"

	"dcgn/internal/device"
	"dcgn/internal/obs"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

// One-sided communication: Put/Get against registered memory windows,
// with remote-completion notification (WinWait) and — on the GPU side
// (gputrigger.go) — triggered operations the NIC daemon fires straight
// from a device descriptor ring.
//
// The lane deliberately bypasses the whole two-sided progress engine. A
// classic device-sourced send costs two PCIe control trips plus
// sleep-based polling per message (paper §5.2: poll, copy, notify — each
// landing on a poll tick) and then rides intake → matcher → transport on
// the comm thread. A one-sided frame is posted directly by the producing
// thread onto the transport's one-sided lane and applied directly into the
// target window by the target's sink daemon: no comm-thread dispatch, no
// matching, no monitor poll tick anywhere on the critical path.
//
// The lane is not a mode. Every transport carries it and a node brings its
// end up — window registry, sink daemon — on its first one-sided call
// (osRequire), so a job that never touches a window builds, allocates and
// spawns nothing for it. Every operation has one target side (osTarget),
// run by the sink daemon for a frame off the wire and by the origin itself
// when the target shares its node; the same-node case then packs no frame,
// spawns no reply helper, records no apply/serve span and feeds no
// remote-completion histogram.
//
// Semantics, aligned with the engine's two-sided conventions:
//
//   - Windows are identified by (owning rank, window id). Registration is
//     local (CPUCtx.RegisterWindow / GPUSetup.RegisterWindow); as with
//     MPI window creation, every rank must register before any peer
//     targets it — a Barrier after registration is the canonical pattern.
//     A frame for a node that has made no one-sided call yet waits in the
//     transport like an unmatched two-sided send, until that node's first
//     call brings its sink up.
//   - Truncation is target-side, like receives: a put overflowing its
//     window is clipped (the window counts it in WinStats.Truncated) and
//     still completes; a get larger than the window returns the clipped
//     bytes and ErrTruncate at the origin.
//   - Ordering: puts from one origin node apply at each target in post
//     order (under Config.Reliability the lane has its own seq/ack space,
//     so the order survives drops, duplicates and reordering); puts from
//     different nodes have no mutual order, exactly like network RDMA.
//   - Completion: Put returns when the frame is on the wire (and
//     acknowledged, under reliability); the TARGET observes delivery via
//     WinWait's arrival count — the remote-completion notification.

// osWinKey identifies a registered window: the owning rank and the
// application-chosen window id.
type osWinKey struct {
	rank int
	id   int
}

// osWaiter is one WinWait blocked on an arrival threshold. On the
// simulated backend ev is made in evs (rt.EventIn), so a wait allocates
// the waiter alone.
type osWaiter struct {
	target int64
	ev     completion
	evs    sim.Event
}

// osWindow is one registered one-sided window: host memory for CPU ranks,
// device memory (applied over the PCIe payload path) for GPU slots.
type osWindow struct {
	key  osWinKey
	host []byte     // non-nil for host windows
	gt   *gpuThread // non-nil for device windows
	ptr  device.Ptr
	size int

	// mu guards arrivals, truncs and waiters; never held across a
	// blocking operation (waiters are woken after unlock).
	mu       sync.Mutex
	arrivals int64
	truncs   int64
	waiters  []*osWaiter
}

// WinStats is a snapshot of one window's completion accounting.
type WinStats struct {
	// Arrivals counts puts applied into the window (remote completions).
	Arrivals int64
	// Truncated counts applied puts that were clipped to the window end.
	Truncated int64
}

// osGet is an origin-side pending get or fetch-and-op awaiting its reply
// frame; on the simulated backend done is made in ev (rt.EventIn).
type osGet struct {
	dst    []byte
	status CommStatus
	err    error
	done   completion
	ev     sim.Event
}

// osState is one node's one-sided engine: the lane its frames travel on
// (reliable.go — under Config.Reliability with a sequence space of its
// own, so the two frame streams cannot collide on (node, seq) keys), the
// window registry and the origin-side get correlation table.
type osState struct {
	ns   *nodeState
	lane relLane
	sink osSink

	// mu guards the window registry (registration is rare; lookups copy
	// the pointer out).
	mu      sync.Mutex
	windows map[osWinKey]*osWindow

	// getMu guards the origin-side pending-get table.
	getMu     sync.Mutex
	nextToken uint32
	gets      map[uint32]*osGet
}

// osRequire returns the node's one-sided engine, bringing it up — state,
// lane and sink daemon — on the node's first one-sided call. Every entry
// point passes through here, origins included: acks and replies come back
// to the origin's own sink. CPU kernels of one node race to it on the live
// backend, hence the Once.
func (ns *nodeState) osRequire() *osState {
	ns.osOnce.Do(func() {
		ns.osw = &osState{ns: ns, windows: make(map[osWinKey]*osWindow), gets: make(map[uint32]*osGet)}
		ns.osw.lane.init(ns, true)
		ns.rt.SpawnStep("os-recv", ns.node, &ns.osw.lane, true, true)
	})
	return ns.osw
}

// registerWindow adds one window to the node's registry. Double
// registration of a (rank, id) key is an application bug.
func (ns *nodeState) registerWindow(w *osWindow) {
	osw := ns.osRequire()
	osw.mu.Lock()
	defer osw.mu.Unlock()
	if _, dup := osw.windows[w.key]; dup {
		panic(fmt.Sprintf("dcgn: window %d already registered by rank %d", w.key.id, w.key.rank))
	}
	osw.windows[w.key] = w
}

// window resolves a registered window; a miss is an application ordering
// bug (puts raced registration — barrier after registering).
func (osw *osState) window(rank, id int) *osWindow {
	osw.mu.Lock()
	w := osw.windows[osWinKey{rank, id}]
	osw.mu.Unlock()
	if w == nil {
		panic(fmt.Sprintf("dcgn: one-sided target window (rank %d, id %d) not registered on node %d (register windows before any rank targets them)", rank, id, osw.ns.node))
	}
	return w
}

// winStats snapshots a locally-owned window's completion accounting.
func (osw *osState) winStats(rank, id int) WinStats {
	w := osw.window(rank, id)
	w.mu.Lock()
	defer w.mu.Unlock()
	return WinStats{Arrivals: w.arrivals, Truncated: w.truncs}
}

// arrive counts one applied put and wakes every WinWait whose threshold
// the new count reaches.
func (w *osWindow) arrive(clipped bool) {
	w.mu.Lock()
	w.arrivals++
	if clipped {
		w.truncs++
	}
	var fire []completion
	keep := w.waiters[:0]
	for _, ow := range w.waiters {
		if w.arrivals >= ow.target {
			fire = append(fire, ow.ev)
		} else {
			keep = append(keep, ow)
		}
	}
	clear(w.waiters[len(keep):])
	w.waiters = keep
	w.mu.Unlock()
	for _, ev := range fire {
		ev.Fire()
	}
}

// waitWindow blocks until the locally-owned window (rank, id) has
// accumulated at least target arrivals.
func (ns *nodeState) waitWindow(p transport.Proc, rank, id int, target int) {
	w := ns.osRequire().window(rank, id)
	w.mu.Lock()
	if w.arrivals >= int64(target) {
		w.mu.Unlock()
		return
	}
	ow := &osWaiter{target: int64(target)}
	ow.ev = ns.rt.EventIn(&ow.evs, "os-win", rank)
	w.waiters = append(w.waiters, ow)
	w.mu.Unlock()
	ow.ev.Wait(p)
}

// osTargetOp is the target side of one one-sided operation in progress,
// osTarget as a step form (osTargetStep): the window, the reply a request
// kind returns, whether the operation was clipped, and the bytes (or
// int64 elements, for an accumulate) it applies — -1 when it lies outside
// the window and applies nothing.
type osTargetOp struct {
	at      uint8
	w       *osWindow
	reply   []byte
	clipped bool
	n       int
}

// osTarget is the target side of every one-sided operation, run by the
// sink daemon for a frame off the wire and by the origin itself when the
// target shares its node: resolve the window, charge the apply cost, do
// what the frame's kind asks of the window, count a truncation. A request
// kind returns its reply payload in a pooled buffer (nil for a fetch-and-op
// whose slot lies outside the window). The arrival of a put-class
// operation is the caller's to signal — w.arrive(clipped), the
// remote-completion notification — once it has recorded what it observes
// of the apply: a WinWait released by arrive may end the run. A fetch-and-op
// that applied has nothing between its update and its arrival, so it
// arrives here; a get never arrives, and its clipping is the origin's
// ErrTruncate, not a truncation of the window's. It is osTargetStep driven
// in place.
func (ns *nodeState) osTarget(p transport.Proc, f *frame) (w *osWindow, reply []byte, clipped bool) {
	var t osTargetOp
	for !ns.osTargetStep(p, &t, f) {
		await(p)
	}
	return t.w, t.reply, t.clipped
}

// osTargetStep advances the target side of f as a step form: the apply
// cost, then the operation's charged copy — a host memcpy for host windows,
// a PCIe payload transfer for device windows — on either side of which it
// touches the window. On the live backend, where charges are nothing, one
// step is all of it.
func (ns *nodeState) osTargetStep(p transport.Proc, t *osTargetOp, f *frame) bool {
	if t.at == 0 {
		t.w = ns.osw.window(f.dst, f.os.win)
		t.at = 1
		if !sleepStep(p, ns.jit, ns.job.cfg.Params.OneSidedApplyCost) {
			return false
		}
	}
	if t.at == 1 {
		t.at = 2
		if !ns.osTargetStart(p, t, f) {
			return false
		}
	}
	ns.osTargetEnd(t, f)
	if t.clipped && f.kind != kindGetReq {
		ns.osTruncated.Add(1)
	}
	return true
}

// osTargetStart clips f's span to the window and starts its charged copy,
// reporting false when that registered p's wake: a host put copies before
// its charge, everything else after it (osTargetEnd).
func (ns *nodeState) osTargetStart(p transport.Proc, t *osTargetOp, f *frame) bool {
	w, off := t.w, f.os.offset
	switch f.kind {
	case kindPut:
		n := len(f.payload)
		if off >= w.size {
			t.n, t.clipped = -1, true
			return true
		}
		if off+n > w.size {
			n, t.clipped = w.size-off, true
		}
		t.n = n
		if w.host == nil {
			w.gt.xferStep(p.(*sim.Proc), false, n)
			return false
		}
		copy(w.host[off:off+n], f.payload[:n])
		return n == 0 || sleepStep(p, ns.jit, ns.memcpyTime(n))
	case kindAccum:
		w.hostWindow()
		n := len(f.payload) / 8
		if off < 0 || off >= w.size {
			t.n, t.clipped = -1, true
			return true
		}
		if avail := (w.size - off) / 8; n > avail {
			n, t.clipped = avail, true
		}
		t.n = n
		return n == 0 || sleepStep(p, ns.jit, ns.memcpyTime(8*n))
	case kindGetReq:
		n := int(f.os.aux)
		if off >= w.size {
			n, t.clipped = 0, true
		} else if off+n > w.size {
			n, t.clipped = w.size-off, true
		}
		t.n, t.reply = n, ns.job.pool.Get(n)
		if n == 0 {
			return true
		}
		if w.host == nil {
			w.gt.xferStep(p.(*sim.Proc), true, n)
			return false
		}
		copy(t.reply, w.host[off:off+n])
		return sleepStep(p, ns.jit, ns.memcpyTime(n))
	case kindFetchReq:
		w.hostWindow()
		if len(f.payload) < 8 {
			panic(fmt.Sprintf("dcgn: one-sided sink on node %d: fetch-and-op frame without operand", ns.node))
		}
		if off < 0 || off+8 > w.size {
			t.n, t.clipped = -1, true
			return true
		}
		t.n = 8
		return sleepStep(p, ns.jit, ns.memcpyTime(8))
	}
	return true
}

// osTargetEnd finishes f's operation on the window once its copy is
// charged: a device window's transfer lands, an atomic applies.
func (ns *nodeState) osTargetEnd(t *osTargetOp, f *frame) {
	w, off := t.w, f.os.offset
	if t.n < 0 {
		return
	}
	switch f.kind {
	case kindPut:
		if w.host == nil {
			copy(w.gt.dev.Bytes(w.ptr+device.Ptr(off), t.n), f.payload[:t.n])
		}
	case kindAccum:
		w.accumulate(off, AtomicOp(f.os.aux), f.payload[:8*t.n])
	case kindGetReq:
		if t.n > 0 && w.host == nil {
			w.gt.dev.Mem().Read(w.ptr+device.Ptr(off), t.reply[:t.n])
		}
	case kindFetchReq:
		t.reply = ns.job.pool.Get(8)
		w.fetchAndOp(off, AtomicOp(f.os.aux), t.reply, f.payload)
		w.arrive(false)
	}
}

// osDeliver is the origin side of a put-class operation (put, accumulate,
// triggered put) once its doorbell is charged: apply it here when the
// target shares the node, else send it on the lane (sequenced and
// acknowledged under Config.Reliability). wireSent is when the send
// returned, zero for a same-node apply.
func (ns *nodeState) osDeliver(p transport.Proc, f *frame) (wireSent time.Duration, err error) {
	if dstNode := ns.job.rmap.Node(f.dst); dstNode != ns.node {
		f.os.postedNs = int64(p.Now())
		err = ns.osSendFrame(p, dstNode, f)
		return p.Now(), err
	}
	w, _, clipped := ns.osTarget(p, f)
	w.arrive(clipped)
	return 0, nil
}

// osRequest is the origin side of a request-class operation (get,
// fetch-and-op) once its doorbell is charged: serve it here when the target
// shares the node, else park a token, send the request and wait for the
// sink to resolve the token with the reply. The reply payload lands in dst;
// a request that over-ran the window returns ErrTruncate with what fit.
// wireSent is when the send returned, zero for a same-node serve.
func (ns *nodeState) osRequest(p transport.Proc, f *frame, dst []byte) (st CommStatus, wireSent time.Duration, err error) {
	dstNode := ns.job.rmap.Node(f.dst)
	if dstNode == ns.node {
		_, reply, clipped := ns.osTarget(p, f)
		st = CommStatus{Source: f.dst, Bytes: copy(dst, reply)}
		ns.job.pool.Put(reply)
		if clipped {
			err = ErrTruncate
		}
		return st, 0, err
	}
	osw := ns.osw
	g := &osGet{dst: dst}
	g.done = ns.rt.EventIn(&g.ev, "os-req", f.src)
	osw.getMu.Lock()
	osw.nextToken++
	f.os.token = osw.nextToken
	osw.gets[f.os.token] = g
	osw.getMu.Unlock()
	f.os.postedNs = int64(p.Now())
	if err := ns.osSendFrame(p, dstNode, f); err != nil {
		osw.getMu.Lock()
		delete(osw.gets, f.os.token)
		osw.getMu.Unlock()
		return CommStatus{}, 0, err
	}
	wireSent = p.Now()
	g.done.Wait(p)
	return g.status, wireSent, g.err
}

// osPutFrom is the origin side of a put on behalf of srcRank: flow context,
// doorbell charge, delivery.
func (ns *nodeState) osPutFrom(p transport.Proc, srcRank, dstRank, winID, offset int, data []byte) error {
	ns.osRequire()
	var post time.Duration
	var spanID uint64
	if ns.flowsOn {
		post = p.Now()
		spanID = ns.job.trace.newSpanID(srcRank)
	}
	ns.charge(p, ns.job.cfg.Params.DoorbellCost)
	ns.osPuts.Add(1)
	wireSent, err := ns.osDeliver(p, &frame{
		kind: kindPut, src: srcRank, dst: dstRank, payload: data, traceID: spanID, spanID: spanID,
		os: osAddr{win: winID, offset: offset},
	})
	ns.recordFlowSpan(obs.Span{
		Op: "put", Node: ns.node, Rank: srcRank, Peer: dstRank, Bytes: len(data),
		Failed: err != nil, Post: post, WireSent: wireSent, Done: p.Now(),
		TraceID: spanID, SpanID: spanID,
	})
	return err
}

// osGetFrom is the origin side of a get on behalf of srcRank: it reads
// len(dst) bytes at offset from the window (dstRank, winID) into dst,
// returning ErrTruncate (with the delivered prefix) when the request
// over-runs the window.
func (ns *nodeState) osGetFrom(p transport.Proc, srcRank, dstRank, winID, offset int, dst []byte) (CommStatus, error) {
	ns.osRequire()
	var post time.Duration
	var spanID uint64
	if ns.flowsOn {
		post = p.Now()
		spanID = ns.job.trace.newSpanID(srcRank)
	}
	ns.charge(p, ns.job.cfg.Params.DoorbellCost)
	ns.osGets.Add(1)
	st, wireSent, err := ns.osRequest(p, &frame{
		kind: kindGetReq, src: srcRank, dst: dstRank, traceID: spanID, spanID: spanID,
		os: osAddr{win: winID, offset: offset, aux: uint64(len(dst))},
	}, dst)
	ns.recordFlowSpan(obs.Span{
		Op: "get", Node: ns.node, Rank: srcRank, Peer: dstRank, Bytes: st.Bytes,
		Failed: err != nil, Post: post, WireSent: wireSent, Done: p.Now(),
		TraceID: spanID, SpanID: spanID,
	})
	return st, err
}

// osSendFrame packs and transmits one data-class frame to dstNode on the
// one-sided lane, inline on the calling proc. Under Config.Reliability it
// takes the lane's next sequence number for the node pair and blocks until
// acknowledged.
func (ns *nodeState) osSendFrame(p transport.Proc, dstNode int, f *frame) error {
	msg := ns.osPack(dstNode, f)
	return ns.osw.lane.transmit(p, dstNode, f.seq, msg, nil)
}

// osPack readies a data-class frame for the one-sided lane to dstNode —
// its flow context, when its producer set none, and its place in the
// lane's stream — and packs it.
func (ns *nodeState) osPack(dstNode int, f *frame) []byte {
	lane := &ns.osw.lane
	if ns.flowsOn && f.spanID == 0 {
		// Catch-all flow-context assignment for frames whose producer did
		// not set one (atomics, GPU-triggered descriptors fired by the NIC
		// daemon): the frame roots a new flow at the issuing rank.
		f.spanID = ns.job.trace.newSpanID(f.src)
		if f.traceID == 0 {
			f.traceID = f.spanID
		}
	}
	f.seq = lane.assignSeq(dstNode)
	return packFrame(ns.job.pool, lane.layout, f)
}

// osSink is the one-sided lane's sink: the frame in hand's dispatch in
// progress — when it started (for its flow span) and its target side.
type osSink struct {
	started bool
	post    time.Duration
	t       osTargetOp
}

// osDispatchStep hands one in-order data-class frame to the sink's step for
// its class and, once it is handled, releases its backing buffer: a step
// form of the lane's receiver, which calls it again with the same frame
// after the wake it registered.
func (ns *nodeState) osDispatchStep(p transport.Proc, f *frame) bool {
	s := &ns.osw.sink
	if !s.started {
		s.started = true
		if ns.flowsOn {
			s.post = p.Now()
		}
	}
	switch f.kind {
	case kindPut, kindAccum:
		if !ns.osTargetStep(p, &s.t, f) {
			return false
		}
		ns.osApplied(p, f, s)
	case kindGetReq, kindFetchReq:
		if !ns.osTargetStep(p, &s.t, f) {
			return false
		}
		ns.osServed(p, f, s)
	case kindGetRep, kindFetchRep:
		ns.osResolve(p, f)
	default:
		panic(fmt.Sprintf("dcgn: one-sided sink on node %d: unexpected frame kind %d", ns.node, f.kind))
	}
	ns.job.pool.Put(f.backing)
	*s = osSink{}
	return true
}

// osApplied counts the remote completion of a put-class frame the sink has
// landed in its target window.
func (ns *nodeState) osApplied(p transport.Proc, f *frame, s *osSink) {
	w, clipped := s.t.w, s.t.clipped
	ns.observeRemoteComplete(p, f)
	if f.kind == kindPut && ns.flowsOn && f.spanID != 0 {
		// Target-side apply span, parented on the origin put's span so the
		// stitched flow crosses the wire.
		ns.recordFlowSpan(obs.Span{
			Op: "put-apply", Node: ns.node, Rank: f.dst, Peer: f.src, Bytes: len(f.payload),
			Failed: clipped, Post: s.post, Done: p.Now(),
			TraceID: f.traceID, SpanID: ns.job.trace.newSpanID(f.dst), ParentID: f.spanID,
		})
	}
	w.arrive(clipped)
}

// observeRemoteComplete feeds the remote-completion histogram with the
// origin-post to target-apply latency of f.
func (ns *nodeState) observeRemoteComplete(p transport.Proc, f *frame) {
	if m := ns.job.metrics; m != nil {
		if lat := int64(p.Now()) - f.os.postedNs; lat >= 0 {
			m.observe(histKey{kind: histRemoteComplete}, lat)
		}
	}
}

// osServed answers a request-class frame the sink has served with the next
// kind up (kindGetRep, kindFetchRep) under the requester's token, from a
// spawned helper so the sink daemon never blocks in a transport send.
func (ns *nodeState) osServed(p transport.Proc, f *frame, s *osSink) {
	reply, clipped := s.t.reply, s.t.clipped
	rep := frame{
		kind: f.kind + 1, src: f.dst, dst: f.src, payload: reply,
		os: osAddr{win: f.os.win, token: f.os.token, postedNs: f.os.postedNs},
	}
	if clipped {
		rep.flags = flagTrunc
	}
	if ns.flowsOn && f.spanID != 0 {
		// The reply joins the request's flow under a span minted for the
		// serving rank; a get records it as the target-side serve span,
		// parented on the request.
		rep.traceID = f.traceID
		rep.spanID = ns.job.trace.newSpanID(f.dst)
		if f.kind == kindGetReq {
			ns.recordFlowSpan(obs.Span{
				Op: "get-serve", Node: ns.node, Rank: f.dst, Peer: f.src, Bytes: len(reply),
				Failed: clipped, Post: s.post, Done: p.Now(),
				TraceID: f.traceID, SpanID: rep.spanID, ParentID: f.spanID,
			})
		}
	}
	ns.rt.SpawnStep("os-rep", ns.node, &osReply{ns: ns, dst: ns.job.rmap.Node(f.src), f: rep}, false, true)
}

// osReply is an os-rep helper: the reply frame of a served request, sent
// from a helper so the sink daemon never blocks in a transport send, and
// its payload released once it is on the wire.
type osReply struct {
	ns      *nodeState
	dst     int
	f       frame
	started bool
	tx      txFrame
}

// step packs the reply on its first step, as osSendFrame does, then
// transmits it. Best-effort on a closing transport, exactly like ack
// helpers: under reliability the requester retransmits the request.
func (r *osReply) step(h transport.Proc) bool {
	ns := r.ns
	if !r.started {
		r.started = true
		msg := ns.osPack(r.dst, &r.f)
		ns.osw.lane.startTx(&r.tx, r.dst, r.f.seq, msg, nil)
	}
	if !r.tx.step(h) {
		return false
	}
	ns.job.pool.Put(r.f.payload)
	return true
}

// Drop ends a reply its helper was killed sending (sim.Dropper).
func (r *osReply) Drop() { r.tx.Drop() }

// osResolve resolves one pending get or fetch-and-op with its reply payload.
func (ns *nodeState) osResolve(p transport.Proc, f *frame) {
	osw := ns.osw
	osw.getMu.Lock()
	g := osw.gets[f.os.token]
	delete(osw.gets, f.os.token)
	osw.getMu.Unlock()
	if g == nil {
		// Duplicate reply (reliability dedups, but a pre-reliability
		// duplicate or a late reply after teardown is tolerable to drop).
		return
	}
	n := copy(g.dst, f.payload)
	g.status = CommStatus{Source: f.src, Bytes: n}
	if f.flags&flagTrunc != 0 {
		g.err = ErrTruncate
	}
	ns.observeRemoteComplete(p, f)
	g.done.Fire()
}

// --- CPU-kernel one-sided API -------------------------------------------

// RegisterWindow exposes buf as this rank's one-sided window id: peers
// may Put into and Get from it without this rank posting receives. As
// with MPI window creation, register before any peer targets the window
// (a Barrier after registration is the canonical pattern).
func (c *CPUCtx) RegisterWindow(id int, buf []byte) {
	c.ns.registerWindow(&osWindow{key: osWinKey{c.rank, id}, host: buf, size: len(buf)})
}

// Put writes data into window winID of rank dst at offset, bypassing the
// comm thread entirely. It returns once the frame is on the wire
// (acknowledged, under Config.Reliability); the target observes delivery
// via WinWait. Writes overflowing the window are clipped target-side,
// like receive truncation.
//
// The target must have registered the window first. A node whose one-sided
// lane is up panics on a put into a window it does not know; a node that
// has made no one-sided call at all has no sink yet, so the frame waits in
// the transport like an unmatched two-sided send — and Put returns
// ErrUnacked under Config.Reliability.
func (c *CPUCtx) Put(dst, winID, offset int, data []byte) error {
	return c.ns.osPutFrom(c.tp, c.rank, dst, winID, offset, data)
}

// Get reads len(dst) bytes at offset from window winID of rank src into
// dst, blocking until the reply arrives. Requests over-running the window
// deliver the clipped prefix and ErrTruncate.
func (c *CPUCtx) Get(src, winID, offset int, dst []byte) (CommStatus, error) {
	return c.ns.osGetFrom(c.tp, c.rank, src, winID, offset, dst)
}

// WinWait blocks until this rank's window winID has accumulated at least
// arrivals applied puts — the remote-completion notification of the
// one-sided model.
func (c *CPUCtx) WinWait(winID, arrivals int) {
	c.ns.waitWindow(c.tp, c.rank, winID, arrivals)
}

// WinStats snapshots the completion accounting of this rank's window
// winID.
func (c *CPUCtx) WinStats(winID int) WinStats {
	return c.ns.osRequire().winStats(c.rank, winID)
}

// PersistentPut is a registered ("register once, fire many times")
// one-sided put: the header is packed at creation and every Start hands
// the lane a copy of it with the payload bytes, sequence number and
// timestamp refreshed — no per-fire descriptor building, the CPU-side
// analogue of a persistent MPI request. One Start at a time per handle.
type PersistentPut struct {
	c *CPUCtx
	// f is the put in parsed form (its payload is the caller's data slice),
	// hdr its pre-packed wire header.
	f   frame
	hdr []byte
}

// NewPersistentPut registers a persistent put of data into window winID
// of rank dst at offset. The data slice is re-read at every Start, so the
// kernel can update it in place between fires.
func (c *CPUCtx) NewPersistentPut(dst, winID, offset int, data []byte) *PersistentPut {
	ns := c.ns
	lay := ns.osRequire().lane.layout
	pp := &PersistentPut{c: c, f: frame{kind: kindPut, src: c.rank, dst: dst, payload: data, os: osAddr{win: winID, offset: offset}}}
	if ns.flowsOn {
		// A persistent handle is one flow: every fire (and every
		// retransmission) carries the context packed here, so the target's
		// apply spans all stitch onto it.
		pp.f.spanID = ns.job.trace.newSpanID(c.rank)
		pp.f.traceID = pp.f.spanID
	}
	pp.hdr = ns.job.pool.Get(lay.hdrLen(kindPut))
	putHeader(pp.hdr, lay, &pp.f)
	return pp
}

// Start fires the persistent put once, blocking like Put (acknowledged
// under Config.Reliability).
func (pp *PersistentPut) Start() error {
	ns := pp.c.ns
	p := pp.c.tp
	ns.charge(p, ns.job.cfg.Params.DoorbellCost)
	ns.osPuts.Add(1)
	dstNode := ns.job.rmap.Node(pp.f.dst)
	if dstNode == ns.node {
		// No wire to pre-pack for: the shared same-node apply.
		_, err := ns.osDeliver(p, &pp.f)
		return err
	}
	lane := &ns.osw.lane
	msg := ns.job.pool.Get(len(pp.hdr) + len(pp.f.payload))
	copy(msg[copy(msg, pp.hdr):], pp.f.payload)
	setPostedAt(msg, int64(p.Now()))
	seq := lane.assignSeq(dstNode)
	setSeq(msg, seq)
	return lane.transmit(p, dstNode, seq, msg, nil)
}

// Free releases the handle's pre-packed header back to the pool.
func (pp *PersistentPut) Free() {
	pp.c.ns.job.pool.Put(pp.hdr)
	pp.hdr = nil
}
