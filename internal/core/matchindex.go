package core

// matchIndex is the comm thread's indexed matching structure. DCGN has no
// tags: matching is FIFO per (source, destination) pair with AnySource
// receives (paper §3.2.3), and the seed implementation reproduced that
// with linear scans over three slices — O(pending) per request, the hot
// path once thousands of requests are in flight per node. The index keeps
// the exact same match decisions in amortized O(1):
//
//   - pending sends live in a per-(src, dst) FIFO and, in parallel, in a
//     per-destination FIFO (consulted by AnySource receives). The entry is
//     shared; whichever queue matches first flips a tombstone the other
//     queue skips lazily.
//   - pending receives live in a per-(src, dst) FIFO (specific source) or
//     a per-destination FIFO (AnySource). A send or inbound message from
//     src to dst compares the two heads' arrival stamps and takes the
//     older — reproducing the seed's arrival-order tie-break between a
//     specific-source and an AnySource receive racing for one message.
//   - unexpected inbound messages mirror the send layout: per-(src, dst)
//     plus per-destination, tombstoned.
//
// Every queue pops each tombstone at most once and the ring compacts
// itself, so all operations are amortized O(1) and matched requests are
// never pinned by a retained backing array.

// pairKey identifies one (source rank, destination rank) FIFO channel.
type pairKey struct{ src, dst int }

// ring is a slice-backed FIFO. Vacated slots are zeroed so popped entries
// don't leak through the retained backing array, and the backing slice is
// compacted once the dead prefix dominates, keeping push/pop amortized
// O(1) with memory proportional to the live population.
type ring[T any] struct {
	items []T
	head  int
}

func (q *ring[T]) push(v T) { q.items = append(q.items, v) }

func (q *ring[T]) peek() (T, bool) {
	var zero T
	if q == nil || q.head >= len(q.items) {
		return zero, false
	}
	return q.items[q.head], true
}

func (q *ring[T]) pop() (T, bool) {
	var zero T
	if q == nil || q.head >= len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head > 32 && q.head*2 >= len(q.items):
		n := copy(q.items, q.items[q.head:])
		clearTail := q.items[n:len(q.items)]
		for i := range clearTail {
			clearTail[i] = zero
		}
		q.items = q.items[:n]
		q.head = 0
	}
	return v, true
}

func (q *ring[T]) len() int {
	if q == nil {
		return 0
	}
	return len(q.items) - q.head
}

// sendEntry is one pending send, shared between its per-pair and per-dst
// queues; matched is the lazy-deletion tombstone.
type sendEntry struct {
	req     *request
	matched bool
}

// inEntry is one unexpected inbound message, shared the same way.
type inEntry struct {
	in      *inbound
	matched bool
}

// recvEntry is one pending receive. seq is its arrival stamp, used to
// tie-break a specific-source head against an AnySource head.
type recvEntry struct {
	req *request
	seq uint64
}

// matchIndex is the progress engine's matching layer and holds all pending
// matching state for one node: it parks pending sends, receives and
// unexpected inbound messages and hands back the FIFO-correct counterpart
// for each new arrival.
type matchIndex struct {
	seq uint64 // arrival stamp, monotonically increasing

	sendsByPair map[pairKey]*ring[*sendEntry]
	sendsByDst  map[int]*ring[*sendEntry]

	recvsByPair map[pairKey]*ring[recvEntry]
	recvsAny    map[int]*ring[recvEntry] // AnySource receives, per destination

	unexpByPair map[pairKey]*ring[*inEntry]
	unexpByDst  map[int]*ring[*inEntry]

	sends, recvs, unexp int // live entry counts
	peak                int // high-water mark of depth()
}

func newMatchIndex() *matchIndex {
	return &matchIndex{
		sendsByPair: make(map[pairKey]*ring[*sendEntry]),
		sendsByDst:  make(map[int]*ring[*sendEntry]),
		recvsByPair: make(map[pairKey]*ring[recvEntry]),
		recvsAny:    make(map[int]*ring[recvEntry]),
		unexpByPair: make(map[pairKey]*ring[*inEntry]),
		unexpByDst:  make(map[int]*ring[*inEntry]),
	}
}

// depth is the total number of live pending entries (sends + recvs +
// unexpected inbound), the per-node queue depth reported in traces.
func (mi *matchIndex) depth() int { return mi.sends + mi.recvs + mi.unexp }

// peakDepth is the high-water mark of depth() over the run.
func (mi *matchIndex) peakDepth() int { return mi.peak }

func (mi *matchIndex) note() {
	if d := mi.depth(); d > mi.peak {
		mi.peak = d
	}
}

// addSend queues a local-destination send that found no receive.
func (mi *matchIndex) addSend(req *request) {
	e := &sendEntry{req: req}
	k := pairKey{src: req.rank, dst: req.peer}
	qp := mi.sendsByPair[k]
	if qp == nil {
		qp = &ring[*sendEntry]{}
		mi.sendsByPair[k] = qp
	}
	qp.push(e)
	qd := mi.sendsByDst[req.peer]
	if qd == nil {
		qd = &ring[*sendEntry]{}
		mi.sendsByDst[req.peer] = qd
	}
	qd.push(e)
	mi.sends++
	mi.note()
}

// takeSendFrom removes and returns the oldest pending send from src to
// dst, or nil. Consulted by a specific-source receive.
func (mi *matchIndex) takeSendFrom(src, dst int) *request {
	q := mi.sendsByPair[pairKey{src: src, dst: dst}]
	for {
		e, ok := q.pop()
		if !ok {
			return nil
		}
		if e.matched {
			continue // already taken through the per-dst queue
		}
		e.matched = true
		mi.sends--
		return e.req
	}
}

// takeSendTo removes and returns the oldest pending send destined to dst
// from any source, or nil. Consulted by an AnySource receive.
func (mi *matchIndex) takeSendTo(dst int) *request {
	q := mi.sendsByDst[dst]
	for {
		e, ok := q.pop()
		if !ok {
			return nil
		}
		if e.matched {
			continue // already taken through the per-pair queue
		}
		e.matched = true
		mi.sends--
		return e.req
	}
}

// addRecv queues a posted receive that found neither a pending send nor an
// unexpected message.
func (mi *matchIndex) addRecv(req *request) {
	mi.seq++
	e := recvEntry{req: req, seq: mi.seq}
	if req.peer == AnySource {
		q := mi.recvsAny[req.rank]
		if q == nil {
			q = &ring[recvEntry]{}
			mi.recvsAny[req.rank] = q
		}
		q.push(e)
	} else {
		k := pairKey{src: req.peer, dst: req.rank}
		q := mi.recvsByPair[k]
		if q == nil {
			q = &ring[recvEntry]{}
			mi.recvsByPair[k] = q
		}
		q.push(e)
	}
	mi.recvs++
	mi.note()
}

// takeRecvFor removes and returns the receive a message from src to dst
// matches: the oldest-posted of the specific (src, dst) receive and the
// AnySource receive at dst — the seed's arrival-order tie-break.
func (mi *matchIndex) takeRecvFor(src, dst int) *request {
	qs := mi.recvsByPair[pairKey{src: src, dst: dst}]
	qa := mi.recvsAny[dst]
	es, oks := qs.peek()
	ea, oka := qa.peek()
	var q *ring[recvEntry]
	switch {
	case oks && (!oka || es.seq < ea.seq):
		q = qs
	case oka:
		q = qa
	default:
		return nil
	}
	e, _ := q.pop()
	mi.recvs--
	return e.req
}

// addUnexpected queues an inbound wire message with no posted receive.
func (mi *matchIndex) addUnexpected(in *inbound) {
	e := &inEntry{in: in}
	k := pairKey{src: in.src, dst: in.dst}
	qp := mi.unexpByPair[k]
	if qp == nil {
		qp = &ring[*inEntry]{}
		mi.unexpByPair[k] = qp
	}
	qp.push(e)
	qd := mi.unexpByDst[in.dst]
	if qd == nil {
		qd = &ring[*inEntry]{}
		mi.unexpByDst[in.dst] = qd
	}
	qd.push(e)
	mi.unexp++
	mi.note()
}

// takeUnexpectedFor removes and returns the oldest unexpected inbound
// message a receive posted at dst for src (or AnySource) matches, or nil.
func (mi *matchIndex) takeUnexpectedFor(src, dst int) *inbound {
	var q *ring[*inEntry]
	if src == AnySource {
		q = mi.unexpByDst[dst]
	} else {
		q = mi.unexpByPair[pairKey{src: src, dst: dst}]
	}
	for {
		e, ok := q.pop()
		if !ok {
			return nil
		}
		if e.matched {
			continue // already taken through the sibling queue
		}
		e.matched = true
		mi.unexp--
		return e.in
	}
}
