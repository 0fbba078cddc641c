package core

import "sync/atomic"

// matchIndex is the comm thread's indexed matching structure. DCGN has no
// tags: matching is FIFO per (source, destination) pair with AnySource
// receives (paper §3.2.3), and the seed implementation reproduced that
// with linear scans over three slices — O(pending) per request, the hot
// path once thousands of requests are in flight per node. The index keeps
// the exact same match decisions in amortized O(1):
//
//   - pending sends live in a per-(src, dst) FIFO and, in parallel, in a
//     per-destination FIFO (consulted by AnySource receives): a twoIndex.
//   - pending receives live in a per-(src, dst) FIFO (specific source) or
//     a per-destination FIFO (AnySource). A send or inbound message from
//     src to dst compares the two heads' arrival stamps and takes the
//     older — reproducing the seed's arrival-order tie-break between a
//     specific-source and an AnySource receive racing for one message.
//   - unexpected inbound messages are a second twoIndex.
//
// Every queue pops each tombstone at most once and the ring compacts
// itself, so all operations are amortized O(1) and matched requests are
// never pinned by a retained backing array.

// pairKey identifies one (source rank, destination rank) FIFO channel.
type pairKey struct{ src, dst int }

// ring is a slice-backed FIFO. Vacated slots are zeroed so popped entries
// don't leak through the retained backing array, and the backing slice is
// compacted once the dead prefix dominates, keeping push/pop amortized
// O(1) with memory proportional to the live population. Until it holds two
// entries at once, its backing is one, inside the ring: a per-pair FIFO
// rarely holds more, and then costs one allocation, not two.
type ring[T any] struct {
	items []T
	head  int
	one   [1]T
}

func (q *ring[T]) push(v T) {
	if q.items == nil {
		q.items = q.one[:0]
	}
	inline := cap(q.items) == 1
	q.items = append(q.items, v)
	if inline && cap(q.items) > 1 {
		q.one = [1]T{} // moved out: the slot must not pin what it held
	}
}

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

// twoIndex parks values of one kind — pending sends, unexpected inbound
// messages — in two FIFOs at once, per (src, dst) pair and per dst. The
// entry is shared; whichever queue hands it out first flips a tombstone the
// other queue skips lazily. No method of T is called, so the instantiations
// cost what the hand-written copies did. The zero value is empty; its maps
// are made on first use.
type twoIndex[T any] struct {
	byPair map[pairKey]*ring[*parked[T]]
	byDst  map[int]*ring[*parked[T]]
	n      int // live entries
}

// parked is one twoIndex entry; taken is the lazy-deletion tombstone.
type parked[T any] struct {
	v     T
	taken bool
}

// queueOf returns *m's FIFO for k, creating it, and *m, on first use: a
// node that never parks a kind of entry makes no map for it.
func queueOf[K comparable, T any](m *map[K]*ring[T], k K) *ring[T] {
	if *m == nil {
		*m = make(map[K]*ring[T])
	}
	q := (*m)[k]
	if q == nil {
		q = &ring[T]{}
		(*m)[k] = q
	}
	return q
}

// add parks v, sent by src for dst.
func (ix *twoIndex[T]) add(src, dst int, v T) {
	e := &parked[T]{v: v}
	queueOf(&ix.byPair, pairKey{src: src, dst: dst}).push(e)
	queueOf(&ix.byDst, dst).push(e)
	ix.n++
}

// take removes and returns the oldest value parked for dst by src — by
// anyone when src is AnySource — or the zero T.
func (ix *twoIndex[T]) take(src, dst int) (v T) {
	q := ix.byDst[dst]
	if src != AnySource {
		q = ix.byPair[pairKey{src: src, dst: dst}]
	}
	for {
		e, ok := q.pop()
		if !ok {
			return v
		}
		if e.taken {
			continue // already taken through the sibling queue
		}
		e.taken = true
		ix.n--
		return e.v
	}
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

	// sends holds local-destination sends that found no receive, unexp
	// inbound wire messages with no posted receive.
	sends twoIndex[*request]
	unexp twoIndex[*inbound]

	recvsByPair map[pairKey]*ring[recvEntry]
	recvsAny    map[int]*ring[recvEntry] // AnySource receives, per destination
	recvs       int                      // live receives

	// peak is the high-water mark of depth(). The comm thread is its one
	// writer; it is atomic so a mid-run metrics snapshot may read it.
	peak atomic.Int64
}

func newMatchIndex() *matchIndex { return &matchIndex{} }

// depth is the total number of live pending entries (sends + recvs +
// unexpected inbound), the per-node queue depth reported in traces.
func (mi *matchIndex) depth() int { return mi.sends.n + mi.recvs + mi.unexp.n }

// peakDepth is the high-water mark of depth() over the run.
func (mi *matchIndex) peakDepth() int { return int(mi.peak.Load()) }

func (mi *matchIndex) note() {
	if d := int64(mi.depth()); d > mi.peak.Load() {
		mi.peak.Store(d)
	}
}

// addSend queues a local-destination send that found no receive.
func (mi *matchIndex) addSend(req *request) {
	mi.sends.add(req.rank, req.peer, req)
	mi.note()
}

// addUnexpected queues an inbound wire message with no posted receive.
func (mi *matchIndex) addUnexpected(in *inbound) {
	mi.unexp.add(in.src, in.dst, in)
	mi.note()
}

// addRecv queues a posted receive that found neither a pending send nor an
// unexpected message.
func (mi *matchIndex) addRecv(req *request) {
	mi.seq++
	e := recvEntry{req: req, seq: mi.seq}
	if req.peer == AnySource {
		queueOf(&mi.recvsAny, req.rank).push(e)
	} else {
		queueOf(&mi.recvsByPair, pairKey{src: req.peer, dst: req.rank}).push(e)
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
