package sim

// A Sim's event queue is two queues: the timers its procs sleep on
// (timerQueue) and the cross-node deliveries posted to it (arrivalHeap).
// pickNext fires the earlier of the two heads, an arrival first at an equal
// instant.
//
// Timers wait in delay lanes. A timer pushed with delay d is due at now+d
// with a larger sequence number than any timer before it, and now never goes
// back, so the timers that share a delay are pushed in (at, seq) order: a
// FIFO per delay is already sorted. The simulator's charges come in a
// handful of fixed delays (poll ticks, per-hop costs, wire terms: one
// 1 024-node run pushes 436 282 timers over 18 delays, seven of them 99.5 %
// of the pushes), so a lane per pending delay holds almost every timer, and
// only each lane's head sits in the 4-ary heap. A push to a busy lane is a
// ring append; a pop of a lane head puts the lane's next timer in its place
// with one sift-down. The heap is then a few dozen entries deep where it
// was ~750, and the pop order is exactly the heap's own: the least (at,
// seq) of every lane and of the plain entries is the least of all.

// timer is a pending wakeup: p is due at at. key is the sequence number the
// timer was pushed with, shifted left by laneBits, with the tag of the lane
// it sits in (its slot + 1, or 0 for a plain heap entry) in the low bits.
// No two timers share a sequence number, so keys order as sequence numbers
// do and (at, key) is the (at, seq) order; a timer stays three words. A
// sequence number past 2^58 would lose its top bits, some 10^17 pushes away.
type timer struct {
	at  int64
	key uint64
	p   *Proc
}

const (
	// laneSlots is the size of the lane table, 1<<laneSlotBits: more than
	// the distinct delays of a run's busy timers. laneBits holds a lane's
	// tag, 0 to laneSlots.
	laneSlotBits = 5
	laneSlots    = 1 << laneSlotBits
	laneBits     = laneSlotBits + 1
	laneMask     = 1<<laneBits - 1
	// laneMin is the depth at which a queue takes its lane table. Below it
	// every timer is a plain heap entry: one apps.Evaluate pushes 94 293
	// timers over 241 delays at a mean depth of 9.3, where the heap is
	// cheap, and a small simulation allocates no table.
	laneMin = 64
)

// timerLane holds the pending timers of one delay behind the head it has in
// the heap, in push order. A lane is free while none of its timers is
// pending, d < 0, and the delay that hashes to its slot next claims it.
type timerLane struct {
	d    int64
	rest ring[timer]
}

// timerQueue holds a Sim's timers in (at, seq) order: the plain ones and
// each lane's head in ts, a 4-ary min-heap ordered by (at, key), the rest
// in lanes (nil until the queue first holds laneMin timers). n counts every
// pending timer and peak the most there have been at once.
//
// The heap's sifts hold and shift: a moving timer is written once, at its
// final slot. Four children per node halve the depth of a binary heap, and
// a pop, which compares all of a node's children, touches one cache line
// of them per level. Both sifts are written out in push and pop, not
// called: at the small workloads' depth of ~16 a call is a tenth of a pop.
type timerQueue struct {
	ts      []timer
	lanes   *[laneSlots]timerLane
	n, peak int
}

func (q *timerQueue) len() int { return q.n }

// nextAt returns when the earliest timer is due, never if there is none.
func (q *timerQueue) nextAt() int64 {
	if q.n == 0 {
		return never
	}
	return q.ts[0].at
}

// laneSlot hashes a delay to its lane's slot: the top bits of a
// multiplicative hash, with splitmix64's multiplier. (The golden ratio's
// puts 5 µs and 476 ns, two of a 1 024-node run's seven busy delays, on
// one slot; this one parts all seven.)
func laneSlot(d int64) uint64 { return uint64(d) * 0xBF58476D1CE4E5B9 >> (64 - laneSlotBits) }

// timerBefore orders timers by due time, then by the sequence number they
// were pushed with: a total order, so any heap shape pops the same sequence.
func timerBefore(a, b timer) bool { return a.at < b.at || (a.at == b.at && a.key < b.key) }

// push adds p's wake, due d (>= 0) after now, with sequence number seq: to
// d's lane if it holds one, as the head of a new one if d's slot is free,
// else as a plain heap entry.
func (q *timerQueue) push(now, d int64, seq uint64, p *Proc) {
	t := timer{at: now + d, key: seq << laneBits, p: p}
	if q.n++; q.n > q.peak {
		q.peak = q.n
		if q.n == laneMin && q.lanes == nil {
			q.lanes = new([laneSlots]timerLane)
			for i := range q.lanes {
				q.lanes[i].d = -1
			}
		}
	}
	if q.lanes != nil {
		slot := laneSlot(d)
		l := &q.lanes[slot]
		if l.d == d {
			t.key |= slot + 1
			l.rest.push(t)
			return
		}
		if l.d < 0 {
			l.d = d
			t.key |= slot + 1
		}
	}
	if q.ts == nil {
		q.ts = make([]timer, 0, 64)
	}
	q.ts = append(q.ts, t)
	ts := q.ts
	i := len(ts) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !timerBefore(t, ts[parent]) {
			break
		}
		ts[i] = ts[parent]
		i = parent
	}
	ts[i] = t
}

// pop removes the earliest timer and returns its proc; the queue must not be
// empty. A lane head's successor takes its place in the heap, and a lane
// that has none left is freed; otherwise the tail timer takes it, on a heap
// one shorter. Either sifts down from the root, comparing the four children
// of a full node without a loop.
func (q *timerQueue) pop() *Proc {
	q.n--
	ts := q.ts
	top := ts[0]
	var t timer
	if tag := top.key & laneMask; tag != 0 && q.lanes[tag-1].rest.len() > 0 {
		t = q.lanes[tag-1].rest.pop()
	} else {
		if tag != 0 {
			q.lanes[tag-1].d = -1
		}
		t = ts[len(ts)-1]
		ts = ts[:len(ts)-1]
		q.ts = ts
	}
	n := len(ts)
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		m := c // the least child
		if c+3 < n {
			cs := ts[c : c+4 : c+4]
			k := 0
			if timerBefore(cs[1], cs[k]) {
				k = 1
			}
			if timerBefore(cs[2], cs[k]) {
				k = 2
			}
			if timerBefore(cs[3], cs[k]) {
				k = 3
			}
			m = c + k
		} else {
			for j := c + 1; j < n; j++ {
				if timerBefore(ts[j], ts[m]) {
					m = j
				}
			}
		}
		if !timerBefore(ts[m], t) {
			break
		}
		ts[i] = ts[m]
		i = m
	}
	if n > 0 {
		ts[i] = t
	}
	return top.p
}

// arrivalKey is an arrival's place in the heap: its delivery order (at, src,
// seq) and the slab slot (idx) of its record.
type arrivalKey struct {
	at  int64
	seq uint64
	src int32
	idx int32
}

// arrivalRec is what a pending arrival's proc is spawned with, kept in the
// heap's slab; next chains a free slot to the next free one (slot + 1, 0
// for none).
type arrivalRec struct {
	name      ident
	fn        func(p *Proc)
	arg       any
	stackless bool
	next      int32
}

// arrivalHeap is a binary min-heap of arrivals ordered by (at, src, seq). It
// sifts 24-byte keys; the records (arrivalRec, 56 bytes) stay put in a slab
// whose free slots are chained from free. It is a heap of its own, not the
// timer heap's code over a type parameter: one heap[T interface{ before(T)
// bool }] saved 53 lines and kept every golden, but the comparison no longer
// inlined — sim.timer_ns 305 -> 333 and p2p_small ops_per_s -2.4 %, behind
// in 6 of 6 alternating pairs (measured for PR 23, when both heaps held
// whole records; keys of another shape over a slab of their own keep the
// two apart still).
type arrivalHeap struct {
	keys []arrivalKey
	recs []arrivalRec
	free int32
}

func (h *arrivalHeap) len() int { return len(h.keys) }

// nextAt returns when the earliest arrival is due, never if there is none.
func (h *arrivalHeap) nextAt() int64 {
	if len(h.keys) == 0 {
		return never
	}
	return h.keys[0].at
}

// arrivalLess orders arrivals by delivery time, then source id, then
// per-source sequence — the cross-shard determinism key.
func arrivalLess(a, b arrivalKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// push files a copy of a, whose src fits in 32 bits (post checks).
func (h *arrivalHeap) push(a *arrival) {
	if h.keys == nil {
		// The first 64 keys and records share one allocation: a small
		// simulation's arrivals cost it one, however many it delivers.
		first := new(struct {
			keys [64]arrivalKey
			recs [64]arrivalRec
		})
		h.keys, h.recs = first.keys[:0], first.recs[:0]
	}
	rec := arrivalRec{name: a.name, fn: a.fn, arg: a.arg, stackless: a.stackless}
	idx := h.free - 1
	if idx >= 0 {
		h.free = h.recs[idx].next
		h.recs[idx] = rec
	} else {
		idx = int32(len(h.recs))
		h.recs = append(h.recs, rec)
	}
	k := arrivalKey{at: a.at, seq: a.seq, src: int32(a.src), idx: idx}
	h.keys = append(h.keys, k)
	i := len(h.keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		pk := h.keys[parent]
		if arrivalLess(pk, k) {
			break
		}
		h.keys[i] = pk
		i = parent
	}
	h.keys[i] = k
}

// pop removes the earliest arrival and returns what its proc is spawned
// with. Its record is cleared, so the slab pins no closure or argument, and
// its slot goes on the free chain.
func (h *arrivalHeap) pop() (name ident, fn func(*Proc), arg any, stackless bool) {
	top := h.keys[0]
	last := len(h.keys) - 1
	k := h.keys[last]
	h.keys = h.keys[:last]
	if last > 0 {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			smallest := -1
			sk := k
			if l < last && arrivalLess(h.keys[l], sk) {
				smallest, sk = l, h.keys[l]
			}
			if r < last && arrivalLess(h.keys[r], sk) {
				smallest, sk = r, h.keys[r]
			}
			if smallest < 0 {
				break
			}
			h.keys[i] = sk
			i = smallest
		}
		h.keys[i] = k
	}
	rec := &h.recs[top.idx]
	name, fn, arg, stackless = rec.name, rec.fn, rec.arg, rec.stackless
	*rec = arrivalRec{next: h.free}
	h.free = top.idx + 1
	return name, fn, arg, stackless
}
