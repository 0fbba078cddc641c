package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// --- linear-scan reference -------------------------------------------------
//
// linearMatcher reproduces the seed's matching algorithm verbatim: three
// slices scanned front to back (commthread.go before the index). It is the
// oracle the property test checks matchIndex against, and the baseline the
// benchmarks below compare against.

type linItem struct {
	id       int
	src, dst int
	any      bool // AnySource receive
}

type linearMatcher struct {
	sends, recvs, unexp []linItem
}

func (lm *linearMatcher) send(id, src, dst int) (matched int) {
	for i, rr := range lm.recvs {
		if rr.dst == dst && (rr.any || rr.src == src) {
			lm.recvs = append(lm.recvs[:i], lm.recvs[i+1:]...)
			return rr.id
		}
	}
	lm.sends = append(lm.sends, linItem{id: id, src: src, dst: dst})
	return -1
}

func (lm *linearMatcher) recv(id, src, dst int, any bool) (matched int, fromUnexp bool) {
	if !any {
		for i, sr := range lm.sends {
			if sr.dst == dst && sr.src == src {
				lm.sends = append(lm.sends[:i], lm.sends[i+1:]...)
				return sr.id, false
			}
		}
	} else {
		for i, sr := range lm.sends {
			if sr.dst == dst {
				lm.sends = append(lm.sends[:i], lm.sends[i+1:]...)
				return sr.id, false
			}
		}
	}
	for i, in := range lm.unexp {
		if in.dst == dst && (any || in.src == src) {
			lm.unexp = append(lm.unexp[:i], lm.unexp[i+1:]...)
			return in.id, true
		}
	}
	lm.recvs = append(lm.recvs, linItem{id: id, src: src, dst: dst, any: any})
	return -1, false
}

func (lm *linearMatcher) inbound(id, src, dst int) (matched int) {
	for i, rr := range lm.recvs {
		if rr.dst == dst && (rr.any || rr.src == src) {
			lm.recvs = append(lm.recvs[:i], lm.recvs[i+1:]...)
			return rr.id
		}
	}
	lm.unexp = append(lm.unexp, linItem{id: id, src: src, dst: dst})
	return -1
}

// --- index driver ----------------------------------------------------------
//
// indexMatcher drives matchIndex through the same handler logic the comm
// thread uses, tracking ids so decisions can be compared to the oracle.

type indexMatcher struct {
	idx   *matchIndex
	reqID map[*request]int
	inID  map[*inbound]int
}

func newIndexMatcher() *indexMatcher {
	return &indexMatcher{idx: newMatchIndex(), reqID: map[*request]int{}, inID: map[*inbound]int{}}
}

func (im *indexMatcher) send(id, src, dst int) (matched int) {
	if rr := im.idx.takeRecvFor(src, dst); rr != nil {
		return im.reqID[rr]
	}
	req := &request{op: opSend, rank: src, peer: dst}
	im.reqID[req] = id
	im.idx.addSend(req)
	return -1
}

func (im *indexMatcher) recv(id, src, dst int, any bool) (matched int, fromUnexp bool) {
	peer := src
	if any {
		peer = AnySource
	}
	if !any {
		if sr := im.idx.sends.take(src, dst); sr != nil {
			return im.reqID[sr], false
		}
	} else {
		if sr := im.idx.sends.take(AnySource, dst); sr != nil {
			return im.reqID[sr], false
		}
	}
	if in := im.idx.unexp.take(peer, dst); in != nil {
		return im.inID[in], true
	}
	req := &request{op: opRecv, rank: dst, peer: peer}
	im.reqID[req] = id
	im.idx.addRecv(req)
	return -1, false
}

func (im *indexMatcher) inbound(id, src, dst int) (matched int) {
	if rr := im.idx.takeRecvFor(src, dst); rr != nil {
		return im.reqID[rr]
	}
	in := &inbound{src: src, dst: dst}
	im.inID[in] = id
	im.idx.addUnexpected(in)
	return -1
}

// Property: for any randomized sequence of sends, receives (specific and
// AnySource) and inbound wire messages over a small rank space, the index
// makes exactly the same match decision as the seed's linear scans, step
// by step, and agrees on the final pending population.
func TestMatchIndexScanEquivalenceProperty(t *testing.T) {
	f := func(seed int64, ranksRaw, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ranks := int(ranksRaw)%4 + 2
		ops := int(opsRaw)%120 + 30

		lm := &linearMatcher{}
		im := newIndexMatcher()
		for id := 0; id < ops; id++ {
			src := rng.Intn(ranks)
			dst := rng.Intn(ranks)
			switch rng.Intn(4) {
			case 0:
				a, b := lm.send(id, src, dst), im.send(id, src, dst)
				if a != b {
					t.Logf("send #%d (%d->%d): linear matched %d, index matched %d", id, src, dst, a, b)
					return false
				}
			case 1, 2:
				any := rng.Intn(3) == 0
				a, au := lm.recv(id, src, dst, any)
				b, bu := im.recv(id, src, dst, any)
				if a != b || au != bu {
					t.Logf("recv #%d (src %d, dst %d, any %v): linear (%d,%v), index (%d,%v)", id, src, dst, any, a, au, b, bu)
					return false
				}
			case 3:
				a, b := lm.inbound(id, src, dst), im.inbound(id, src, dst)
				if a != b {
					t.Logf("inbound #%d (%d->%d): linear matched %d, index matched %d", id, src, dst, a, b)
					return false
				}
			}
		}
		if len(lm.sends) != im.idx.sends.n || len(lm.recvs) != im.idx.recvs || len(lm.unexp) != im.idx.unexp.n {
			t.Logf("pending mismatch: linear (%d,%d,%d), index (%d,%d,%d)",
				len(lm.sends), len(lm.recvs), len(lm.unexp), im.idx.sends.n, im.idx.recvs, im.idx.unexp.n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The AnySource/specific-source tie-break is arrival order: whichever
// receive was posted first claims the message, exactly as the seed's
// front-to-back scan over one combined slice decided it.
func TestMatchIndexAnySourceTieBreak(t *testing.T) {
	// AnySource posted first wins.
	idx := newMatchIndex()
	anyReq := &request{op: opRecv, rank: 0, peer: AnySource}
	specReq := &request{op: opRecv, rank: 0, peer: 1}
	idx.addRecv(anyReq)
	idx.addRecv(specReq)
	if got := idx.takeRecvFor(1, 0); got != anyReq {
		t.Fatalf("message matched %p, want the earlier-posted AnySource receive", got)
	}
	if got := idx.takeRecvFor(1, 0); got != specReq {
		t.Fatalf("second message matched %p, want the specific receive", got)
	}

	// Specific posted first wins.
	idx = newMatchIndex()
	anyReq = &request{op: opRecv, rank: 0, peer: AnySource}
	specReq = &request{op: opRecv, rank: 0, peer: 1}
	idx.addRecv(specReq)
	idx.addRecv(anyReq)
	if got := idx.takeRecvFor(1, 0); got != specReq {
		t.Fatalf("message matched %p, want the earlier-posted specific receive", got)
	}
	// A message from a different source skips the specific queue entirely.
	idx.addRecv(specReq)
	if got := idx.takeRecvFor(2, 0); got != anyReq {
		t.Fatalf("message from source 2 matched %p, want the AnySource receive", got)
	}
}

// A send taken through one queue must be invisible to the other
// (tombstone skipping), and counts must stay consistent.
func TestMatchIndexTombstones(t *testing.T) {
	idx := newMatchIndex()
	s1 := &request{op: opSend, rank: 1, peer: 0}
	s2 := &request{op: opSend, rank: 2, peer: 0}
	idx.addSend(s1)
	idx.addSend(s2)
	if idx.depth() != 2 {
		t.Fatalf("depth %d, want 2", idx.depth())
	}
	if got := idx.sends.take(1, 0); got != s1 {
		t.Fatalf("take from rank 1 matched %p, want s1", got)
	}
	// The per-destination queue must skip s1's tombstone and yield s2.
	if got := idx.sends.take(AnySource, 0); got != s2 {
		t.Fatalf("AnySource take matched %p, want s2", got)
	}
	if idx.depth() != 0 {
		t.Fatalf("depth %d after draining, want 0", idx.depth())
	}
	if got := idx.sends.take(AnySource, 0); got != nil {
		t.Fatalf("empty index yielded %p", got)
	}

	// Same for unexpected inbound: taken via the pair queue, invisible to
	// the AnySource path.
	i1 := &inbound{src: 1, dst: 0}
	i2 := &inbound{src: 2, dst: 0}
	idx.addUnexpected(i1)
	idx.addUnexpected(i2)
	if got := idx.unexp.take(1, 0); got != i1 {
		t.Fatalf("take from rank 1 matched %p, want i1", got)
	}
	if got := idx.unexp.take(AnySource, 0); got != i2 {
		t.Fatalf("AnySource take matched %p, want i2", got)
	}
	if idx.unexp.n != 0 {
		t.Fatalf("unexp count %d, want 0", idx.unexp.n)
	}
}

// The ring must stay FIFO across its compaction threshold and zero
// vacated slots so popped entries are collectable.
func TestRingFIFOAndCompaction(t *testing.T) {
	q := &ring[int]{}
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 37; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < 29; i++ {
			v, ok := q.pop()
			if !ok || v != want {
				t.Fatalf("pop got (%d,%v), want %d", v, ok, want)
			}
			want++
		}
		if q.len() != next-want {
			t.Fatalf("len %d, want %d", q.len(), next-want)
		}
	}
	for {
		v, ok := q.pop()
		if !ok {
			break
		}
		if v != want {
			t.Fatalf("drain got %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained to %d, want %d", want, next)
	}
	// Vacated prefix of the retained backing array must be zeroed.
	for i, v := range q.items[:cap(q.items)] {
		if v != 0 {
			t.Fatalf("backing slot %d still holds %d", i, v)
		}
	}
}

// matchBenchSizes are the in-flight populations the asymptotic benchmarks
// sweep; the acceptance bar is ns/op flat (within 2x) for the index from
// 64 to 4096 while the linear reference grows superlinearly.
var matchBenchSizes = []int{64, 256, 1024, 4096}

// postedIndex returns an index holding n posted receives on rank 0, from
// peers 1..n in posting order.
func postedIndex(n int) *matchIndex {
	idx := newMatchIndex()
	for i := 0; i < n; i++ {
		idx.addRecv(&request{op: opRecv, rank: 0, peer: i + 1})
	}
	return idx
}

// rematchDeepest is one steady-state match against n in-flight receives,
// the worst case for a linear scan: take the last one posted, post it
// again. It reports whether a receive matched.
func rematchDeepest(idx *matchIndex, n int) bool {
	rr := idx.takeRecvFor(n, 0)
	if rr != nil {
		idx.addRecv(rr)
	}
	return rr != nil
}

// BenchmarkMatchIndex measures one match against a node with n in-flight
// receives.
func BenchmarkMatchIndex(b *testing.B) {
	for _, n := range matchBenchSizes {
		b.Run(fmt.Sprintf("inflight%d", n), func(b *testing.B) {
			idx := postedIndex(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !rematchDeepest(idx, n) {
					b.Fatal("no match")
				}
			}
		})
	}
}

// TestMatchIndexMatchesWithoutAllocating pins the steady-state match at
// zero allocations at every population: rings and tombstones are reused,
// so a match must not grow the heap however many receives are in flight.
func TestMatchIndexMatchesWithoutAllocating(t *testing.T) {
	for _, n := range matchBenchSizes {
		idx := postedIndex(n)
		allocs := testing.AllocsPerRun(100, func() {
			if !rematchDeepest(idx, n) {
				t.Error("no match")
			}
		})
		if allocs != 0 {
			t.Errorf("inflight %d: %.1f allocs per match, want 0", n, allocs)
		}
	}
}

// BenchmarkLinearScanReference is the seed algorithm on the identical
// workload: the baseline BenchmarkMatchIndex's flat curve is judged
// against.
func BenchmarkLinearScanReference(b *testing.B) {
	for _, n := range matchBenchSizes {
		b.Run(fmt.Sprintf("inflight%d", n), func(b *testing.B) {
			lm := &linearMatcher{}
			for i := 0; i < n; i++ {
				lm.recv(i, i+1, 0, false)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := lm.inbound(n+i, n, 0)
				if id < 0 {
					b.Fatal("no match")
				}
				lm.recv(id, n, 0, false)
			}
		})
	}
}
