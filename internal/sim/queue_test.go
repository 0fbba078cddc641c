package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestTimerHeapOrder: the timer queue's heap alone — a queue whose peak
// starts past laneMin never takes a lane table, so every timer is a plain
// entry — pops in (at, seq) order under random pushes and pops, with many
// timers due at the same instant: each pop is the first timer of a sort of
// those pending.
func TestTimerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	byAtSeq := func(a, b timer) int {
		if timerBefore(a, b) {
			return -1
		}
		return 1
	}
	procs := make([]Proc, 500)
	for trial := 0; trial < 200; trial++ {
		q := timerQueue{peak: math.MaxInt}
		var pending []timer
		seq, now := uint64(0), int64(0)
		for op := 0; op < 600; op++ {
			if q.len() == 0 || (op < 500 && rng.Intn(3) > 0) {
				d := int64(rng.Intn(4))
				q.push(now, d, seq+1, &procs[seq])
				pending = append(pending, timer{at: now + d, key: seq + 1, p: &procs[seq]})
				seq++
				continue
			}
			slices.SortFunc(pending, byAtSeq)
			want := pending[0]
			pending = pending[1:]
			if at := q.nextAt(); at != want.at {
				t.Fatalf("trial %d op %d: next due at %d, want %d", trial, op, at, want.at)
			}
			if p := q.pop(); p != want.p {
				t.Fatalf("trial %d op %d: popped %p, want %p (at %d, seq %d)", trial, op, p, want.p, want.at, want.key)
			}
			now = want.at
		}
		if q.len() != len(pending) || len(q.ts) != len(pending) || q.lanes != nil {
			t.Fatalf("trial %d: queue holds %d timers (%d in its heap, lanes %v), want %d", trial, q.len(), len(q.ts), q.lanes != nil, len(pending))
		}
	}
}

// queueModel drives a Sim's two event queues beside a plain reference, the
// way pickNext does: a timer is pushed d after now, an arrival is posted at
// or after now by one of a few sources, and a pop takes the earlier head —
// an arrival first at an equal instant — and moves now to it. Every pop is
// checked against the least pending entry of the reference, found by a
// scan: (at, seq) for timers, (at, src, seq) for arrivals.
type queueModel struct {
	t        testing.TB
	timers   timerQueue
	arrivals arrivalHeap
	now      int64
	seq      uint64
	srcSeq   [8]uint64
	procs    []Proc // one per timer pushed; never grown, so &procs[i] stays put
	refT     []timer
	refA     []arrivalKey // idx holds the arrival's id
	ids      int
	peakT    int
	peakA    int
}

func newQueueModel(t testing.TB, maxTimers int) *queueModel {
	return &queueModel{t: t, procs: make([]Proc, 0, maxTimers)}
}

func (m *queueModel) pushTimer(d int64) {
	m.seq++
	m.procs = append(m.procs, Proc{})
	p := &m.procs[len(m.procs)-1]
	m.timers.push(m.now, d, m.seq, p)
	m.refT = append(m.refT, timer{at: m.now + d, key: m.seq, p: p})
	m.peakT = max(m.peakT, len(m.refT))
}

func (m *queueModel) post(after int64, src int) {
	m.srcSeq[src]++
	m.ids++
	a := arrival{at: m.now + after, src: src, seq: m.srcSeq[src], name: ident{name: "arrival", id: src}, fn: func(*Proc) {}, arg: m.ids}
	m.arrivals.push(&a)
	m.refA = append(m.refA, arrivalKey{at: a.at, seq: a.seq, src: int32(src), idx: int32(m.ids)})
	m.peakA = max(m.peakA, len(m.refA))
}

// pop fires the next event and reports whether there was one.
func (m *queueModel) pop() bool {
	t := m.t
	t.Helper()
	if m.timers.len() != len(m.refT) || m.arrivals.len() != len(m.refA) {
		t.Fatalf("queues hold %d timers and %d arrivals, want %d and %d", m.timers.len(), m.arrivals.len(), len(m.refT), len(m.refA))
	}
	ti, ai := -1, -1
	for i, tm := range m.refT {
		if ti < 0 || timerBefore(tm, m.refT[ti]) {
			ti = i
		}
	}
	for i, k := range m.refA {
		if ai < 0 || arrivalLess(k, m.refA[ai]) {
			ai = i
		}
	}
	tAt, aAt := int64(never), int64(never)
	if ti >= 0 {
		tAt = m.refT[ti].at
	}
	if ai >= 0 {
		aAt = m.refA[ai].at
	}
	if m.timers.nextAt() != tAt || m.arrivals.nextAt() != aAt {
		t.Fatalf("heads due at %d and %d, want %d and %d", m.timers.nextAt(), m.arrivals.nextAt(), tAt, aAt)
	}
	switch {
	case ai >= 0 && aAt <= tAt:
		want := m.refA[ai]
		name, fn, arg, _ := m.arrivals.pop()
		if arg != int(want.idx) || fn == nil || name.id != int(want.src) {
			t.Fatalf("arrival %v from %d popped, want %d (at %d, src %d, seq %d)", arg, name.id, want.idx, want.at, want.src, want.seq)
		}
		m.refA = slices.Delete(m.refA, ai, ai+1)
		m.checkSlab()
	case ti >= 0:
		want := m.refT[ti]
		if p := m.timers.pop(); p != want.p {
			t.Fatalf("timer %p popped, want %p, due at %d with seq %d", p, want.p, want.at, want.key)
		}
		m.refT = slices.Delete(m.refT, ti, ti+1)
	default:
		return false
	}
	m.now = min(tAt, aAt)
	if m.timers.peak != m.peakT {
		t.Fatalf("peak %d timers, want %d", m.timers.peak, m.peakT)
	}
	return true
}

// checkSlab: the arrival slab is no larger than the most arrivals ever
// pending (its slots are reused), and every free slot is cleared.
func (m *queueModel) checkSlab() {
	h := &m.arrivals
	if len(h.recs) > m.peakA {
		m.t.Fatalf("slab of %d records for at most %d pending arrivals", len(h.recs), m.peakA)
	}
	free := 0
	for i := h.free - 1; i >= 0; i = h.recs[i].next - 1 {
		if r := h.recs[i]; r.fn != nil || r.arg != nil || r.name.name != "" {
			m.t.Fatalf("free slot %d still holds %+v", i, r)
		}
		free++
	}
	if free+h.len() != len(h.recs) {
		m.t.Fatalf("%d free and %d pending records in a slab of %d", free, h.len(), len(h.recs))
	}
}

// collidingDelays returns two delays, neither of them zero, that hash to
// one lane slot.
func collidingDelays() (int64, int64) {
	for d := int64(2); ; d++ {
		if laneSlot(d) == laneSlot(1) {
			return 1, d
		}
	}
}

// TestTimerQueueOrder: the timer queue pops in (at, seq) order — the
// order of a sort of what is pending — at depths on both sides of the lane
// table's threshold, over 1 to 40 distinct delays (zero among them); two
// delays that hash to one slot share it as a lane and plain heap entries;
// and a lane that empties is claimed by the next delay to hash to it.
func TestTimerQueueOrder(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for trial := 0; trial < 300; trial++ {
			depth := 1 + rng.Intn(3*laneMin)
			delays := []int64{0}
			for n := 1 + rng.Intn(40); len(delays) < n; {
				delays = append(delays, int64(rng.Intn(60)))
			}
			m := newQueueModel(t, 2000)
			for op := 0; op < 2000; op++ {
				if n := m.timers.len(); n == 0 || (n < depth && rng.Intn(4) > 0) {
					m.pushTimer(delays[rng.Intn(len(delays))])
				} else {
					m.pop()
				}
			}
			for m.pop() {
			}
			if tabled := m.timers.lanes != nil; tabled != (m.peakT >= laneMin) {
				t.Fatalf("trial %d: lane table %v at a peak of %d timers", trial, tabled, m.peakT)
			}
		}
	})
	d1, d2 := collidingDelays()
	slot := laneSlot(d1)
	// fill takes the queue to the lane table's threshold with timers of a
	// delay of their own, all due after what the test pushes next.
	fill := func(m *queueModel) {
		for m.timers.len() < laneMin {
			m.pushTimer(1000)
		}
	}
	t.Run("shared-slot", func(t *testing.T) {
		m := newQueueModel(t, 200)
		fill(m)
		for i := 0; i < 5; i++ {
			m.pushTimer(d1)
			m.pushTimer(d2)
		}
		if l := m.timers.lanes[slot]; l.d != d1 || l.rest.len() != 4 {
			t.Fatalf("slot %d holds delay %d with %d behind its head, want %d with 4", slot, l.d, l.rest.len(), d1)
		}
		plain := 0
		for _, tm := range m.timers.ts {
			if tm.key&laneMask == 0 && tm.at == d2 {
				plain++
			}
		}
		if plain != 5 {
			t.Fatalf("%d of delay %d's timers are plain heap entries, want 5", plain, d2)
		}
		for m.pop() {
		}
	})
	t.Run("reclaim", func(t *testing.T) {
		m := newQueueModel(t, 200)
		fill(m)
		for i := 0; i < 3; i++ {
			m.pushTimer(d1)
		}
		for i := 0; i < 3; i++ {
			m.pop()
		}
		if l := m.timers.lanes[slot]; l.d >= 0 {
			t.Fatalf("slot %d still held by delay %d after its timers fired", slot, l.d)
		}
		for i := 0; i < 3; i++ {
			m.pushTimer(d2)
		}
		if l := m.timers.lanes[slot]; l.d != d2 {
			t.Fatalf("slot %d held by delay %d, want %d to claim it", slot, l.d, d2)
		}
		for m.pop() {
		}
	})
}

// TestArrivalHeapOrder: arrivals pop in (at, src, seq) order, with many
// ties on at and on src, at depths past the slab's first 64 records; the
// slab reuses its slots and clears each popped record.
func TestArrivalHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		depth := 1 + rng.Intn(150)
		m := newQueueModel(t, 0)
		for op := 0; op < 1500; op++ {
			if n := m.arrivals.len(); n == 0 || (n < depth && rng.Intn(3) > 0) {
				m.post(int64(rng.Intn(4)), rng.Intn(4))
			} else {
				m.pop()
			}
		}
		for m.pop() {
		}
	}
}

// TestArrivalSourceWidth: a source id is a node id, and one that does not
// fit the heap's 32-bit key is refused, not wrapped.
func TestArrivalSourceWidth(t *testing.T) {
	s := New()
	s.Spawn("poster", func(p *Proc) {
		s.PostArrival(p.Now()+time.Microsecond, s, 1<<31, 1, "arrival", func(*Proc) {}, nil)
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "wider than 32 bits") {
		t.Fatalf("Run = %v, want a refused source id", err)
	}
}

// TestKilledSleepersInLanes: procs killed while their timers wait in delay
// lanes take no further turn, and every other sleeper still wakes exactly
// on its period; the stale timers pass through the lanes and the run ends
// clean.
func TestKilledSleepersInLanes(t *testing.T) {
	const n, rounds, killAt = 200, 20, 750
	s := New()
	procs := make([]*Proc, n)
	wakes := make([][]time.Duration, n)
	for i := range procs {
		d := time.Duration(100 * (1 + i%5))
		procs[i] = s.SpawnID("sleeper", i, func(p *Proc) {
			for k := 0; k < rounds; k++ {
				p.Sleep(d)
				wakes[i] = append(wakes[i], p.Now())
			}
		}, nil)
	}
	s.Spawn("killer", func(p *Proc) {
		p.Sleep(killAt)
		s.Inject(func() {
			for i := 0; i < n; i += 3 {
				s.Kill(procs[i])
			}
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range wakes {
		d := time.Duration(100 * (1 + i%5))
		want := rounds
		if i%3 == 0 {
			want = int(killAt / d)
		}
		if len(got) != want {
			t.Fatalf("sleeper %d woke %d times, want %d", i, len(got), want)
		}
		for k, at := range got {
			if at != time.Duration(k+1)*d {
				t.Fatalf("sleeper %d's wake %d at %v, want %v", i, k, at, time.Duration(k+1)*d)
			}
		}
	}
	if st := s.Stats(); st.PeakTimers != n+1 || s.timers.len() != 0 || s.Unfinished() != 0 {
		t.Fatalf("peak %d timers, %d left, %d procs unfinished; want %d, 0, 0", st.PeakTimers, s.timers.len(), s.Unfinished(), n+1)
	}
}

// fuzzDelays are the delays FuzzEventQueue's pushes pick from: zero, the
// seven that carry 99.5 % of a 1 024-node run's timers, two that share a
// lane slot, and small ones that make ties.
var fuzzDelays = func() [32]int64 {
	d1, d2 := collidingDelays()
	ds := [32]int64{0, 10000, 600, 7000, 5000, 18000, 400, 476, d1, d2}
	for i := 10; i < len(ds); i++ {
		ds[i] = int64(i - 8)
	}
	return ds
}()

// FuzzEventQueue decodes its input into event-queue operations, a byte
// each: 0x00-0x7f push a timer with one of fuzzDelays, 0x80-0xbf post an
// arrival 0-7 ns ahead from one of four sources, 0xc0-0xff fire the next
// event; the rest are fired at the end. Every fire is checked against the
// reference (queueModel). Its seeds are under testdata/fuzz/FuzzEventQueue.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newQueueModel(t, len(data))
		for _, b := range data {
			switch b >> 6 {
			case 0, 1:
				m.pushTimer(fuzzDelays[b&31])
			case 2:
				m.post(int64(b&7), int(b>>3&3))
			default:
				m.pop()
			}
		}
		for m.pop() {
		}
	})
}

// benchDelays are the delays of one 1 024-node ScaleFanout run's timers
// (apps.BenchmarkScaleFanout's shape) with the number of pushes of each.
var benchDelays = [][2]int64{
	{10000, 99328}, {600, 69630}, {7000, 66560}, {5000, 66560}, {18000, 65536},
	{400, 33791}, {476, 32896}, {2, 1024}, {457, 512}, {464, 256}, {502, 64},
	{45000, 62}, {553, 32}, {656, 16}, {860, 8}, {1270, 4}, {2089, 2}, {3728, 1},
}

// BenchmarkTimerQueue times a pop and a push at a steady depth: 16, about
// what the small workloads hold, and 1 500, about what a 1 024-node
// exchange holds on one shard. The measured mix draws each delay from
// benchDelays by its share; the jittered mix gives every push a delay of
// its own, the lanes' worst case: each one is a plain entry or a lane of
// one.
func BenchmarkTimerQueue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var measured, jittered [4096]int64
	var total int64
	for _, dn := range benchDelays {
		total += dn[1]
	}
	for i := range measured {
		r := rng.Int63n(total)
		for _, dn := range benchDelays {
			if r -= dn[1]; r < 0 {
				measured[i] = dn[0]
				break
			}
		}
	}
	for i, d := range rng.Perm(len(jittered)) {
		jittered[i] = 400 + 5*int64(d)
	}
	for _, depth := range []int{16, 1500} {
		for _, mix := range []struct {
			name   string
			delays *[4096]int64
		}{{"measured", &measured}, {"jittered", &jittered}} {
			b.Run(fmt.Sprintf("depth%d/%s", depth, mix.name), func(b *testing.B) {
				var q timerQueue
				p := &Proc{}
				seq, now := uint64(0), int64(0)
				for i := 0; i < depth; i++ {
					seq++
					q.push(now, mix.delays[i&4095], seq, p)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now = q.nextAt()
					q.pop()
					seq++
					q.push(now, mix.delays[i&4095], seq, p)
				}
			})
		}
	}
}
