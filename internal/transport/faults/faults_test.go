package faults

import (
	"errors"
	"testing"
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

var wall = &transport.WallProc{Epoch: time.Now()}

// recorder is a loopback Transport that records every frame a send
// forwards to it, in order, on either lane; its forms complete in place,
// as the live backend's do. Like any transport it owns what it is sent:
// it keeps a copy and releases the buffer to pool.
type recorder struct {
	pool *bufpool.Pool
	sent [][]byte
	dsts []int
	// colls counts the collectives forwarded to it.
	colls int
}

func (r *recorder) SendStep(_ transport.Proc, op *transport.SendOp) (bool, error) {
	for more := true; more; more = op.Next() {
		r.sent = append(r.sent, append([]byte(nil), op.Msg...))
		r.dsts = append(r.dsts, op.Dst)
		r.pool.Put(op.Msg)
	}
	return true, nil
}
func (r *recorder) RecvStep(_ transport.Proc, op *transport.RecvOp) (bool, error) {
	op.Msg = []byte("inbound")
	return true, nil
}
func (r *recorder) CollectiveStep(transport.Proc, *transport.CollOp) (bool, error) {
	r.colls++
	return true, nil
}
func (r *recorder) Close() error { return nil }

// newEndpoint wraps a fresh recorder for node, both on one fresh pool.
func newEndpoint(cfg Config, node int) (*Endpoint, *recorder) {
	rec := &recorder{pool: bufpool.New()}
	return New(rec, cfg, node, rec.pool), rec
}

// pooled returns s in a buffer from pool, as a sender hands it over.
func pooled(pool *bufpool.Pool, s string) []byte {
	b := pool.Get(len(s))
	copy(b, s)
	return b
}

func msgN(n int) string { return string([]byte{byte(n), byte(n >> 8)}) }

// send drives a SendStep of msg to dstNode on a lane to its end on p: a
// step, then, on a simulated proc, its wake.
func send(p transport.Proc, tr transport.Transport, dstNode int, msg []byte, oneSided bool) error {
	op := &transport.SendOp{Dst: dstNode, Msg: msg, OneSided: oneSided}
	for {
		if done, err := tr.SendStep(p, op); done {
			return err
		}
		p.(*sim.Proc).Await()
	}
}

// recv drives a RecvStep of a lane's next frame to its end on p, as send
// drives a send.
func recv(p transport.Proc, tr transport.Transport, oneSided bool) ([]byte, error) {
	op := &transport.RecvOp{OneSided: oneSided}
	for {
		if done, err := tr.RecvStep(p, op); done {
			return op.Take(), err
		}
		p.(*sim.Proc).Await()
	}
}

// driveSends pushes n distinct messages through a fresh endpoint and
// returns what the inner transport saw plus the fault stats.
func driveSends(t *testing.T, cfg Config, node, n int) (*recorder, transport.FaultStats) {
	t.Helper()
	ep, rec := newEndpoint(cfg, node)
	for i := 0; i < n; i++ {
		if err := send(wall, ep, i%4, pooled(rec.pool, msgN(i)), false); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	return rec, ep.FaultStats()
}

func TestZeroConfigIsTransparent(t *testing.T) {
	rec, stats := driveSends(t, Config{}, 0, 100)
	if len(rec.sent) != 100 {
		t.Fatalf("transparent endpoint forwarded %d/100 messages", len(rec.sent))
	}
	if stats.Total() != 0 {
		t.Fatalf("zero config injected faults: %+v", stats)
	}
	if (Config{}).Enabled() || (Config{}).WireActive() {
		t.Fatal("zero config reports itself active")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.2, Dup: 0.1, Reorder: 0.1}
	recA, statsA := driveSends(t, cfg, 3, 500)
	recB, statsB := driveSends(t, cfg, 3, 500)
	if statsA != statsB {
		t.Fatalf("same seed, different stats: %+v vs %+v", statsA, statsB)
	}
	if len(recA.sent) != len(recB.sent) {
		t.Fatalf("same seed, different forwarded counts: %d vs %d", len(recA.sent), len(recB.sent))
	}
	for i := range recA.sent {
		if string(recA.sent[i]) != string(recB.sent[i]) || recA.dsts[i] != recB.dsts[i] {
			t.Fatalf("same seed, divergent message %d", i)
		}
	}
	_, statsC := driveSends(t, Config{Seed: 43, Drop: 0.2, Dup: 0.1, Reorder: 0.1}, 3, 500)
	if statsA == statsC {
		t.Fatal("different seeds produced identical fault streams (suspicious)")
	}
}

func TestDropDupCounts(t *testing.T) {
	const n = 2000
	rec, stats := driveSends(t, Config{Seed: 7, Drop: 0.25, Dup: 0.25}, 1, n)
	if stats.Drops == 0 || stats.Dups == 0 {
		t.Fatalf("expected both drops and dups at 25%%: %+v", stats)
	}
	// Every non-dropped message goes out once, plus one extra per dup.
	want := int64(n) - stats.Drops + stats.Dups
	if int64(len(rec.sent)) != want {
		t.Fatalf("forwarded %d messages, accounting says %d (%+v)", len(rec.sent), want, stats)
	}
	// Sanity: rates within a loose band of the configured 25%.
	for name, c := range map[string]int64{"drops": stats.Drops, "dups": stats.Dups} {
		if c < n/8 || c > n/2 {
			t.Fatalf("%s=%d wildly off a 25%% rate over %d sends", name, c, n)
		}
	}
}

// TestOwnershipKeepsPoolBalanced drives 1 000 seeded sends under drop,
// dup and reorder on both lanes: every buffer handed to the endpoint, and
// every duplicate or flushed copy it makes, is released exactly once —
// by the endpoint when it drops or parks one, else by the transport under
// it — whether or not a message is still parked at the end.
func TestOwnershipKeepsPoolBalanced(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ep, rec := newEndpoint(Config{Seed: seed, Drop: 0.2, Dup: 0.2, Reorder: 0.2}, 2)
		for i := 0; i < 1000; i++ {
			if err := send(wall, ep, i%4, pooled(rec.pool, msgN(i)), i%3 == 0); err != nil {
				t.Fatal(err)
			}
		}
		s := ep.FaultStats()
		if s.Drops == 0 || s.Dups == 0 || s.Reorders == 0 {
			t.Fatalf("seed %d: a fault class never fired: %+v", seed, s)
		}
		if a, r := rec.pool.Acquires(), rec.pool.Releases(); a != r {
			t.Fatalf("seed %d: %d acquires vs %d releases (%+v)", seed, a, r, s)
		}
	}
}

func TestReorderHoldsAndFlushes(t *testing.T) {
	// Reorder=1 with one held slot: message 0 is parked, message 1 goes out
	// and flushes message 0 behind it, message 2 is parked, ... so pairs
	// swap: 1,0,3,2,...
	rec, stats := driveSends(t, Config{Seed: 1, Reorder: 1}, 0, 4)
	if stats.Reorders != 2 {
		t.Fatalf("expected 2 reorders (one per free slot), got %+v", stats)
	}
	var got []int
	for _, m := range rec.sent {
		got = append(got, int(m[0])|int(m[1])<<8)
	}
	want := []int{1, 0, 3, 2}
	if len(got) != len(want) {
		t.Fatalf("forwarded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forwarded order %v, want %v", got, want)
		}
	}
}

func TestReorderHeldCopyIsPrivate(t *testing.T) {
	ep, rec := newEndpoint(Config{Seed: 1, Reorder: 1}, 0)
	msg := pooled(rec.pool, "original")
	if err := send(wall, ep, 1, msg, false); err != nil { // parked
		t.Fatal(err)
	}
	// The parked message went back to the pool, whose next user rewrites it.
	copy(rec.pool.Get(len(msg)), "clobber!")
	if err := send(wall, ep, 1, pooled(rec.pool, "second"), false); err != nil { // flushes the held copy
		t.Fatal(err)
	}
	if len(rec.sent) != 2 || string(rec.sent[1]) != "original" {
		t.Fatalf("held message aliased the caller's buffer: %q", rec.sent)
	}
}

func TestCloseDropsHeldMessage(t *testing.T) {
	ep, rec := newEndpoint(Config{Seed: 1, Reorder: 1}, 0)
	if err := send(wall, ep, 1, pooled(rec.pool, "doomed"), false); err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rec.sent) != 0 {
		t.Fatalf("Close flushed the held message: %q", rec.sent)
	}
}

func TestCollectiveFailuresClusterConsistent(t *testing.T) {
	// Endpoints for different nodes share only the seed; their per-round
	// collective verdicts must agree exactly.
	cfg := Config{Seed: 99, CollFail: 0.3}
	eps := make([]*Endpoint, 3)
	recs := make([]*recorder, 3)
	for i, node := range []int{0, 1, 5} {
		eps[i], recs[i] = newEndpoint(cfg, node)
	}
	failed := 0
	for round := 0; round < 200; round++ {
		verdicts := make([]bool, len(eps))
		for i, ep := range eps {
			err := transport.Collective(wall, ep, &transport.CollOp{Kind: transport.Barrier})
			verdicts[i] = err != nil
			if err != nil && !errors.Is(err, transport.ErrTransient) {
				t.Fatalf("round %d node %d: injected error is not ErrTransient: %v", round, i, err)
			}
		}
		for i := 1; i < len(verdicts); i++ {
			if verdicts[i] != verdicts[0] {
				t.Fatalf("round %d: node verdicts diverge: %v", round, verdicts)
			}
		}
		if verdicts[0] {
			failed++
		}
	}
	if failed == 0 || failed == 200 {
		t.Fatalf("collective failure rate degenerate: %d/200", failed)
	}
	if s := eps[0].FaultStats(); s.CollFails != int64(failed) {
		t.Fatalf("CollFails=%d, observed %d", s.CollFails, failed)
	}
	for i, rec := range recs {
		if rec.colls != 200-failed {
			t.Fatalf("node %d: %d collectives reached the inner transport, want the %d unfailed", i, rec.colls, 200-failed)
		}
	}
}

func TestDelayCountsOnRecv(t *testing.T) {
	ep, _ := newEndpoint(Config{Seed: 3, Delay: 1, MaxDelay: time.Microsecond}, 0)
	for i := 0; i < 10; i++ {
		if _, err := recv(wall, ep, false); err != nil {
			t.Fatal(err)
		}
	}
	if s := ep.FaultStats(); s.Delays != 10 {
		t.Fatalf("Delays=%d after 10 certain delays", s.Delays)
	}
}

// TestDelayIsAWakeOnTheSimulator: on a simulated proc an injected delay is
// the receive's next wake, charged in virtual time, and the frame is
// handed over once it has passed.
func TestDelayIsAWakeOnTheSimulator(t *testing.T) {
	ep, _ := newEndpoint(Config{Seed: 3, Delay: 1, MaxDelay: time.Millisecond}, 0)
	s := sim.New()
	s.Spawn("rx", func(p *sim.Proc) {
		if msg, err := recv(p, ep, true); err != nil || string(msg) != "inbound" {
			t.Errorf("received %q, %v", msg, err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() <= 0 || s.Now() > time.Millisecond {
		t.Fatalf("receive ended at %v, want inside (0, 1ms]", s.Now())
	}
	if st := ep.FaultStats(); st.Delays != 1 {
		t.Fatalf("Delays=%d, want 1", st.Delays)
	}
}
