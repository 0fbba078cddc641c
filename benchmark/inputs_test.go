package main

import (
	"reflect"
	"testing"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/loadgen"
)

func testbedRanks() core.RankMap { return core.NewJob(p2pConfig(false)).Ranks() }

// Same seed, same inputs; another seed, other inputs.
func TestP2PInputsFollowSeed(t *testing.T) {
	sizes := []int{0, 8, 64, 1024}
	a, b := genP2P(7, testbedRanks(), 12, sizes), genP2P(7, testbedRanks(), 12, sizes)
	if a.digest() != b.digest() || !reflect.DeepEqual(a.expect, b.expect) {
		t.Fatal("the same seed generated different inputs")
	}
	c := genP2P(8, testbedRanks(), 12, sizes)
	if a.digest() == c.digest() || reflect.DeepEqual(a.expect, c.expect) {
		t.Fatal("different seeds generated the same inputs")
	}
}

// Every round is a perfect matching whose two sides agree on sizes, and
// the three pairings appear in turn.
func TestP2PScheduleShape(t *testing.T) {
	rm := testbedRanks()
	in := genP2P(3, rm, 9, []int{0, 8, 64, 1024})
	if in.messages() != 9*rm.Total() {
		t.Fatalf("messages() = %d, want %d", in.messages(), 9*rm.Total())
	}
	for r, row := range in.sched {
		for rank, ex := range row {
			peer := row[ex.peer]
			if ex.peer == rank || peer.peer != rank {
				t.Fatalf("round %d: rank %d and %d are not paired with each other", r, rank, ex.peer)
			}
			if ex.sendLen != peer.recvLen || ex.sendOff+ex.sendLen > len(in.payload) {
				t.Fatalf("round %d: rank %d sends %d bytes, peer expects %d", r, rank, ex.sendLen, peer.recvLen)
			}
			sameNode := rm.Node(rank) == rm.Node(ex.peer)
			sameKind := rm.IsCPU(rank) == rm.IsCPU(ex.peer)
			switch r % 3 {
			case 0:
				if sameNode || !sameKind {
					t.Fatalf("round %d: want a remote same-kind pair, got ranks %d and %d", r, rank, ex.peer)
				}
			case 1:
				if sameNode || sameKind {
					t.Fatalf("round %d: want a remote cross-kind pair, got ranks %d and %d", r, rank, ex.peer)
				}
			case 2:
				if !sameNode {
					t.Fatalf("round %d: want an intra-node pair, got ranks %d and %d", r, rank, ex.peer)
				}
			}
		}
	}
}

// Whatever the seed, every round sends every size equally often between
// each pair of endpoint kinds: the work per repetition does not follow the
// seed.
func TestP2PWorkIsTheSameForEverySeed(t *testing.T) {
	rm := testbedRanks()
	sizes := []int{0, 8, 64, 1024}
	type class struct {
		round          int
		fromCPU, toCPU bool
		intraNode      bool
		size           int
	}
	count := func(seed int64) map[class]int {
		out := map[class]int{}
		for r, row := range genP2P(seed, rm, 9, sizes).sched {
			for rank, ex := range row {
				out[class{r, rm.IsCPU(rank), rm.IsCPU(ex.peer), rm.Node(rank) == rm.Node(ex.peer), ex.sendLen}]++
			}
		}
		return out
	}
	a := count(1)
	for c, n := range a {
		for _, s := range sizes { // balanced within the class
			other := c
			other.size = s
			if a[other] != n {
				t.Fatalf("round %d: size %d travels %d times, size %d %d times in the same class", c.round, c.size, n, s, a[other])
			}
		}
	}
	if !reflect.DeepEqual(a, count(2)) {
		t.Fatal("two seeds send different multisets of messages")
	}
}

// The digest depends on content, order and length, and a 0-byte message
// still advances it.
func TestFold(t *testing.T) {
	d := fold(fnvOffset, nil)
	if d == fnvOffset {
		t.Error("a 0-byte payload left the digest unchanged")
	}
	a := fold(fold(fnvOffset, []byte("abcdefghij")), []byte("k"))
	b := fold(fold(fnvOffset, []byte("k")), []byte("abcdefghij"))
	c := fold(fnvOffset, []byte("abcdefghijk"))
	if a == b || a == c || b == c {
		t.Error("digests of different message sequences collide")
	}
}

// A workload run on its own inputs passes its own checks; one wrong byte
// in the payload a receiver sees fails them.
func TestP2PChecksCatchAWrongByte(t *testing.T) {
	in := genP2P(1, testbedRanks(), 6, []int{8, 64})
	if o, err := runP2P(in, false); err != nil || o.failed != 0 {
		t.Fatalf("clean run: failed=%d err=%v", o.failed, err)
	}
	in.expect[5]++ // as if rank 5 had received something else
	o, err := runP2P(in, false)
	if err != nil || o.failed != in.rounds {
		t.Fatalf("corrupted run: failed=%d err=%v, want %d failed", o.failed, err, in.rounds)
	}
}

func TestArrivalTracesFollowSeed(t *testing.T) {
	trace := func(seed int64) []loadgen.Arrival {
		tr, err := loadgen.RecordTrace(serveSimSpec(env{seed: seed}, 50*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		return tr.Arrivals
	}
	if !reflect.DeepEqual(trace(4), trace(4)) {
		t.Fatal("the same seed generated different arrival traces")
	}
	if reflect.DeepEqual(trace(4), trace(5)) {
		t.Fatal("different seeds generated the same arrival trace")
	}
}
