package apps

import (
	"testing"
	"time"
)

func TestMapReduceDCGNCorrect(t *testing.T) {
	for _, slots := range []int{1, 4} {
		mr := DefaultMapReduceConfig(slots)
		mr.Elements = 1024
		res, err := MapReduceDCGN(dcgnConfig(2, 1, 2), mr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("slots=%d: sum %d != reference %d", slots, res.Sum, mapReduceReference(mr))
		}
	}
}

// TestMapReduceSlotsTradeoff pins §3.1's argument, and is the one test of
// the slots knob: with a heavy tail, extra slots win clearly, and by more
// than with uniform element costs, where they only hide communication
// latency.
func TestMapReduceSlotsTradeoff(t *testing.T) {
	run := func(slots int, heavyTail bool) time.Duration {
		mr := DefaultMapReduceConfig(slots)
		if !heavyTail {
			mr.SlowEvery = 0
		}
		res, err := MapReduceDCGN(dcgnConfig(1, 1, 1), mr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatal("wrong sum")
		}
		return res.Elapsed
	}
	// Heavy tail: 4 slots must beat 1 slot decisively.
	ht1, ht4 := run(1, true), run(4, true)
	if float64(ht4) > 0.8*float64(ht1) {
		t.Errorf("heavy tail: 4 slots (%v) should clearly beat 1 slot (%v)", ht4, ht1)
	}
	// The slot advantage must be larger under the heavy tail than with
	// uniform costs — the direction of §3.1's argument. (Latency hiding
	// means extra slots help a little even with uniform costs.)
	u1, u4 := run(1, false), run(4, false)
	tailGain := float64(ht1) / float64(ht4)
	uniformGain := float64(u1) / float64(u4)
	if tailGain <= uniformGain {
		t.Errorf("heavy-tail slot gain (%.2fx) should exceed uniform gain (%.2fx)", tailGain, uniformGain)
	}
}
