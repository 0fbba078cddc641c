package sim

import (
	"testing"
	"time"
)

func TestChanTrySend(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Proc) {
		ch := NewChan[int](s, "ch", 1)
		if !ch.TrySend(7) {
			t.Error("TrySend into empty buffered chan should succeed")
		}
		if ch.TrySend(8) {
			t.Error("TrySend into full chan should fail")
		}
		if ch.Len() != 1 {
			t.Errorf("Len = %d", ch.Len())
		}
		if v, ok := ch.Recv(p); !ok || v != 7 {
			t.Errorf("Recv = %d,%v", v, ok)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanTrySendHandsToWaitingReceiver(t *testing.T) {
	s := New()
	ch := NewChan[string](s, "ch", 0)
	var got string
	s.Spawn("receiver", func(p *Proc) {
		got, _ = ch.Recv(p)
	})
	s.Spawn("sender", func(p *Proc) {
		p.Sleep(time.Millisecond)
		if !ch.TrySend("x") {
			t.Error("TrySend with parked receiver should succeed even unbuffered")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestResourceAcquireReleaseMultiPhase(t *testing.T) {
	s := New()
	r := s.NewResource("r", 1)
	var order []int
	for i := 0; i < 3; i++ {
		s.Spawn("u", func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Millisecond) // hold across an explicit phase
			r.Release()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || s.Now() != 3*time.Millisecond {
		t.Fatalf("order %v, end %v", order, s.Now())
	}
}

func TestEventFiredQuery(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Proc) {
		ev := s.NewEvent("e")
		if ev.Fired() {
			t.Error("new event reports fired")
		}
		ev.Fire()
		if !ev.Fired() {
			t.Error("fired event reports unfired")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
