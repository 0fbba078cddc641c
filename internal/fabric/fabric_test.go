package fabric

import (
	"testing"
	"time"

	"dcgn/internal/sim"
)

func testCfg() Config {
	return Config{
		Lat:          1000 * time.Nanosecond,
		BW:           1e9, // 1 B/ns
		SendOverhead: 500 * time.Nanosecond,
		RecvOverhead: 500 * time.Nanosecond,
		ShmLat:       200 * time.Nanosecond,
		ShmBW:        4e9,
	}
}

func TestPointToPointLatency(t *testing.T) {
	s := sim.New()
	net := New(s, 2, testCfg())
	var deliveredAt time.Duration
	s.Spawn("sender", func(p *sim.Proc) {
		net.Node(0).Send(p, 1, 1000, "hello")
		// Sender blocked for SendOverhead + 1000ns serialization.
		if got, want := p.Now(), 1500*time.Nanosecond; got != want {
			t.Errorf("sender released at %v, want %v", got, want)
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		pkt := net.Node(1).Inbox.Get(p)
		deliveredAt = p.Now()
		if pkt.Payload != "hello" || pkt.Src != 0 {
			t.Errorf("bad packet %+v", pkt)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 500 send ovh + 1000 serialization + 1000 flight + 500 recv ovh = 3000ns
	if want := 3000 * time.Nanosecond; deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestIntraNodeSharedMemoryPathIsCheaper(t *testing.T) {
	s := sim.New()
	net := New(s, 2, testCfg())
	var shmAt time.Duration
	s.Spawn("sender", func(p *sim.Proc) {
		net.Node(0).Send(p, 0, 4000, "local") // 4000B at 4 GB/s = 1000ns copy
		if got, want := p.Now(), 1000*time.Nanosecond; got != want {
			t.Errorf("shm sender released at %v, want %v", got, want)
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		net.Node(0).Inbox.Get(p)
		shmAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 1200 * time.Nanosecond; shmAt != want {
		t.Fatalf("shm delivery at %v, want %v", shmAt, want)
	}
	if pkts, bytes := net.Totals(); pkts != 0 || bytes != 0 {
		t.Fatal("intra-node packet counted as inter-node traffic")
	}
}

func TestSenderNICSerializes(t *testing.T) {
	s := sim.New()
	net := New(s, 2, testCfg())
	done := 0
	for i := 0; i < 3; i++ {
		s.Spawn("sender", func(p *sim.Proc) {
			net.Node(0).Send(p, 1, 10000, i) // 500 + 10000 ns each on the TX NIC
			done++
		})
	}
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			net.Node(1).Inbox.Get(p)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Last delivery: 3*10500 (serialized) + 1000 flight + 500 recv.
	if want := time.Duration(3*10500+1500) * time.Nanosecond; s.Now() != want {
		t.Fatalf("finished at %v, want %v", s.Now(), want)
	}
}

func TestPerSenderOrderPreserved(t *testing.T) {
	s := sim.New()
	net := New(s, 2, testCfg())
	for n := 0; n < 2; n++ { // jitter on serialization must not reorder packets
		net.Node(n).Jitter().Seed(0.3, 99, n)
	}
	const n = 20
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			net.Node(0).Send(p, 1, 100+i*13, i)
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pkt := net.Node(1).Inbox.Get(p)
			if pkt.Payload.(int) != i {
				t.Fatalf("packet %d arrived out of order (got %v)", i, pkt.Payload)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCount(t *testing.T) {
	s := sim.New()
	net := New(s, 3, testCfg())
	s.Spawn("sender", func(p *sim.Proc) {
		net.Node(0).Send(p, 1, 100, nil)
		net.Node(0).Send(p, 2, 200, nil)
	})
	s.Spawn("r1", func(p *sim.Proc) { net.Node(1).Inbox.Get(p) })
	s.Spawn("r2", func(p *sim.Proc) { net.Node(2).Inbox.Get(p) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if pkts, bytes := net.Totals(); pkts != 2 || bytes != 300 {
		t.Fatalf("stats %d pkts %d bytes", pkts, bytes)
	}
}

func TestReceiverNICIncastSerializesProcessing(t *testing.T) {
	// Three senders on distinct nodes target one receiver; the receive-side
	// per-packet overhead serializes deliveries even though flights overlap.
	s := sim.New()
	net := New(s, 4, testCfg())
	var arrivals []time.Duration
	for i := 1; i <= 3; i++ {
		src := i
		s.Spawn("sender", func(p *sim.Proc) {
			net.Node(src).Send(p, 0, 100, src)
		})
	}
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			net.Node(0).Inbox.Get(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Deliveries must be spaced by at least RecvOverhead.
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i]-arrivals[i-1] < 450*time.Nanosecond {
			t.Fatalf("incast deliveries not serialized: %v", arrivals)
		}
	}
}
