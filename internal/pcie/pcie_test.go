package pcie

import (
	"testing"
	"time"

	"dcgn/internal/sim"
)

func testCfg() Config {
	return Config{
		Lat:    10 * time.Microsecond,
		BW:     1e9, // 1 byte/ns
		CtlLat: 2 * time.Microsecond,
	}
}

func TestTransferTime(t *testing.T) {
	s := sim.New()
	b := New(s, "n0", testCfg())
	s.Spawn("host", func(p *sim.Proc) {
		b.Down(p, 1000) // 10us + 1us
		if got, want := p.Now(), 11*time.Microsecond; got != want {
			t.Errorf("down: %v, want %v", got, want)
		}
		b.Up(p, 2000) // 10us + 2us
		if got, want := p.Now(), 23*time.Microsecond; got != want {
			t.Errorf("up: %v, want %v", got, want)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if b.BytesDown != 1000 || b.BytesUp != 2000 || b.Transfers != 2 {
		t.Fatalf("stats: %+v", b)
	}
}

func TestBusContentionSerializes(t *testing.T) {
	s := sim.New()
	b := New(s, "n0", testCfg())
	for i := 0; i < 3; i++ {
		s.Spawn("user", func(p *sim.Proc) {
			b.Down(p, 10000) // 10us + 10us = 20us each
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Now(), 60*time.Microsecond; got != want {
		t.Fatalf("3 serialized 20us transfers finished at %v, want %v", got, want)
	}
}

func TestCtlTransactionCheap(t *testing.T) {
	s := sim.New()
	b := New(s, "n0", testCfg())
	s.Spawn("poller", func(p *sim.Proc) {
		b.CtlStep(p, 16) // small: pure CtlLat
		p.Await()
		if got, want := p.Now(), 2*time.Microsecond; got != want {
			t.Errorf("small ctl: %v, want %v", got, want)
		}
		b.CtlStep(p, 1064) // 64B free + 1064B/1GBps ≈ adds bandwidth term
		p.Await()
		if p.Now() <= 4*time.Microsecond {
			t.Errorf("large ctl did not pay bandwidth: %v", p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if b.CtlOps != 2 {
		t.Fatalf("CtlOps = %d", b.CtlOps)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.BW <= 0 || cfg.Lat <= 0 || cfg.CtlLat <= 0 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	if cfg.CtlLat >= cfg.Lat {
		t.Fatal("control transactions should be cheaper than DMA setup")
	}
}

func TestDirectTransferCheaperThanDMA(t *testing.T) {
	s := sim.New()
	b := New(s, "n0", testCfg())
	s.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		b.Down(p, 4096) // 10us setup + 4.096us
		dma := p.Now() - start
		start = p.Now()
		b.DirectStep(p, 4096) // 2us doorbell + 4.096us
		p.Await()
		direct := p.Now() - start
		if direct >= dma {
			t.Errorf("GPUDirect transfer (%v) should beat host DMA (%v)", direct, dma)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
