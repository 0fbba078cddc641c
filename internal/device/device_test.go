package device

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dcgn/internal/sim"
)

func testCfg() Config {
	cfg := DefaultConfig("gpu0")
	cfg.SMs = 4
	cfg.CoresPerSM = 8
	cfg.GFLOPS = 4 // 1 GFLOPS per SM: 1 FLOP == 1ns — easy arithmetic
	cfg.MemBytes = 1 << 20
	cfg.LaunchLat = 0
	return cfg
}

func TestBlocksRunConcurrentlyAcrossSMs(t *testing.T) {
	s := sim.New()
	d := New(s, testCfg())
	s.Spawn("host", func(p *sim.Proc) {
		// 4 SMs, 8 blocks of 1e6 FLOPs each (1 ms per block at 1 GFLOPS/SM)
		// => two waves => 2 ms total.
		l := d.Launch(p, 8, 8, func(b *Block) {
			b.Charge(1e6)
		})
		l.Wait(p)
		if got, want := p.Now(), 2*time.Millisecond; got != want {
			t.Errorf("grid finished at %v, want %v", got, want)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockOccupancyScaling(t *testing.T) {
	s := sim.New()
	d := New(s, testCfg())
	s.Spawn("host", func(p *sim.Proc) {
		// blockDim 4 on an 8-core SM: half throughput, so 1e6 FLOPs takes 2 ms.
		l := d.Launch(p, 1, 4, func(b *Block) { b.Charge(1e6) })
		l.Wait(p)
		if got, want := p.Now(), 2*time.Millisecond; got != want {
			t.Errorf("got %v, want %v", got, want)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchIsAsynchronous(t *testing.T) {
	s := sim.New()
	d := New(s, testCfg())
	s.Spawn("host", func(p *sim.Proc) {
		l := d.Launch(p, 1, 8, func(b *Block) { b.Charge(1e6) })
		if p.Now() != 0 {
			t.Errorf("launch blocked host for %v", p.Now())
		}
		if l.Done() {
			t.Error("launch reported done immediately")
		}
		l.Wait(p)
		if !l.Done() {
			t.Error("launch not done after Wait")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelsComputeRealResults(t *testing.T) {
	s := sim.New()
	d := New(s, testCfg())
	const n = 1024
	src := d.Mem().MustAlloc(n * 4)
	dst := d.Mem().MustAlloc(n * 4)
	s.Spawn("host", func(p *sim.Proc) {
		// Fill source directly (test shortcut; real hosts use CopyIn).
		buf := d.Bytes(src, n*4)
		for i := 0; i < n; i++ {
			buf[i*4] = byte(i)
		}
		l := d.Launch(p, 4, 8, func(b *Block) {
			per := n / b.GridDim
			lo := b.Idx * per
			in := b.Bytes(src, n*4)
			out := b.Bytes(dst, n*4)
			for i := lo; i < lo+per; i++ {
				out[i*4] = in[i*4] * 2
			}
			b.Charge(float64(per))
		})
		l.Wait(p)
		out := d.Bytes(dst, n*4)
		for i := 0; i < n; i++ {
			if out[i*4] != byte(i)*2 {
				t.Errorf("out[%d] = %d, want %d", i, out[i*4], byte(i)*2)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// The paper's §3.2.4 hazard: a block that waits for a block that can never
// be scheduled deadlocks the device. The simulator must reproduce this.
func TestNonPreemptiveSchedulingDeadlock(t *testing.T) {
	s := sim.New()
	cfg := testCfg()
	cfg.SMs = 2
	cfg.BlocksPerSM = 1
	d := New(s, cfg)
	flag := s.NewEvent("flag")
	s.Spawn("host", func(p *sim.Proc) {
		// Grid of 3 blocks on 2 SMs. Blocks 0 and 1 wait for block 2 to set
		// a flag, but block 2 can never be scheduled: deadlock.
		l := d.Launch(p, 3, 8, func(b *Block) {
			if b.Idx == 2 {
				flag.Fire()
				return
			}
			flag.Wait(b.Proc())
		})
		l.Wait(p)
	})
	err := s.Run()
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	// Every label New slices from one string names what it should.
	for _, want := range []string{`gpu0:b:1: event "flag"`, `dispatch:gpu0: semaphore "sm:gpu0"`, `event "gpu0:grid-done"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock report %q lacks %q", err, want)
		}
	}
}

// The same program with enough SMs completes: the hazard is purely a
// scheduling-capacity issue.
func TestFlagSyncWorksWithEnoughSMs(t *testing.T) {
	s := sim.New()
	cfg := testCfg()
	cfg.SMs = 3
	d := New(s, cfg)
	flag := s.NewEvent("flag")
	s.Spawn("host", func(p *sim.Proc) {
		l := d.Launch(p, 3, 8, func(b *Block) {
			if b.Idx == 2 {
				flag.Fire()
				return
			}
			flag.Wait(b.Proc())
		})
		l.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleSeedPermutesBlockOrder(t *testing.T) {
	order := func(seed int64) []int {
		s := sim.New()
		cfg := testCfg()
		cfg.SMs = 1
		cfg.ScheduleSeed = seed
		d := New(s, cfg)
		var got []int
		s.Spawn("host", func(p *sim.Proc) {
			l := d.Launch(p, 6, 8, func(b *Block) {
				got = append(got, b.Idx)
				b.Charge(1000)
			})
			l.Wait(p)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	inOrder := order(0)
	for i, idx := range inOrder {
		if idx != i {
			t.Fatalf("seed 0 order %v, want identity", inOrder)
		}
	}
	shuffled := order(42)
	same := true
	for i := range shuffled {
		if shuffled[i] != i {
			same = false
		}
	}
	if same {
		t.Fatal("seed 42 produced identity order (suspicious)")
	}
	again := order(42)
	for i := range shuffled {
		if shuffled[i] != again[i] {
			t.Fatal("same seed produced different orders")
		}
	}
}

func TestCopyInOutChargesBus(t *testing.T) {
	s := sim.New()
	d := New(s, testCfg())
	bus := &fakeBus{}
	ptr := d.Mem().MustAlloc(1024)
	s.Spawn("host", func(p *sim.Proc) {
		src := make([]byte, 1024)
		for i := range src {
			src[i] = byte(i)
		}
		d.CopyIn(p, bus, ptr, src)
		dst := make([]byte, 1024)
		d.CopyOut(p, bus, ptr, dst)
		for i := range dst {
			if dst[i] != byte(i) {
				t.Errorf("roundtrip mismatch at %d", i)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if bus.down != 1024 || bus.up != 1024 {
		t.Fatalf("bus charged down=%d up=%d", bus.down, bus.up)
	}
}

type fakeBus struct{ down, up int }

func (f *fakeBus) Down(p *sim.Proc, n int) { f.down += n }
func (f *fakeBus) Up(p *sim.Proc, n int)   { f.up += n }

func TestBlocksPerSMIncreasesResidency(t *testing.T) {
	// With 2 blocks per SM, 8 blocks on 4 SMs run in ONE wave, but each
	// block gets half the SM throughput: same total time as 2 waves at
	// full rate, yet all blocks coexist.
	s := sim.New()
	cfg := testCfg()
	cfg.BlocksPerSM = 2
	d := New(s, cfg)
	resident, maxResident := 0, 0
	s.Spawn("host", func(p *sim.Proc) {
		l := d.Launch(p, 8, 8, func(b *Block) {
			resident++
			if resident > maxResident {
				maxResident = resident
			}
			b.Charge(1e6)
			resident--
		})
		l.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxResident != 8 {
		t.Fatalf("max resident blocks %d, want 8 (2 per SM x 4 SMs)", maxResident)
	}
	// 1e6 FLOPs at half of 1 GFLOPS per block = 2ms.
	if got, want := s.Now(), 2*time.Millisecond; got != want {
		t.Fatalf("finished at %v, want %v", got, want)
	}
}

func TestConcurrentLaunchesShareSMs(t *testing.T) {
	// Two grids launched back-to-back contend for the same SMs; total
	// throughput is conserved.
	s := sim.New()
	d := New(s, testCfg()) // 4 SMs at 1 GFLOPS each
	s.Spawn("host", func(p *sim.Proc) {
		l1 := d.Launch(p, 4, 8, func(b *Block) { b.Charge(1e6) })
		l2 := d.Launch(p, 4, 8, func(b *Block) { b.Charge(1e6) })
		l1.Wait(p)
		l2.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 8 blocks x 1e6 FLOPs / (4 SMs x 1 GFLOPS) = 2ms.
	if got, want := s.Now(), 2*time.Millisecond; got != want {
		t.Fatalf("finished at %v, want %v", got, want)
	}
	if d.KernelsLaunched != 2 {
		t.Fatalf("KernelsLaunched = %d", d.KernelsLaunched)
	}
}

func TestLaunchLatencyCharged(t *testing.T) {
	s := sim.New()
	cfg := testCfg()
	cfg.LaunchLat = 50 * time.Microsecond
	d := New(s, cfg)
	s.Spawn("host", func(p *sim.Proc) {
		d.Launch(p, 1, 8, func(b *Block) {})
		if got := p.Now(); got != 50*time.Microsecond {
			t.Errorf("launch returned at %v, want the 50µs driver latency", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChargeZeroAndNegativeNoop(t *testing.T) {
	s := sim.New()
	d := New(s, testCfg())
	s.Spawn("host", func(p *sim.Proc) {
		l := d.Launch(p, 1, 8, func(b *Block) {
			b.Charge(0)
			b.Charge(-5)
		})
		l.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDeviceNew: building a device at DefaultConfig's size, as every
// job does for each of its GPUs.
func BenchmarkDeviceNew(b *testing.B) {
	s := sim.New()
	cfg := DefaultConfig("gpu0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(s, cfg)
	}
}
