package bufpool

import (
	"math/bits"
	"sync"
	"testing"
)

// TestClassSizing pins the class table: powers of two below 128 KiB,
// 2^k + 128 from there up to the 128 MB top class.
func TestClassSizing(t *testing.T) {
	p := New()
	cases := []struct{ n, wantCap int }{
		{1, 64},
		{64, 64},
		{65, 128},
		{1000, 1024},
		{4096, 4096},
		{4096 + 24, 8192},
		{64 << 10, 64 << 10},
		{64<<10 + 1, 128<<10 + 128},
		{128 << 10, 128<<10 + 128},
		{128<<10 + 128, 128<<10 + 128},
		{128<<10 + 129, 256<<10 + 128},
		{64 << 20, 64<<20 + 128},
		{(64 << 20) + 24, 64<<20 + 128},
		{(64 << 20) + 129, 128<<20 + 128},
		{128<<20 + 128, 128<<20 + 128},
	}
	for _, c := range cases {
		b := p.Get(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", c.n, len(b), cap(b), c.n, c.wantCap)
		}
		p.Put(b)
	}
}

// A power-of-two payload of 128 KiB to 64 MiB plus the largest frame
// header (88 bytes) lands in the payload's own class; every class below
// 128 KiB is the power of two it always was; and every class is its own
// capacity's class.
func TestClassHeaderRoom(t *testing.T) {
	const maxHeader = 88
	for k := roomClassBits; k <= 26; k++ {
		n := 1 << k
		if got, want := classFor(n+maxHeader), classFor(n); got != want {
			t.Errorf("2^%d + %d bytes: class %d, the payload's is %d", k, maxHeader, got, want)
		}
		if c := classCap(classFor(n)); c != n+headerRoom {
			t.Errorf("2^%d bytes: class capacity %d, want %d", k, c, n+headerRoom)
		}
	}
	for n := 1; n <= 1<<(roomClassBits-1); n++ {
		if c, want := classCap(classFor(n)), max(64, 1<<bits.Len(uint(n-1))); c != want {
			t.Fatalf("%d bytes: class capacity %d, want %d", n, c, want)
		}
	}
	for c := 0; c < numClasses; c++ {
		if got := classOf(make([]byte, 0, classCap(c))); got != c {
			t.Errorf("classOf(cap %d) = %d, want %d", classCap(c), got, c)
		}
		if got := classOf(make([]byte, 0, classCap(c)-1)); got != -1 {
			t.Errorf("classOf(cap %d) = %d, want -1", classCap(c)-1, got)
		}
	}
}

func TestGetZeroIsFree(t *testing.T) {
	p := New()
	if b := p.Get(0); b != nil {
		t.Fatalf("Get(0) = %v, want nil", b)
	}
	p.Put(nil)
	if p.Acquires() != 0 || p.Releases() != 0 {
		t.Fatalf("zero-length traffic was counted: %d/%d", p.Acquires(), p.Releases())
	}
}

func TestReuse(t *testing.T) {
	p := New()
	b := p.Get(100)
	for i := range b {
		b[i] = 0xAB
	}
	p.Put(b)
	b2 := p.Get(128)
	if &b[0] != &b2[0] {
		t.Fatal("same-class Get after Put did not reuse the buffer")
	}
	if p.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", p.Hits())
	}
	if p.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", p.Outstanding())
	}
	p.Put(b2)
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", p.Outstanding())
	}
}

func TestOversizeFallsThrough(t *testing.T) {
	p := New()
	n := maxPooled + 1
	b := p.Get(n)
	if len(b) != n {
		t.Fatalf("len = %d, want %d", len(b), n)
	}
	p.Put(b)
	if p.Acquires() != 1 || p.Releases() != 1 {
		t.Fatalf("oversize traffic not counted: %d/%d", p.Acquires(), p.Releases())
	}
	// The oversize buffer must not have been retained in any class.
	b2 := p.Get(64)
	if p.Hits() != 0 {
		t.Fatal("oversize buffer was pooled")
	}
	p.Put(b2)
}

func TestForeignCapacityDropped(t *testing.T) {
	p := New()
	p.Put(make([]byte, 100))  // cap 100 is not a size class
	p.Put(make([]byte, 4096)) // nor, with header room, is 4096
	if p.Releases() != 2 {
		t.Fatalf("releases = %d, want 2", p.Releases())
	}
	b, b2 := p.Get(100), p.Get(128<<10)
	if p.Hits() != 0 {
		t.Fatal("foreign-capacity buffer was pooled")
	}
	p.Put(b)
	p.Put(b2)
}

// TestConcurrent exercises the pool from many goroutines at once; run
// under -race this is the pool's race-safety proof.
func TestConcurrent(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := p.Get(64 + (g*37+i)%4096)
				b[0] = byte(g)
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", p.Outstanding())
	}
	if p.Acquires() != 16000 {
		t.Fatalf("acquires = %d, want 16000", p.Acquires())
	}
}
