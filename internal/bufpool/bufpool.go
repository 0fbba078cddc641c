// Package bufpool provides a size-classed byte-buffer pool for the
// simulator's per-message staging paths. Every simulated send, receive,
// wire relay and collective used to allocate (and promptly garbage) fresh
// payload buffers; at ROADMAP scale that allocation traffic dominates the
// host-side profile. The pool recycles buffers through explicit
// Get/Put pairs tied to the request lifecycle.
//
// Properties the rest of the tree relies on:
//
//   - Race safety. Simulated procs are real goroutines (exactly one runs
//     at a time, but handoffs cross goroutines), and independent jobs may
//     run in parallel from `go test`; all state is mutex-guarded.
//   - Exact accounting. Acquires/Releases count every Get/Put so leak
//     guards can assert that completed requests release their buffers
//     exactly once (Report.PoolAcquires / PoolReleases).
//   - No zeroing. Buffers come back with stale contents; every consumer
//     fully overwrites the prefix it asked for. This is deliberate — the
//     golden determinism suite checksums results, so a consumer that ever
//     read stale bytes would fail loudly.
//   - Header room. A class of 128 KiB and up holds 2^k + headerRoom bytes,
//     so a power-of-two payload plus a wire-frame header (at most 88 bytes)
//     fits its payload's class: a 1 MiB message's frame takes 1 MiB + 128,
//     not 2 MiB. Smaller classes are exact powers of two: there the
//     allocator would round 2^k + 128 up by 12 to 25 % (its size classes,
//     or a whole 8 KiB page), which every message that is not a power of
//     two would pay.
package bufpool

import (
	"math/bits"
	"sync"
)

const (
	// minClassBits is the smallest class (64 B) — below that, slack from
	// rounding up dominates and the allocator's size classes are fine.
	minClassBits = 6
	// maxClassBits caps pooled buffers at 128 MB (plus header room).
	// Larger requests fall through to the allocator and are not pooled.
	maxClassBits = 27
	numClasses   = maxClassBits - minClassBits + 1
	// roomClassBits is the smallest class with header room, and headerRoom
	// the room: the largest frame header (88 bytes), rounded up.
	roomClassBits = 17
	headerRoom    = 128
	// maxPooled is the largest pooled request, the top class's capacity.
	maxPooled = 1<<maxClassBits + headerRoom
)

// Pool is a size-classed free list of byte buffers. The zero value is not
// usable; create Pools with New. All methods are safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free [numClasses][][]byte

	acquires uint64
	releases uint64
	hits     uint64
}

// New creates an empty pool.
func New() *Pool { return &Pool{} }

// Reset makes p what New returns — nothing cached, every count zero —
// keeping only the storage of its size classes' lists: a host that gives a
// finished job's pool to the next job gives it no buffer and no count of
// the last one's.
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c, l := range p.free {
		clear(l)
		p.free[c] = l[:0]
	}
	p.acquires, p.releases, p.hits = 0, 0, 0
}

// classCap returns class c's capacity.
func classCap(c int) int {
	n := 1 << (minClassBits + c)
	if c >= roomClassBits-minClassBits {
		n += headerRoom
	}
	return n
}

// classFor returns the smallest class index whose capacity holds n bytes,
// or -1 if n is too large to pool.
func classFor(n int) int {
	switch {
	case n > maxPooled:
		return -1
	case n <= 1<<minClassBits:
		return 0
	case n <= 1<<(roomClassBits-1):
		return bits.Len(uint(n-1)) - minClassBits
	}
	return max(bits.Len(uint(n-headerRoom-1)), roomClassBits) - minClassBits
}

// classOf returns the class index whose capacity is exactly cap(b), or -1
// if the buffer did not come from this pool's size classes.
func classOf(b []byte) int {
	c := cap(b)
	if c < 1<<minClassBits || c > maxPooled {
		return -1
	}
	if idx := classFor(c); classCap(idx) == c {
		return idx
	}
	return -1
}

// Get returns a buffer with len n and capacity of n's size class. The
// contents are unspecified (stale from a previous user); the caller must
// overwrite every byte it reads. Get(0) returns nil and is not counted —
// zero-length requests carry no payload to stage.
func (p *Pool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	cls := classFor(n)
	if cls < 0 {
		// Too large to pool; hand out a plain allocation. Put will
		// recognize the foreign capacity and drop it.
		p.mu.Lock()
		p.acquires++
		p.mu.Unlock()
		return make([]byte, n)
	}
	p.mu.Lock()
	p.acquires++
	if l := p.free[cls]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[cls] = l[:len(l)-1]
		p.hits++
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, classCap(cls))
}

// Put returns a buffer to the pool. nil and zero-capacity buffers are
// ignored (the Get(0) counterpart); buffers whose capacity is not an exact
// size class are counted as released but dropped for the GC — they came
// from the too-large fallback or from foreign code.
func (p *Pool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	cls := classOf(b)
	p.mu.Lock()
	p.releases++
	if cls >= 0 {
		p.free[cls] = append(p.free[cls], b[:0])
	}
	p.mu.Unlock()
}

// Acquires returns the total number of counted Get calls.
func (p *Pool) Acquires() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acquires
}

// Releases returns the total number of counted Put calls.
func (p *Pool) Releases() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.releases
}

// Outstanding returns acquires minus releases — zero when every buffer
// has been returned exactly once.
func (p *Pool) Outstanding() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.acquires) - int64(p.releases)
}

// Hits returns how many Gets were served from the free lists rather than
// the allocator.
func (p *Pool) Hits() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits
}
