package device

import (
	"errors"
	"fmt"
	"sort"
)

// Ptr is a device-memory address (a byte offset into the device's memory
// arena). The zero Ptr is the device null pointer; no allocation is ever
// placed at offset 0.
type Ptr int64

// Null is the device null pointer.
const Null Ptr = 0

// allocAlign is the allocation granularity, matching CUDA's 256-byte
// alignment guarantee.
const allocAlign = 256

// ErrOutOfMemory is returned when the arena cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("device: out of memory")

// span is a [off, off+len) region of device memory.
type span struct {
	off int64
	len int64
}

// Arena is a first-fit device-memory allocator over a flat byte array.
// All methods are called from simulated procs only, so no locking is needed.
type Arena struct {
	data []byte
	free []span        // sorted by offset, coalesced
	live map[Ptr]int64 // allocation size by base pointer
}

// NewArena creates an arena of the given size. The first alignment unit is
// reserved so that no valid allocation has offset 0.
func NewArena(size int) *Arena {
	if size < 2*allocAlign {
		panic("device: arena too small")
	}
	return &Arena{
		data: make([]byte, size),
		free: []span{{off: allocAlign, len: int64(size) - allocAlign}},
		live: make(map[Ptr]int64),
	}
}

// FreeBytes returns the total bytes currently available (possibly
// fragmented).
func (a *Arena) FreeBytes() int64 {
	var n int64
	for _, s := range a.free {
		n += s.len
	}
	return n
}

// LiveAllocs returns the number of outstanding allocations.
func (a *Arena) LiveAllocs() int { return len(a.live) }

// roundUp rounds n up to the allocation alignment.
func roundUp(n int64) int64 {
	return (n + allocAlign - 1) / allocAlign * allocAlign
}

// Alloc reserves n bytes and returns the base pointer.
func (a *Arena) Alloc(n int) (Ptr, error) {
	if n <= 0 {
		return Null, fmt.Errorf("device: invalid allocation size %d", n)
	}
	need := roundUp(int64(n))
	for i, s := range a.free {
		if s.len >= need {
			p := Ptr(s.off)
			if s.len == need {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{off: s.off + need, len: s.len - need}
			}
			a.live[p] = need
			return p, nil
		}
	}
	return Null, ErrOutOfMemory
}

// MustAlloc is Alloc that panics on failure; for setup code.
func (a *Arena) MustAlloc(n int) Ptr {
	p, err := a.Alloc(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Free releases an allocation made by Alloc. Freeing Null is a no-op;
// freeing an unknown pointer panics (it indicates memory corruption in the
// simulated program).
func (a *Arena) Free(p Ptr) {
	if p == Null {
		return
	}
	size, ok := a.live[p]
	if !ok {
		panic(fmt.Sprintf("device: free of unallocated pointer %#x", int64(p)))
	}
	delete(a.live, p)
	s := span{off: int64(p), len: size}
	// Insert sorted and coalesce with neighbours.
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off > s.off })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = s
	a.coalesce(i)
}

// coalesce merges the span at index i with adjacent free spans.
func (a *Arena) coalesce(i int) {
	// Merge with next.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].len == a.free[i+1].off {
		a.free[i].len += a.free[i+1].len
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	// Merge with previous.
	if i > 0 && a.free[i-1].off+a.free[i-1].len == a.free[i].off {
		a.free[i-1].len += a.free[i].len
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// Bytes returns the n-byte slice of device memory at p. The caller must
// stay within an allocation; out-of-arena access panics like a device
// segfault would.
func (a *Arena) Bytes(p Ptr, n int) []byte {
	if p <= 0 || int64(n) < 0 || int64(p)+int64(n) > int64(len(a.data)) {
		panic(fmt.Sprintf("device: invalid memory access ptr=%#x len=%d", int64(p), n))
	}
	return a.data[p : int64(p)+int64(n)]
}
