package device

import (
	"errors"
	"fmt"
	"slices"
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

// slabBytes is the size of the host chunks small allocations are carved
// from, and slabMax the largest rounded allocation carved from one: a
// device's mailboxes, trigger descriptors and tiny buffers share one make.
const slabBytes, slabMax = 4 << 10, 1 << 10

// ErrOutOfMemory is returned when the arena cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("device: out of memory")

// span is a [off, off+len) region of device memory.
type span struct {
	off int64
	len int64
}

// block is one live allocation: its base offset, its rounded size and its
// host backing, as long as size once made and nil until the first access.
type block struct {
	off, size int64
	data      []byte
}

// Arena is a first-fit allocator over a device address space. Only what is
// touched has host backing: an allocation's fresh zeroed backing is made on
// its first Bytes, not at Alloc, so an arena costs the host what its
// program reads and writes, whatever its size and however much it
// allocates. Backing never moves once made, so slices of one allocation
// alias, and memory handed out again reads zero. All methods are called
// from simulated procs only (Bytes too writes arena state), so no locking
// is needed.
type Arena struct {
	free   []span  // sorted by offset, coalesced
	blocks []block // live allocations, sorted by offset
	slab   []byte  // the unused tail of the current small-allocation chunk

	// The first backing arrays of free and blocks, so that a device with a
	// handful of allocations costs the host one allocation for its arena.
	free0   [1]span
	blocks0 [8]block
}

// NewArena creates an arena of the given size. The first alignment unit is
// reserved so that no valid allocation has offset 0.
func NewArena(size int) *Arena {
	a := new(Arena)
	a.init(size)
	return a
}

// init readies a zero Arena in place (a Device embeds its own).
func (a *Arena) init(size int) {
	if size < 2*allocAlign {
		// Internal invariant: a job's Config.Device is validated before any
		// device is built.
		panic("device: arena too small")
	}
	a.free0[0] = span{off: allocAlign, len: int64(size) - allocAlign}
	a.free, a.blocks = a.free0[:], a.blocks0[:0]
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
func (a *Arena) LiveAllocs() int { return len(a.blocks) }

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
			if s.len == need {
				a.free = slices.Delete(a.free, i, i+1)
			} else {
				a.free[i] = span{off: s.off + need, len: s.len - need}
			}
			a.blocks = slices.Insert(a.blocks, a.find(s.off)+1, block{off: s.off, size: need})
			return Ptr(s.off), nil
		}
	}
	return Null, ErrOutOfMemory
}

// backing returns n fresh zeroed host bytes: carved from the slab when n is
// small, a make of its own otherwise.
func (a *Arena) backing(n int64) []byte {
	if n > slabMax {
		return make([]byte, n)
	}
	if int64(len(a.slab)) < n {
		a.slab = make([]byte, slabBytes)
	}
	b := a.slab[:n:n]
	a.slab = a.slab[n:]
	return b
}

// MustAlloc is Alloc that panics on failure; for setup code.
func (a *Arena) MustAlloc(n int) Ptr {
	p, err := a.Alloc(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Free releases an allocation made by Alloc, backing and all (an untouched
// one has none). Freeing Null is a no-op; freeing an unknown pointer panics
// (it indicates memory corruption in the simulated program).
func (a *Arena) Free(p Ptr) {
	if p == Null {
		return
	}
	i := a.find(int64(p))
	if i < 0 || a.blocks[i].off != int64(p) {
		panic(fmt.Sprintf("device: free of unallocated pointer %#x", int64(p)))
	}
	s := span{off: int64(p), len: a.blocks[i].size}
	a.blocks = slices.Delete(a.blocks, i, i+1)
	// Insert sorted and coalesce with neighbours.
	j := sort.Search(len(a.free), func(j int) bool { return a.free[j].off > s.off })
	a.free = slices.Insert(a.free, j, s)
	a.coalesce(j)
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

// find returns the index of the live block with the greatest base offset
// not above off, or -1. Bytes is on every device access, so this is a
// hand-written binary search rather than a sort.Search closure.
func (a *Arena) find(off int64) int {
	lo, hi := 0, len(a.blocks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a.blocks[m].off <= off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// Bytes returns the n-byte slice of device memory at p, backing its
// allocation if this is the allocation's first access. An access that is
// not within one live allocation panics like a device segfault would.
func (a *Arena) Bytes(p Ptr, n int) []byte {
	b, lo := a.access(p, n)
	if b.data == nil {
		b.data = a.backing(b.size)
	}
	return b.data[lo : lo+int64(n)]
}

// Read copies the len(dst) bytes of device memory at p into dst: a read
// that, unlike Bytes, leaves an allocation never touched unbacked and
// zeroes dst. It faults as Bytes does.
func (a *Arena) Read(p Ptr, dst []byte) {
	if b, lo := a.access(p, len(dst)); b.data != nil {
		copy(dst, b.data[lo:])
	} else {
		clear(dst)
	}
}

// access returns the live allocation that holds the n bytes at p and p's
// offset into it, or faults.
func (a *Arena) access(p Ptr, n int) (*block, int64) {
	if i := a.find(int64(p)); i >= 0 && n >= 0 {
		b := &a.blocks[i]
		if lo := int64(p) - b.off; lo+int64(n) <= b.size {
			return b, lo
		}
	}
	panic(fmt.Sprintf("device: invalid memory access ptr=%#x len=%d", int64(p), n))
}
