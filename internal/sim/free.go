package sim

import "unsafe"

// FreeList is a capped LIFO of spare objects of one kind, kept by the one
// owner that recycles them — a simulator for its stackless procs, a fabric
// node for its packets, a rank for its envelopes — and touched only under
// the baton of the simulator that owner lives on. An object that crossed to
// another owner during its life (a packet to its destination node) goes
// back to that owner's list, not to the one it came from; the cap keeps a
// list that only ever receives, such as a gather root's, from growing
// without bound. It is not a sync.Pool on purpose: a sync.Pool is shared
// across goroutines, hands objects back in an order no run can repeat, and
// is emptied by every garbage collection.
//
// A list made with Init counts its traffic in its simulator's Stats, by
// kind. The zero FreeList, and a nil one, recycle nothing: Get allocates
// and Put forgets, which is what an owner that runs on no simulator (the
// live backend) keeps.
type FreeList[T any] struct {
	spare []*T
	// slab is the unused rest of the block the list last allocated, and
	// made how many objects its blocks have held so far (Get sizes the
	// next).
	slab []T
	made int
	max  int
	c    *Recycled
}

// bigObject is the size from which a list's blocks grow by what it has
// made rather than by twice that: an AsyncOp, a sendrecv join, a node
// engine.
const bigObject = 256

// Recycled counts one kind's traffic through its free lists. Gets counts the
// objects handed out and Fresh those among them that had to be allocated;
// Puts counts the objects whose life is over, kept for reuse or, when the
// list is full or something may still point at the object, left to the
// garbage collector. Gets - Puts is the number of objects still held.
type Recycled struct{ Gets, Puts, Fresh uint64 }

// Held returns the objects handed out and not given back.
func (r Recycled) Held() uint64 { return r.Gets - r.Puts }

// Init makes l a list of kind on s, counted in s.Stats().Recycled[kind],
// that keeps at most max spare objects.
func (l *FreeList[T]) Init(s *Sim, kind string, max int) {
	l.max, l.c = max, s.recycledKind(kind)
}

// Get returns a spare object — cleared, or as Keep left it — or a new one
// when there is none.
func (l *FreeList[T]) Get() *T {
	if l == nil || l.c == nil {
		return new(T)
	}
	l.c.Gets++
	if n := len(l.spare); n > 0 {
		x := l.spare[n-1]
		l.spare[n-1] = nil
		l.spare = l.spare[:n-1]
		return x
	}
	l.c.Fresh++
	if len(l.slab) == 0 {
		// A dry list allocates its next block: twice as many objects as it
		// has made so far, or as many for objects of bigObject bytes or
		// more, whose unused rest would cost more than the allocation it
		// saves — two at first, at most eight, and at most half the spares
		// the list may keep, so that a short life (a small job's node) does
		// not pay for eight, and a list that keeps two (a node's engines)
		// allocates one at a time.
		var zero T
		n := l.made
		if unsafe.Sizeof(zero) < bigObject {
			n *= 2
		}
		n = min(max(n, 2), 8, max(l.max/2, 1))
		l.slab, l.made = make([]T, n), l.made+n
	}
	x := &l.slab[0]
	l.slab = l.slab[1:]
	return x
}

// Put ends x's life: x is cleared at once, so that it pins nothing, and
// kept for the next Get if the list has room. Nothing may use x after.
func (l *FreeList[T]) Put(x *T) {
	if l == nil || l.c == nil {
		return
	}
	l.c.Puts++
	var zero T
	*x = zero
	switch {
	case l.spare == nil:
		// Most lists hold a handful: start at eight, not one.
		l.spare = append(make([]*T, 0, min(l.max, 8)), x)
	case len(l.spare) < l.max:
		l.spare = append(l.spare, x)
	}
}

// Keep is Put for an owner that resets each object Get hands it itself,
// keeping storage it reuses from one life to the next (maps, slice
// backing, objects x points to): x is not cleared, and is kept for the
// next Get if the list has room. Nothing may use x after.
func (l *FreeList[T]) Keep(x *T) {
	if l == nil || l.c == nil {
		return
	}
	l.c.Puts++
	if len(l.spare) < l.max {
		l.spare = append(l.spare, x)
	}
}

// Drop ends the life of an object that must not be reused, because stale
// references to it may still be followed: it is left to the garbage
// collector, and only counted.
func (l *FreeList[T]) Drop() {
	if l != nil && l.c != nil {
		l.c.Puts++
	}
}
