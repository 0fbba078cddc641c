package sim

// ring is a FIFO on a power-of-two circular buffer: the ready queue and
// every wait list. A slice that is appended to and front-sliced re-allocates
// its backing array each time the head walks off it; a ring that has grown
// to its working size never allocates again.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// peek returns the oldest element; the ring must not be empty.
func (r *ring[T]) peek() T { return r.buf[r.head] }

// pop removes and returns the oldest element; the ring must not be empty.
// The slot is zeroed so the ring does not pin what it no longer holds.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// at returns the i-th oldest element; i must be below len.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// removeAt removes the i-th oldest element, moving the newer ones up a
// slot; i must be below len.
func (r *ring[T]) removeAt(i int) {
	m := len(r.buf) - 1
	for ; i < r.n-1; i++ {
		r.buf[(r.head+i)&m] = r.buf[(r.head+i+1)&m]
	}
	var zero T
	r.buf[(r.head+r.n-1)&m] = zero
	r.n--
}

// grow doubles the buffer, from eight slots: most wait lists and queues
// hold a few entries, and reaching eight a slot at a time would take four
// allocations.
func (r *ring[T]) grow() {
	buf := make([]T, max(8, 2*len(r.buf)))
	n := copy(buf, r.buf[r.head:])
	copy(buf[n:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
