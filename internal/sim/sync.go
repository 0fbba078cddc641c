package sim

import "time"

// semWaiter is a Proc parked on a semaphore acquire of n permits.
type semWaiter struct {
	p *Proc
	n int
}

// Semaphore is a counting semaphore with FIFO fairness.
type Semaphore struct {
	s       *Sim
	name    string
	avail   int
	waiters ring[semWaiter]
}

// NewSemaphore creates a semaphore with an initial number of permits.
func (s *Sim) NewSemaphore(name string, permits int) *Semaphore {
	if permits < 0 {
		panic("sim: negative semaphore permits")
	}
	return &Semaphore{s: s, name: name, avail: permits}
}

func (sem *Semaphore) label() string { return sem.name }

// Acquire obtains n permits, blocking p until they are available. FIFO
// ordering: a large request at the head of the queue blocks later smaller
// ones (no starvation).
func (sem *Semaphore) Acquire(p *Proc, n int) {
	if !sem.AcquireStep(p, n) {
		p.await()
	}
}

// AcquireStep is Acquire's non-parking form: it reports whether p has the
// n permits at once, and otherwise queues p for them, FIFO behind earlier
// acquires; Release grants them before p's next turn.
func (sem *Semaphore) AcquireStep(p *Proc, n int) bool {
	p.checkCurrent("Semaphore.Acquire")
	if n <= 0 {
		panic("sim: Acquire of non-positive permits")
	}
	if sem.waiters.len() == 0 && sem.avail >= n {
		sem.avail -= n
		return true
	}
	sem.waiters.push(semWaiter{p: p, n: n})
	p.block(parkSemaphore, sem, int64(n))
	return false
}

// Release returns n permits and wakes as many queued waiters as now fit. A
// waiter killed in the queue takes none.
func (sem *Semaphore) Release(n int) {
	if n <= 0 {
		panic("sim: Release of non-positive permits")
	}
	sem.avail += n
	for sem.waiters.len() > 0 {
		w := sem.waiters.peek()
		if w.p.state != stateDone {
			if w.n > sem.avail {
				return
			}
			sem.avail -= w.n
			sem.s.unblock(w.p)
		}
		sem.waiters.pop()
	}
}

// Resource models a serially-reusable facility (a bus, a NIC, a memory
// controller): at most `width` concurrent users, each holding the resource
// for an explicit service time.
type Resource struct {
	sem *Semaphore
}

// NewResource creates a resource serving `width` concurrent users.
func (s *Sim) NewResource(name string, width int) *Resource {
	return &Resource{sem: s.NewSemaphore(name, width)}
}

// Use occupies one unit of the resource for duration d, blocking p for
// queueing plus service time. A caller with a noise stream scales d before
// the call, so the draw is made when its proc asks and not when the queue
// lets it in. A proc killed in service, or granted its unit and killed
// before it ran, gives the unit back.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.UseStep(p, d)
	p.await()
}

// UseStep is Use's non-parking form: it registers p's wake for the end of
// its service of d on a unit — queued FIFO behind earlier users, as Acquire
// is — and the kernel gives the unit back before p's next turn.
func (r *Resource) UseStep(p *Proc, d time.Duration) {
	p.checkCurrent("Resource.Use")
	sem := r.sem
	if sem.waiters.len() == 0 && sem.avail >= 1 {
		sem.avail--
		p.hold(sem, d)
		return
	}
	sem.waiters.push(semWaiter{p: p, n: 1})
	p.block(parkHold, sem, int64(d))
}

// Acquire and Release expose the underlying semaphore for multi-phase holds.
func (r *Resource) Acquire(p *Proc) { r.sem.Acquire(p, 1) }

// Release returns the resource.
func (r *Resource) Release() { r.sem.Release(1) }
