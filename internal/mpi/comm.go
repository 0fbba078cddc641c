package mpi

import "fmt"

// Comm is a communicator: an ordered group of world ranks whose collectives
// run in a tag context of their own (the id in every collective tag), so
// two communicators never match each other's collective traffic even when
// they span the same ranks. Collectives take comm ranks for roots and
// counts; point-to-point stays on Rank, in world ranks, and is isolated by
// the tags its caller picks. There are two ways to get one: World.Comm
// (every rank, context 0) and World.NewGroupComm.
type Comm struct {
	w  *World
	id int
	// members maps comm rank -> world rank.
	members []int
	// index maps world rank -> comm rank.
	index map[int]int
}

// Comm returns the world communicator containing every rank, context 0.
func (w *World) Comm() *Comm { return w.world }

// newComm builds a communicator structure.
func (w *World) newComm(id int, members []int) *Comm {
	c := &Comm{w: w, id: id, members: members, index: make(map[int]int, len(members))}
	for i, wr := range members {
		c.index[wr] = i
	}
	return c
}

// NewGroupComm builds a communicator over an explicit, strictly ascending
// set of world ranks without any collective exchange — the host-side
// constructor a multi-tenant runtime uses to give each admitted job a
// collective context over the nodes it was placed on. It involves no
// traffic, so it can be called before (or between) the members' procs
// running. The context belongs to the call, not to the member set: every
// call takes the next id, so a communicator built over ranks an earlier one
// held cannot match a frame the earlier one left behind (a canceled
// tenant's Bcast still in an unexpected queue). One caller builds a group's
// communicator once and hands the same *Comm to every member.
func (w *World) NewGroupComm(members []int) *Comm {
	if len(members) == 0 {
		panic("mpi: NewGroupComm needs at least one member")
	}
	for i, m := range members {
		if m < 0 || m >= len(w.ranks) {
			panic(fmt.Sprintf("mpi: NewGroupComm member %d outside world of %d ranks", m, len(w.ranks)))
		}
		if i > 0 && members[i-1] >= m {
			panic("mpi: NewGroupComm members must be strictly ascending")
		}
	}
	w.commMu.Lock()
	w.nextCommID++
	id := w.nextCommID
	w.commMu.Unlock()
	return w.newComm(id, append([]int(nil), members...))
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// RankOf returns r's rank within the communicator, panicking if r is not
// a member.
func (c *Comm) RankOf(r *Rank) int {
	cr, ok := c.index[r.id]
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d is not a member of comm %d", r.id, c.id))
	}
	return cr
}

// Translate converts a comm rank to its world rank.
func (c *Comm) Translate(commRank int) int {
	if commRank < 0 || commRank >= len(c.members) {
		panic(fmt.Sprintf("mpi: comm %d has no rank %d", c.id, commRank))
	}
	return c.members[commRank]
}

// Retire ends the traffic of a job that has finished on the world: the
// communicator's collectives and its point-to-point tags. What of it waits
// on a member's unexpected queue is dropped now, and what is still on the
// wire is dropped on arrival, before the receiving NIC charges or draws
// anything from the noise stream of the node's next job (World.late);
// dropped counts both. Neither the context nor the tags may carry traffic
// again. Call it between events, on a world of one shard.
func (c *Comm) Retire(dropped interface{ Add(int64) }, tags ...int) {
	w := c.w
	if w.retired == nil {
		w.retired = make(map[int]bool)
		w.net.DropLate(w.late)
	}
	w.retired[-1-c.id], w.dropped = true, dropped
	for _, tag := range tags {
		w.retired[tag] = true
	}
	for _, m := range c.members {
		r := w.ranks[m]
		kept := r.unexpected[:0]
		for _, env := range r.unexpected {
			if !w.late(env) {
				kept = append(kept, env)
			}
		}
		clear(r.unexpected[len(kept):])
		r.unexpected = kept
	}
}

// late drops an envelope of retired traffic, reporting whether it did: its
// payload is left to the collector (the pool it came from is the finished
// job's) and whatever awaited it on its rank is forgotten.
func (w *World) late(payload any) bool {
	env := payload.(*envelope)
	key := env.tag
	if key >= collTagBase {
		key = -1 - (key-collTagBase)>>12
	}
	if !w.retired[key] {
		return false
	}
	r := w.ranks[env.dst]
	switch env.kind {
	case kindCTS:
		delete(r.pendingSends, env.seq)
	case kindData:
		delete(r.bound, env.seq)
	}
	r.envs.Put(env)
	w.dropped.Add(1)
	return true
}
