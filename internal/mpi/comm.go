package mpi

import (
	"fmt"
	"math"
)

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
	// tags are the point-to-point tags of a group communicator's job,
	// retired with it.
	tags []int
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
// tenant's Bcast still in an unexpected queue). tags are the point-to-point
// tags the job on it sends with, retired with it (Retire): a job that is
// never retired must send with none in the span of the group
// communicators' tags. One caller builds a group's communicator once and
// hands the same *Comm to every member.
func (w *World) NewGroupComm(members []int, tags ...int) *Comm {
	c := &Comm{w: w}
	w.group(c, members, tags)
	return c
}

// Renew makes c, retired, the communicator NewGroupComm(members, tags...)
// would build — the next context, the tags given — keeping the storage of
// its member list, index and tags: how a long-lived host gives a finished
// job's communicator to the next.
func (c *Comm) Renew(members []int, tags ...int) {
	if _, live := c.w.live[-1-c.id]; live || c == c.w.world {
		panic("mpi: Renew of a communicator that is not retired")
	}
	c.w.group(c, members, tags)
}

// group makes c a group communicator over members with tags, in the next
// context, and registers its traffic as live.
func (w *World) group(c *Comm, members, tags []int) {
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
	c.members, c.tags = append(c.members[:0], members...), append(c.tags[:0], tags...)
	if c.index == nil {
		c.index = make(map[int]int, len(members))
	}
	clear(c.index)
	for i, wr := range c.members {
		c.index[wr] = i
	}
	w.commMu.Lock()
	defer w.commMu.Unlock()
	w.nextCommID++
	c.id = w.nextCommID
	if w.live == nil {
		w.live, w.tagLo, w.tagHi = make(map[int]struct{}), math.MaxInt, math.MinInt
	}
	w.live[-1-c.id] = struct{}{}
	for _, tag := range tags {
		w.live[tag] = struct{}{}
		w.tagLo, w.tagHi = min(w.tagLo, tag), max(w.tagHi, tag)
	}
}

// LiveKeys counts the traffic keys the world keeps for its group
// communicators: a context and the tags of each one not yet retired.
func (w *World) LiveKeys() int { return len(w.live) }

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
// group communicator's collectives and its point-to-point tags. What of it
// waits on a member's unexpected queue is dropped now, and what is still on
// the wire is dropped on arrival, before the receiving NIC charges or draws
// anything from the noise stream of the node's next job (World.late);
// dropped counts both. Neither the context nor the tags may carry traffic
// again. Call it between events, on a world of one shard.
func (c *Comm) Retire(dropped interface{ Add(int64) }) {
	w := c.w
	if !w.lateOn {
		w.lateOn = true
		w.net.DropLate(w.late)
	}
	w.dropped = dropped
	w.commMu.Lock()
	delete(w.live, -1-c.id)
	for _, tag := range c.tags {
		delete(w.live, tag)
	}
	w.commMu.Unlock()
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
	if !w.retired(env.tag) {
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

// retired reports whether a frame's tag, point-to-point or collective, is
// traffic that has ended: a group communicator's context or tag that is no
// longer live. Contexts and tenants' tags are handed out in increasing
// order, so one that is not live is retired if it lies where group
// communicators have had theirs: a context from 1 to the last, a tag in the
// span of their tags.
func (w *World) retired(tag int) bool {
	key := tag
	if tag >= collTagBase {
		ctx := (tag - collTagBase) >> 12
		if ctx < 1 || ctx > w.nextCommID {
			return false
		}
		key = -1 - ctx
	} else if tag < w.tagLo || tag > w.tagHi {
		return false
	}
	_, live := w.live[key]
	return !live
}
