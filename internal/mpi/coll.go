package mpi

import (
	"fmt"
	"math/bits"

	"dcgn/internal/sim"
)

// Collective operations use a reserved tag range far above user tags.
// Per-sender non-overtaking makes the matching of back-to-back collectives
// of the same kind safe; the round number disambiguates phases within one
// collective and the communicator id isolates groups that overlap, in
// members or in time.
const collTagBase = 1 << 28

func (c *Comm) collTag(op, round int) int {
	return collTagBase + c.id<<12 + op<<6 + round
}

const (
	opBarrier = iota
	opBcast
	opGather
	opScatter
	opAlltoall
)

// collHop charges the per-level collective overhead for an n-byte hop.
func (r *Rank) collHop(p *sim.Proc, n int) {
	if n >= collHopMinSize && r.w.cfg.CollHopOverhead > 0 {
		p.Sleep(r.jit.Scale(r.w.cfg.CollHopOverhead))
	}
}

// --- World-communicator convenience wrappers on Rank -------------------

// Barrier blocks until every rank in the world has entered it.
func (r *Rank) Barrier(p *sim.Proc) { r.w.Comm().Barrier(p, r) }

// Bcast broadcasts root's buf to every rank (binomial tree). All ranks
// must pass buffers of equal length.
func (r *Rank) Bcast(p *sim.Proc, buf []byte, root int) error {
	return r.w.Comm().Bcast(p, r, buf, root)
}

// Gather collects equal-sized contributions at root: rank i's sendBuf
// lands at recvBuf[i*len(sendBuf)]. recvBuf is only used at root.
func (r *Rank) Gather(p *sim.Proc, sendBuf, recvBuf []byte, root int) error {
	return r.w.Comm().Gather(p, r, sendBuf, recvBuf, root)
}

// --- Communicator collective algorithms ---------------------------------

// Barrier blocks until every communicator member has entered it
// (dissemination algorithm, ceil(log2 n) rounds).
func (c *Comm) Barrier(p *sim.Proc, r *Rank) {
	n := c.Size()
	me := c.RankOf(r)
	p.Sleep(r.jit.Scale(r.w.cfg.CallOverhead))
	if n == 1 {
		return
	}
	var token [1]byte
	for k, round := 1, 0; k < n; k, round = k<<1, round+1 {
		dst := c.Translate((me + k) % n)
		src := c.Translate((me - k + n) % n)
		if _, err := r.Sendrecv(p, token[:], dst, c.collTag(opBarrier, round), token[:], src, c.collTag(opBarrier, round)); err != nil {
			panic(fmt.Sprintf("mpi: barrier: %v", err))
		}
	}
}

// bcastLargeMin is the payload size above which Config.TreeCollectives
// switches Bcast to the scatter–allgather algorithm (largeBcast).
const bcastLargeMin = 8 << 10

// Bcast broadcasts the root member's buf to every member (binomial tree);
// root is a comm rank. With Config.TreeCollectives, payloads larger than
// bcastLargeMin run as binomial scatter + ring allgather (largeBcast).
func (c *Comm) Bcast(p *sim.Proc, r *Rank, buf []byte, root int) error {
	n := c.Size()
	me := c.RankOf(r)
	p.Sleep(r.jit.Scale(r.w.cfg.CallOverhead))
	if n == 1 {
		return nil
	}
	if r.w.cfg.TreeCollectives && len(buf) > bcastLargeMin {
		return c.largeBcast(p, r, buf, root)
	}
	vr := (me - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			src := c.Translate((vr - mask + root) % n)
			r.collHop(p, len(buf))
			if _, err := r.Recv(p, buf, src, c.collTag(opBcast, 0)); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < n {
			dst := c.Translate((vr + mask + root) % n)
			r.collHop(p, len(buf))
			r.Send(p, buf, dst, c.collTag(opBcast, 0))
		}
		mask >>= 1
	}
	return nil
}

// largeBcast is the large-payload broadcast: a binomial-tree scatter of
// 1/n-size chunks followed by a ring allgather (van de Geijn's
// scatter–allgather). The plain binomial tree makes the root inject
// log2(n) FULL copies of the payload, so its NIC serialization is the
// floor on broadcast time no matter how the levels overlap; here the root
// injects about one payload's worth of bytes total (the scatter), and the
// ring moves 1/n-size chunks in parallel on every link, cutting the
// bandwidth term from ~log2(n)·B to ~2·B spread across all members.
//
// The allgather steps reuse the opBcast tag space with the step index in
// the tag's 6-bit round field (mod 64): each ring neighbor pair exchanges
// exactly one message per step, in step order, so per-sender
// non-overtaking delivery makes the wrap safe.
func (c *Comm) largeBcast(p *sim.Proc, r *Rank, buf []byte, root int) error {
	n := c.Size()
	me := c.RankOf(r)
	counts := make([]int, n)
	base, extra := len(buf)/n, len(buf)%n
	for i := range counts {
		counts[i] = base
		if i < extra {
			counts[i]++
		}
	}
	displs := displacements(counts)
	// Phase 1: scatter the chunks in place (binomial treeScatterv when
	// n > 2, which TreeCollectives guarantees is enabled).
	var send []byte
	if me == root {
		send = buf
	}
	if err := c.Scatterv(p, r, send, counts, buf[displs[me]:displs[me]+counts[me]], root); err != nil {
		return err
	}
	// Phase 2: ring allgather of the (ragged) chunks.
	right := c.Translate((me + 1) % n)
	left := c.Translate((me - 1 + n) % n)
	for step := 0; step < n-1; step++ {
		si := (me - step + n) % n
		ri := (me - step - 1 + n) % n
		r.collHop(p, max(counts[si], counts[ri]))
		if _, err := r.Sendrecv(p,
			buf[displs[si]:displs[si]+counts[si]], right, c.collTag(opBcast, step&63),
			buf[displs[ri]:displs[ri]+counts[ri]], left, c.collTag(opBcast, step&63)); err != nil {
			return err
		}
	}
	return nil
}

// Gather collects equal-sized contributions at the root member.
func (c *Comm) Gather(p *sim.Proc, r *Rank, sendBuf, recvBuf []byte, root int) error {
	counts := make([]int, c.Size())
	for i := range counts {
		counts[i] = len(sendBuf)
	}
	return c.Gatherv(p, r, sendBuf, recvBuf, counts, root)
}

// Gatherv collects variable-sized contributions at the root member. With
// Config.TreeCollectives it runs as a binomial tree (see treeGatherv);
// otherwise the root posts a flat fan-in of n-1 receives.
func (c *Comm) Gatherv(p *sim.Proc, r *Rank, sendBuf, recvBuf []byte, counts []int, root int) error {
	n := c.Size()
	me := c.RankOf(r)
	if len(counts) != n {
		panic("mpi: Gatherv counts length != communicator size")
	}
	p.Sleep(r.jit.Scale(r.w.cfg.CallOverhead))
	if r.w.cfg.TreeCollectives && n > 2 {
		return c.treeGatherv(p, r, sendBuf, recvBuf, counts, root)
	}
	if me != root {
		r.collHop(p, len(sendBuf))
		return r.Send(p, sendBuf, c.Translate(root), c.collTag(opGather, 0))
	}
	displs := displacements(counts)
	reqs := make([]*Request, 0, n-1)
	for i := 0; i < n; i++ {
		if i == root {
			copy(recvBuf[displs[i]:displs[i]+counts[i]], sendBuf)
			continue
		}
		r.collHop(p, counts[i])
		reqs = append(reqs, r.Irecv(p, recvBuf[displs[i]:displs[i]+counts[i]], c.Translate(i), c.collTag(opGather, 0)))
	}
	for _, req := range reqs {
		if _, err := req.Wait(p); err != nil {
			return err
		}
	}
	return nil
}

// Scatterv distributes variable-sized chunks from the root member. With
// Config.TreeCollectives it runs as a binomial tree (see treeScatterv);
// otherwise the root posts a flat fan-out of n-1 sends.
func (c *Comm) Scatterv(p *sim.Proc, r *Rank, sendBuf []byte, counts []int, recvBuf []byte, root int) error {
	n := c.Size()
	me := c.RankOf(r)
	if len(counts) != n {
		panic("mpi: Scatterv counts length != communicator size")
	}
	p.Sleep(r.jit.Scale(r.w.cfg.CallOverhead))
	if r.w.cfg.TreeCollectives && n > 2 {
		return c.treeScatterv(p, r, sendBuf, counts, recvBuf, root)
	}
	if me != root {
		r.collHop(p, counts[me])
		_, err := r.Recv(p, recvBuf[:counts[me]], c.Translate(root), c.collTag(opScatter, 0))
		return err
	}
	displs := displacements(counts)
	reqs := make([]*Request, 0, n-1)
	for i := 0; i < n; i++ {
		chunk := sendBuf[displs[i] : displs[i]+counts[i]]
		if i == root {
			copy(recvBuf, chunk)
			continue
		}
		r.collHop(p, len(chunk))
		reqs = append(reqs, r.Isend(p, chunk, c.Translate(i), c.collTag(opScatter, 0)))
	}
	for _, req := range reqs {
		req.Wait(p) // a send reports no error
	}
	return nil
}

// vrankBytes returns the packed byte count of virtual ranks [lo, hi) of a
// tree collective rooted at root, virtual rank v being comm rank
// (v+root)%n. A member sums only ranges of its own subtree.
func vrankBytes(counts []int, root, lo, hi int) int {
	n, sum := len(counts), 0
	for v := lo; v < hi; v++ {
		sum += counts[(v+root)%n]
	}
	return sum
}

// subtreeEnd returns the exclusive upper virtual rank of vr's binomial
// subtree: [vr, vr+lowbit(vr)) clipped to n, the whole range for the root.
func subtreeEnd(vr, n int) int {
	if vr == 0 {
		return n
	}
	if end := vr + vr&-vr; end < n {
		return end
	}
	return n
}

// treeGatherv is the binomial-tree gather: each member accumulates its
// subtree's contributions (packed in virtual-rank order in a pooled
// scratch buffer) and forwards one message per level to its parent, so
// the root receives log2(n) messages instead of n-1 — the fix for the
// flat-rendezvous incast that serializes at the root's NIC at scale.
func (c *Comm) treeGatherv(p *sim.Proc, r *Rank, sendBuf, recvBuf []byte, counts []int, root int) error {
	n := c.Size()
	me := c.RankOf(r)
	vr := (me - root + n) % n
	scratch := r.stagingPool().Get(vrankBytes(counts, root, vr, subtreeEnd(vr, n)))
	defer r.stagingPool().Put(scratch)
	copy(scratch[:counts[me]], sendBuf)
	got := counts[me] // bytes of [vr, vr+mask) so far
	for mask := 1; mask < n; mask <<= 1 {
		round := bits.Len(uint(mask)) - 1
		if vr&mask != 0 {
			// Covered [vr, vr+mask) so far; ship it to the parent.
			parent := c.Translate((vr - mask + root) % n)
			r.collHop(p, got)
			return r.Send(p, scratch[:got], parent, c.collTag(opGather, round))
		}
		child := vr + mask
		if child < n {
			nb := vrankBytes(counts, root, child, min(child+mask, n))
			r.collHop(p, nb)
			if _, err := r.Recv(p, scratch[got:got+nb], c.Translate((child+root)%n), c.collTag(opGather, round)); err != nil {
				return err
			}
			got += nb
		}
	}
	// Only the root (vr == 0) reaches here: unpack virtual-rank order into
	// the caller's comm-rank displacements.
	displs := displacements(counts)
	off := 0
	for v := 0; v < n; v++ {
		cr := (v + root) % n
		off += copy(recvBuf[displs[cr]:displs[cr]+counts[cr]], scratch[off:off+counts[cr]])
	}
	return nil
}

// treeScatterv is the binomial-tree scatter: the root packs all chunks in
// virtual-rank order and each member forwards its children's subtree
// blocks level by level, bounding the root's fan-out to log2(n) sends.
func (c *Comm) treeScatterv(p *sim.Proc, r *Rank, sendBuf []byte, counts []int, recvBuf []byte, root int) error {
	n := c.Size()
	me := c.RankOf(r)
	vr := (me - root + n) % n
	myBytes := vrankBytes(counts, root, vr, subtreeEnd(vr, n))
	scratch := r.stagingPool().Get(myBytes)
	defer r.stagingPool().Put(scratch)
	// mask ends at the bit linking vr to its parent (its lowest set bit),
	// or at the top of the tree for the root.
	mask := 1
	for mask < n && vr&mask == 0 {
		mask <<= 1
	}
	if vr == 0 {
		displs := displacements(counts)
		off := 0
		for v := 0; v < n; v++ {
			cr := (v + root) % n
			off += copy(scratch[off:], sendBuf[displs[cr]:displs[cr]+counts[cr]])
		}
	} else {
		parent := c.Translate((vr - mask + root) % n)
		r.collHop(p, myBytes)
		if _, err := r.Recv(p, scratch, parent, c.collTag(opScatter, bits.Len(uint(mask))-1)); err != nil {
			return err
		}
	}
	for cm := mask >> 1; cm >= 1; cm >>= 1 {
		child := vr + cm
		if child >= n {
			continue
		}
		off := vrankBytes(counts, root, vr, child)
		nb := vrankBytes(counts, root, child, min(child+cm, n))
		r.collHop(p, nb)
		r.Send(p, scratch[off:off+nb], c.Translate((child+root)%n), c.collTag(opScatter, bits.Len(uint(cm))-1))
	}
	copy(recvBuf[:counts[me]], scratch[:counts[me]])
	return nil
}

// Alltoallv is the variable-size all-to-all: member i sends
// sendCounts[j] bytes to member j (packed contiguously in member order in
// sendBuf) and receives recvCounts[j] bytes from member j (packed in
// recvBuf). Pairwise exchange, n-1 steps.
func (c *Comm) Alltoallv(p *sim.Proc, r *Rank, sendBuf []byte, sendCounts []int, recvBuf []byte, recvCounts []int) error {
	n := c.Size()
	me := c.RankOf(r)
	if len(sendCounts) != n || len(recvCounts) != n {
		panic("mpi: Alltoallv counts length != communicator size")
	}
	p.Sleep(r.jit.Scale(r.w.cfg.CallOverhead))
	sd := displacements(sendCounts)
	rd := displacements(recvCounts)
	copy(recvBuf[rd[me]:rd[me]+recvCounts[me]], sendBuf[sd[me]:sd[me]+sendCounts[me]])
	for step := 1; step < n; step++ {
		dst := (me + step) % n
		src := (me - step + n) % n
		r.collHop(p, max(sendCounts[dst], recvCounts[src]))
		if _, err := r.Sendrecv(p,
			sendBuf[sd[dst]:sd[dst]+sendCounts[dst]], c.Translate(dst), c.collTag(opAlltoall, step),
			recvBuf[rd[src]:rd[src]+recvCounts[src]], c.Translate(src), c.collTag(opAlltoall, step)); err != nil {
			return err
		}
	}
	return nil
}

// displacements returns the prefix-sum offsets for packed variable-size
// buffers.
func displacements(counts []int) []int {
	d := make([]int, len(counts))
	off := 0
	for i, c := range counts {
		d[i] = off
		off += c
	}
	return d
}
