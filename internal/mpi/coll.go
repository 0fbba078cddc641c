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

func (c *Comm) collTag(kind CollKind, round int) int {
	return collTagBase + c.id<<12 + int(kind)<<6 + round
}

// CollKind names the collective a Coll runs; its value is the collective's
// field in the tags it sends.
type CollKind uint8

// The collectives of a Coll.
const (
	CollBarrier CollKind = iota
	CollBcast
	CollGatherv
	CollScatterv
	CollAlltoallv
)

// String returns the kind's name, as its errors spell it.
func (k CollKind) String() string {
	return [...]string{"barrier", "bcast", "gatherv", "scatterv", "alltoallv"}[k]
}

// hop charges the per-level collective overhead for an n-byte hop as a
// step form, and reports whether it registered p's wake.
func (r *Rank) hop(p *sim.Proc, n int) bool {
	if n >= collHopMinSize && r.w.cfg.CollHopOverhead > 0 {
		p.SleepStep(r.jit.Scale(r.w.cfg.CollHopOverhead))
		return true
	}
	return false
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

// --- The blocking collectives: a Coll driven by Await -------------------

// Barrier blocks until every communicator member has entered it
// (dissemination algorithm, ceil(log2 n) rounds).
func (c *Comm) Barrier(p *sim.Proc, r *Rank) {
	var m Coll
	m.Start(c, r, CollBarrier, 0, nil, nil, nil, nil)
	if err := m.run(p); err != nil {
		panic(fmt.Sprintf("mpi: barrier: %v", err))
	}
}

// Bcast broadcasts the root member's buf to every member (binomial tree);
// root is a comm rank. With Config.TreeCollectives, payloads larger than
// bcastLargeMin run as binomial scatter + ring allgather. A member whose
// buffer length differs from what reaches it gets an error, once it has
// passed what it received on to its subtree.
func (c *Comm) Bcast(p *sim.Proc, r *Rank, buf []byte, root int) error {
	var m Coll
	m.Start(c, r, CollBcast, root, buf, nil, nil, nil)
	return m.run(p)
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
	var m Coll
	m.Start(c, r, CollGatherv, root, sendBuf, recvBuf, counts, nil)
	return m.run(p)
}

// run drives m to its end on p, dropping what it has posted if p unwinds
// first.
func (m *Coll) run(p *sim.Proc) error {
	defer m.Drop()
	for {
		if done, err := m.Step(p); done {
			return err
		}
		p.Await()
	}
}

// --- The step machine ---------------------------------------------------

// Coll is one member's part in a collective on a communicator as a step
// machine: Start readies it, and Step advances it a wake at a time. The
// blocking collectives are one driven by Step and Proc.Await, so a
// stackless proc that steps one takes the slots they take. A Coll is reused
// from one collective to the next: what it keeps between them is capacity.
type Coll struct {
	c          *Comm
	r          *Rank
	kind       CollKind
	root       int
	send, recv []byte
	counts     []int
	recvCounts []int
	buf        []byte // a broadcast's buffer, which its scatter phase splits

	on    bool
	large bool  // a scatter–allgather broadcast past its scatter phase
	pc    uint8 // the algorithm's phase
	seq   uint8 // the primitives of the current iteration that are done
	sr    uint8 // the phase of a sendrecv
	i     int   // the phase's loop variable
	mask  int
	got   int
	err   error
	// lens is a scatter–allgather broadcast's byte count of each chunk it
	// holds: what arrived of it, which is what it forwards.
	lens []int

	sop     SendOp
	rop     RecvOp
	stat    Status
	scratch []byte
	displs  []int
	// reqs are a flat gather root's posted receives, sends a flat scatter
	// root's posted sends.
	reqs  []RecvOp
	sends []SendOp
}

// Start readies m to run a collective of kind on comm c for member r: the
// buffers and per-member counts its kind reads, as the blocking form of
// the kind takes them (Barrier reads none, Bcast send alone, Alltoallv
// counts for the send side and recvCounts for the receive side).
func (m *Coll) Start(c *Comm, r *Rank, kind CollKind, root int, send, recv []byte, counts, recvCounts []int) {
	n := c.Size()
	switch kind {
	case CollGatherv, CollScatterv:
		if len(counts) != n {
			panic(fmt.Sprintf("mpi: %v counts length != communicator size", kind))
		}
	case CollAlltoallv:
		if len(counts) != n || len(recvCounts) != n {
			panic("mpi: Alltoallv counts length != communicator size")
		}
	}
	reqs, sends := m.reqs, m.sends
	*m = Coll{c: c, r: r, kind: kind, root: root, send: send, recv: recv, counts: counts, recvCounts: recvCounts, on: true, reqs: reqs, sends: sends}
	if kind == CollBcast {
		m.buf = send
	}
}

// Started reports whether m is a collective in progress: started, and not
// yet done.
func (m *Coll) Started() bool { return m.on }

// bcastLargeMin is the payload size above which Config.TreeCollectives
// switches Bcast to the scatter–allgather algorithm (largeBcast).
const bcastLargeMin = 8 << 10

// The phases of largeBcast past its setup: the scatter's call overhead is
// charged (the scatter's own phases follow, below lbRing), then the ring.
const (
	lbScatter uint8 = 8
	lbRing    uint8 = 9
)

// Step advances the collective on p and reports whether it is done, with
// its error; if it is not, it has registered p's next wake, after which p
// calls Step again. Every kind begins with the library call's overhead.
func (m *Coll) Step(p *sim.Proc) (bool, error) {
	if m.pc == 0 {
		m.pc = 1
		p.SleepStep(m.r.jit.Scale(m.r.w.cfg.CallOverhead))
		return false, nil
	}
	var done bool
	switch m.kind {
	case CollBarrier:
		done = m.barrier(p)
	case CollBcast:
		done = m.bcast(p)
	case CollGatherv:
		done = m.gatherv(p)
	case CollScatterv:
		done = m.scatterv(p)
	default:
		done = m.alltoallv(p)
	}
	if !done {
		return false, nil
	}
	if m.scratch != nil {
		m.r.stagingPool().Put(m.scratch)
		m.scratch = nil
	}
	m.on = false
	return true, m.err
}

// Drop takes back the receives m has posted and not seen complete: what a
// proc that ends in the middle of a collective must do.
func (m *Coll) Drop() {
	if !m.on {
		return
	}
	m.rop.Drop()
	m.dropReqs()
	if m.scratch != nil {
		m.r.stagingPool().Put(m.scratch)
		m.scratch = nil
	}
	m.on = false
}

// The primitives below are step forms that keep their progress in m: each
// reports whether it is complete, and is called again with the same
// arguments after the wake it registered until it is. A phase's iteration
// runs its primitives in order, counting the ones done in m.seq.

// hopAt charges the hop overhead as the iteration's primitive k, and
// reports whether the iteration goes on in this step.
func (m *Coll) hopAt(p *sim.Proc, k uint8, n int) bool {
	if m.seq != k {
		return true
	}
	m.seq++
	return !m.r.hop(p, n)
}

// sendAt sends buf to world rank dst as the iteration's primitive k.
func (m *Coll) sendAt(p *sim.Proc, k uint8, buf []byte, dst, tag int) bool {
	if m.seq != k {
		return true
	}
	if !m.r.sendStep(p, &m.sop, buf, dst, tag, false, true) {
		return false
	}
	m.sop = SendOp{}
	m.seq++
	return true
}

// recvAt receives into buf from world rank src as the iteration's
// primitive k, leaving its status in m.stat and returning its error in
// *err.
func (m *Coll) recvAt(p *sim.Proc, k uint8, buf []byte, src, tag int, err *error) bool {
	if m.seq != k {
		return true
	}
	if m.rop.r == nil {
		m.rop = RecvOp{r: m.r, rr: recvReq{buf: buf, src: src, tag: tag}}
	}
	if !m.rop.step(p, true) {
		return false
	}
	m.stat, *err = m.rop.rr.stat, m.rop.rr.err
	m.rop = RecvOp{}
	m.seq++
	return true
}

// sendrecvAt is Rank.Sendrecv as the iteration's primitive k: the receive
// posted, the send made, then the receive awaited.
func (m *Coll) sendrecvAt(p *sim.Proc, k uint8, sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int, err *error) bool {
	if m.seq != k {
		return true
	}
	if m.sr == 0 {
		if m.rop.r == nil {
			m.rop = RecvOp{r: m.r, rr: recvReq{buf: recvBuf, src: src, tag: recvTag}}
		}
		if !m.rop.step(p, false) {
			return false
		}
		m.sr = 1
	}
	if m.sr == 1 {
		if !m.r.sendStep(p, &m.sop, sendBuf, dst, sendTag, false, true) {
			return false
		}
		m.sop, m.sr = SendOp{}, 2
	}
	return m.recvAt(p, k, recvBuf, src, recvTag, err)
}

// next ends the iteration: the next one starts from its first primitive.
func (m *Coll) next() { m.seq, m.sr = 0, 0 }

// barrier is the dissemination barrier: in round k every member sends a
// token 2^k members up and receives one from 2^k members down.
func (m *Coll) barrier(p *sim.Proc) bool {
	c := m.c
	n, me := c.Size(), c.RankOf(m.r)
	var token [1]byte
	for ; 1<<m.i < n; m.i++ {
		k := 1 << m.i
		dst := c.Translate((me + k) % n)
		src := c.Translate((me - k + n) % n)
		tag := c.collTag(CollBarrier, m.i)
		if !m.sendrecvAt(p, 0, token[:], dst, tag, token[:], src, tag, &m.err) {
			return false
		}
		if m.err != nil {
			return true
		}
		m.next()
	}
	return true
}

// bcast is the binomial-tree broadcast, or with Config.TreeCollectives and
// a payload past bcastLargeMin the scatter–allgather one (largeBcast). A
// member whose received length differs from its buffer's still forwards,
// so its subtree is not left waiting, and returns the mismatch as its
// error. In the binomial tree it forwards what it received: all of a short
// arrival, nothing of a truncated one, so every member below whose length
// differs from the root's sees a mismatch too (but one of zero length,
// which has nothing to hold).
func (m *Coll) bcast(p *sim.Proc) bool {
	c, buf := m.c, m.buf
	n, me := c.Size(), c.RankOf(m.r)
	if n == 1 {
		return true
	}
	if m.large || m.r.w.cfg.TreeCollectives && len(buf) > bcastLargeMin {
		return m.largeBcast(p)
	}
	vr := (me - m.root + n) % n
	if m.pc == 1 {
		// Receive from the parent: the member vr - lowbit(vr).
		if m.mask == 0 {
			m.mask = 1
			for m.mask < n && vr&m.mask == 0 {
				m.mask <<= 1
			}
		}
		m.got = len(buf) // what the member forwards
		if m.mask < n {
			src := c.Translate((vr - m.mask + m.root) % n)
			var err error
			if !m.hopAt(p, 0, len(buf)) || !m.recvAt(p, 1, buf, src, c.collTag(CollBcast, 0), &err) {
				return false
			}
			m.noteLength(err, len(buf))
			if m.got = m.stat.Count; err != nil {
				m.got = 0
			}
		}
		m.next()
		m.pc, m.mask = 2, m.mask>>1
	}
	for ; m.mask > 0; m.mask >>= 1 {
		if vr+m.mask < n {
			dst := c.Translate((vr + m.mask + m.root) % n)
			if !m.hopAt(p, 0, len(buf)) || !m.sendAt(p, 1, buf[:m.got], dst, c.collTag(CollBcast, 0)) {
				return false
			}
			m.next()
		}
	}
	return true
}

// noteLength records the error of a receive that should have filled a
// want-byte buffer: its own, or a length mismatch. The first one recorded
// is the collective's.
func (m *Coll) noteLength(err error, want int) {
	if err == nil && m.stat.Count != want {
		err = fmt.Errorf("mpi: %v: %d bytes arrived for a %d-byte buffer", m.kind, m.stat.Count, want)
	}
	if m.err == nil {
		m.err = err
	}
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
// The scatter phase is a Scatterv of its own (its call overhead included)
// on m's scatter fields, the chunk counts; the allgather steps reuse the
// opBcast tag space with the step index in the tag's 6-bit round field
// (mod 64): each ring neighbor pair exchanges exactly one message per step,
// in step order, so per-sender non-overtaking delivery makes the wrap safe.
//
// Each member splits the payload by its own buffer's length, so when
// lengths disagree the chunks it expects are not the root's. Every hop
// therefore forwards exactly what arrived (lens), and nothing of a
// truncated arrival or of a scatter block of another length: a chunk
// reaches a member whole, as the root cut it, or empty. A member whose
// length differs from the root's splits some chunk differently, receives
// that chunk (its own in the scatter, every other in the ring), and sees
// the mismatch; a member that sees none holds the root's bytes. Well-formed
// runs forward every chunk whole, as before.
func (m *Coll) largeBcast(p *sim.Proc) bool {
	c, buf := m.c, m.buf
	n, me := c.Size(), c.RankOf(m.r)
	if !m.large {
		m.large = true
		counts := make([]int, n)
		base, extra := len(buf)/n, len(buf)%n
		for i := range counts {
			counts[i] = base
			if i < extra {
				counts[i]++
			}
		}
		m.counts, m.displs, m.lens = counts, displacements(counts), make([]int, n)
		m.send = nil
		if me == m.root {
			m.send = buf
			copy(m.lens, counts)
		}
		m.recv = buf[m.displs[me] : m.displs[me]+counts[me]]
		m.pc = lbScatter
		p.SleepStep(m.r.jit.Scale(m.r.w.cfg.CallOverhead)) // the scatter's own call
		return false
	}
	if m.pc == lbScatter {
		m.pc = 1 // the scatter starts past its call overhead
	}
	if m.pc < lbRing {
		if !m.scatterv(p) {
			return false
		}
		if m.scratch != nil {
			m.r.stagingPool().Put(m.scratch)
			m.scratch = nil
		}
		if me != m.root {
			m.lens[me] = min(m.got, m.counts[me])
		}
		m.next()
		m.pc, m.i = lbRing, 0
	}
	counts, displs := m.counts, m.displs
	right := c.Translate((me + 1) % n)
	left := c.Translate((me - 1 + n) % n)
	for ; m.i < n-1; m.i++ {
		si := (me - m.i + n) % n
		ri := (me - m.i - 1 + n) % n
		tag := c.collTag(CollBcast, m.i&63)
		var err error
		if !m.hopAt(p, 0, max(counts[si], counts[ri])) ||
			!m.sendrecvAt(p, 1, buf[displs[si]:displs[si]+m.lens[si]], right, tag, buf[displs[ri]:displs[ri]+counts[ri]], left, tag, &err) {
			return false
		}
		m.noteLength(err, counts[ri])
		if m.lens[ri] = m.stat.Count; err != nil {
			m.lens[ri] = 0 // nothing of a truncated arrival
		}
		m.next()
	}
	return true
}

// gatherv is Gatherv: the binomial tree with Config.TreeCollectives and
// more than two members, else the flat fan-in — the root posts a receive
// per other member, then waits for each in member order.
func (m *Coll) gatherv(p *sim.Proc) bool {
	c, r, counts := m.c, m.r, m.counts
	n, me := c.Size(), c.RankOf(r)
	if r.w.cfg.TreeCollectives && n > 2 {
		return m.treeGatherv(p)
	}
	if me != m.root {
		return m.hopAt(p, 0, len(m.send)) && m.sendAt(p, 1, m.send, c.Translate(m.root), c.collTag(CollGatherv, 0))
	}
	if m.pc == 1 {
		m.displs = displacements(counts)
		if cap(m.reqs) < n {
			m.reqs = make([]RecvOp, n)
		}
		m.reqs = m.reqs[:n]
		m.pc = 2
	}
	displs := m.displs
	if m.pc == 2 {
		for ; m.i < n; m.i++ {
			dst := m.recv[displs[m.i] : displs[m.i]+counts[m.i]]
			if m.i == m.root {
				copy(dst, m.send)
				continue
			}
			if !m.hopAt(p, 0, counts[m.i]) {
				return false
			}
			op := &m.reqs[m.i]
			if op.r == nil {
				*op = RecvOp{r: r, rr: recvReq{buf: dst, src: c.Translate(m.i), tag: c.collTag(CollGatherv, 0)}}
			}
			if !op.step(p, false) {
				return false
			}
			m.next()
		}
		m.pc, m.i = 3, 0
	}
	for ; m.i < n; m.i++ {
		op := &m.reqs[m.i]
		if m.i == m.root || op.r == nil {
			continue
		}
		if !op.rr.done.WaitStep(p) {
			return false
		}
		err := op.rr.err
		*op = RecvOp{}
		if err != nil {
			m.err = err
			m.dropReqs()
			return true
		}
	}
	return true
}

// dropReqs takes back the flat gather's receives that are still posted.
func (m *Coll) dropReqs() {
	for i := range m.reqs {
		m.reqs[i].Drop()
		m.reqs[i] = RecvOp{}
	}
}

// scatterv is Scatterv: the binomial tree with Config.TreeCollectives and
// more than two members, else the flat fan-out — the root posts a send per
// other member, then waits for each in member order.
func (m *Coll) scatterv(p *sim.Proc) bool {
	c, r, counts := m.c, m.r, m.counts
	n, me := c.Size(), c.RankOf(r)
	if r.w.cfg.TreeCollectives && n > 2 {
		return m.treeScatterv(p)
	}
	if me != m.root {
		var err error
		if !m.hopAt(p, 0, counts[me]) || !m.recvAt(p, 1, m.recv[:counts[me]], c.Translate(m.root), c.collTag(CollScatterv, 0), &err) {
			return false
		}
		m.noteLength(err, counts[me])
		if m.got = m.stat.Count; err != nil {
			m.got = 0 // nothing of a truncated arrival
		}
		return true
	}
	if m.pc == 1 {
		m.displs = displacements(counts)
		if cap(m.sends) < n {
			m.sends = make([]SendOp, n)
		}
		m.sends = m.sends[:n]
		m.pc = 2
	}
	displs := m.displs
	if m.pc == 2 {
		for ; m.i < n; m.i++ {
			chunk := m.send[displs[m.i] : displs[m.i]+counts[m.i]]
			if m.i == m.root {
				copy(m.recv, chunk)
				continue
			}
			if !m.hopAt(p, 0, len(chunk)) || !r.sendStep(p, &m.sends[m.i], chunk, c.Translate(m.i), c.collTag(CollScatterv, 0), false, false) {
				return false
			}
			m.next()
		}
		m.pc, m.i = 3, 0
	}
	for ; m.i < n; m.i++ {
		if m.sends[m.i].Req != nil && !r.sendDone(p, &m.sends[m.i]) {
			return false // a send reports no error
		}
		m.sends[m.i] = SendOp{}
	}
	return true
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
func (m *Coll) treeGatherv(p *sim.Proc) bool {
	c, r, counts, root := m.c, m.r, m.counts, m.root
	n, me := c.Size(), c.RankOf(r)
	vr := (me - root + n) % n
	if m.pc == 1 {
		m.scratch = r.stagingPool().Get(vrankBytes(counts, root, vr, subtreeEnd(vr, n)))
		copy(m.scratch[:counts[me]], m.send)
		m.got = counts[me] // bytes of [vr, vr+mask) so far
		m.pc, m.mask = 2, 1
	}
	for ; m.mask < n; m.mask <<= 1 {
		round := bits.Len(uint(m.mask)) - 1
		if vr&m.mask != 0 {
			// Covered [vr, vr+mask) so far; ship it to the parent.
			parent := c.Translate((vr - m.mask + root) % n)
			return m.hopAt(p, 0, m.got) && m.sendAt(p, 1, m.scratch[:m.got], parent, c.collTag(CollGatherv, round))
		}
		child := vr + m.mask
		if child < n {
			nb := vrankBytes(counts, root, child, min(child+m.mask, n))
			if !m.hopAt(p, 0, nb) || !m.recvAt(p, 1, m.scratch[m.got:m.got+nb], c.Translate((child+root)%n), c.collTag(CollGatherv, round), &m.err) {
				return false
			}
			if m.err != nil {
				return true
			}
			m.got += nb
			m.next()
		}
	}
	// Only the root (vr == 0) reaches here: unpack virtual-rank order into
	// the caller's comm-rank displacements.
	displs := displacements(counts)
	off := 0
	for v := 0; v < n; v++ {
		cr := (v + root) % n
		off += copy(m.recv[displs[cr]:displs[cr]+counts[cr]], m.scratch[off:off+counts[cr]])
	}
	return true
}

// treeScatterv is the binomial-tree scatter: the root packs all chunks in
// virtual-rank order and each member forwards its children's subtree
// blocks level by level, bounding the root's fan-out to log2(n) sends. A
// member whose block arrives short or long returns the mismatch, and since
// its own counts then say nothing of whose bytes are whose, it keeps none
// and forwards none: each child still gets its message, an empty one.
func (m *Coll) treeScatterv(p *sim.Proc) bool {
	c, r, counts, root := m.c, m.r, m.counts, m.root
	n, me := c.Size(), c.RankOf(r)
	vr := (me - root + n) % n
	myBytes := vrankBytes(counts, root, vr, subtreeEnd(vr, n))
	if m.pc == 1 {
		m.scratch = r.stagingPool().Get(myBytes)
		// mask ends at the bit linking vr to its parent (its lowest set
		// bit), or at the top of the tree for the root.
		m.mask = 1
		for m.mask < n && vr&m.mask == 0 {
			m.mask <<= 1
		}
		m.pc = 2
		if vr == 0 {
			m.got = myBytes
			displs := displacements(counts)
			off := 0
			for v := 0; v < n; v++ {
				cr := (v + root) % n
				off += copy(m.scratch[off:], m.send[displs[cr]:displs[cr]+counts[cr]])
			}
			m.pc = 3
		}
	}
	if m.pc == 2 {
		parent := c.Translate((vr - m.mask + root) % n)
		var err error
		if !m.hopAt(p, 0, myBytes) || !m.recvAt(p, 1, m.scratch, parent, c.collTag(CollScatterv, bits.Len(uint(m.mask))-1), &err) {
			return false
		}
		m.noteLength(err, myBytes)
		if m.got = myBytes; err != nil || m.stat.Count != myBytes {
			m.got = 0 // a block of another length says nothing of whose bytes are whose
		}
		m.next()
		m.pc = 3
	}
	if m.pc == 3 {
		m.pc, m.mask = 4, m.mask>>1
	}
	for ; m.mask >= 1; m.mask >>= 1 {
		child := vr + m.mask
		if child >= n {
			continue
		}
		off := vrankBytes(counts, root, vr, child)
		nb := vrankBytes(counts, root, child, min(child+m.mask, n))
		blk := m.scratch[off : off+nb]
		if m.got == 0 {
			blk = nil // forward nothing of a mismatched block
		}
		if !m.hopAt(p, 0, nb) || !m.sendAt(p, 1, blk, c.Translate((child+root)%n), c.collTag(CollScatterv, bits.Len(uint(m.mask))-1)) {
			return false
		}
		m.next()
	}
	if m.got > 0 {
		copy(m.recv[:counts[me]], m.scratch)
	}
	return true
}

// alltoallv is Alltoallv's pairwise exchange: in step k every member
// sends to the member k up and receives from the member k down.
func (m *Coll) alltoallv(p *sim.Proc) bool {
	c, r := m.c, m.r
	n, me := c.Size(), c.RankOf(r)
	sc, rc := m.counts, m.recvCounts
	if m.pc == 1 {
		m.displs = displacements(sc)
		rd := displacements(rc)
		copy(m.recv[rd[me]:rd[me]+rc[me]], m.send[m.displs[me]:m.displs[me]+sc[me]])
		m.pc, m.i = 2, 1
	}
	sd := m.displs
	for ; m.i < n; m.i++ {
		dst := (me + m.i) % n
		src := (me - m.i + n) % n
		rd := 0
		for j := 0; j < src; j++ {
			rd += rc[j]
		}
		tag := c.collTag(CollAlltoallv, m.i)
		if !m.hopAt(p, 0, max(sc[dst], rc[src])) ||
			!m.sendrecvAt(p, 1, m.send[sd[dst]:sd[dst]+sc[dst]], c.Translate(dst), tag, m.recv[rd:rd+rc[src]], c.Translate(src), tag, &m.err) {
			return false
		}
		if m.err != nil {
			return true
		}
		m.next()
	}
	return true
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
