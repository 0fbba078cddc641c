package main

import (
	"encoding/binary"
	"math/rand"

	"dcgn/internal/core"
)

// Input generation. Everything the program under test receives — pairings,
// sizes, payload bytes, arrival traces — is made here from the seed; the
// program itself never sees the seed.
//
// The seed varies what a message-passing system must not depend on: who
// meets whom, in which order sizes and jobs fall, when arrivals fall, what
// the bytes are. What sets the amount of work per op — how often each
// size travels between each kind of endpoint, which job shapes a trace
// holds — is the same for every seed, so that metrics of runs with
// different seeds compare.

// FNV-1a 64-bit parameters of the payload digests.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fold mixes one received payload into a digest: FNV-1a over 8-byte words
// (so checking a 1 MiB payload costs far less than sending it), then the
// tail bytes, then the length, so that a 0-byte message still advances it.
func fold(d uint64, b []byte) uint64 {
	n := uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		d = (d ^ binary.LittleEndian.Uint64(b)) * fnvPrime
	}
	for _, x := range b {
		d = (d ^ uint64(x)) * fnvPrime
	}
	return (d ^ n) * fnvPrime
}

// exchange is one rank's part in one round: a SendRecv with peer, sending
// the payload bytes [sendOff, sendOff+sendLen) and receiving recvLen bytes.
type exchange struct {
	peer, sendOff, sendLen, recvLen int
}

// p2pInputs is a generated pairwise-exchange schedule on the paper's
// testbed shape, with the digest every rank must end up with.
type p2pInputs struct {
	rounds  int
	maxSize int
	// payload holds the seeded bytes every message is a slice of.
	payload []byte
	// sched[round][rank] is that rank's exchange in that round.
	sched [][]exchange
	// expect[rank] is the digest of everything the rank receives, in round
	// order, computed from the inputs alone.
	expect []uint64
}

// p2pBarrierEvery is the number of rounds between barriers.
const p2pBarrierEvery = 32

// genP2P makes a schedule of rounds pairwise exchanges over every rank of
// rm. Rounds cycle through three pairings, so that every Fig. 6 endpoint
// pairing and the intra-node path are exercised:
//
//	round%3 == 0: same kind, remote  (CPU:CPU and GPU:GPU across nodes)
//	round%3 == 1: cross kind, remote (CPU:GPU and GPU:CPU across nodes)
//	round%3 == 2: intra-node, half the nodes same kind, half cross kind
//
// Within a round, every size travels equally often from each kind of
// endpoint to each kind. The seed decides which nodes and which ranks
// meet, which message has which size, and every payload. rm must be a
// uniform shape with an even node count and two CPU ranks and two
// single-slot GPUs per node.
func genP2P(seed int64, rm core.RankMap, rounds int, sizes []int) *p2pInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &p2pInputs{rounds: rounds}
	for _, s := range sizes {
		in.maxSize = max(in.maxSize, s)
	}
	in.payload = make([]byte, 2*in.maxSize+64)
	rng.Read(in.payload)

	nodes, total := rm.Nodes(), rm.Total()
	cpus := func(n int) [2]int { return [2]int{rm.CPURank(n, 0), rm.CPURank(n, 1)} }
	gpus := func(n int) [2]int { return [2]int{rm.GPURank(n, 0, 0), rm.GPURank(n, 1, 0)} }

	for r := 0; r < rounds; r++ {
		row := make([]exchange, total)
		// msgs lists the round's messages as (sender, receiver), by the
		// kinds of their two endpoints.
		var msgs [2][2][][2]int
		kind := func(rank int) int {
			if rm.IsCPU(rank) {
				return 0
			}
			return 1
		}
		pair := func(a, b int) {
			row[a].peer, row[b].peer = b, a
			msgs[kind(a)][kind(b)] = append(msgs[kind(a)][kind(b)], [2]int{a, b})
			msgs[kind(b)][kind(a)] = append(msgs[kind(b)][kind(a)], [2]int{b, a})
		}
		// cross pairs x[i] with y[i^flip]: a seeded choice between the two
		// ways two pairs of ranks can meet.
		cross := func(x, y [2]int) {
			flip := rng.Intn(2)
			pair(x[0], y[flip])
			pair(x[1], y[1-flip])
		}
		order := rng.Perm(nodes) // nodes order[2i] and order[2i+1] meet
		switch r % 3 {
		case 0:
			for i := 0; i+1 < nodes; i += 2 {
				cross(cpus(order[i]), cpus(order[i+1]))
				cross(gpus(order[i]), gpus(order[i+1]))
			}
		case 1:
			for i := 0; i+1 < nodes; i += 2 {
				cross(cpus(order[i]), gpus(order[i+1]))
				cross(gpus(order[i]), cpus(order[i+1]))
			}
		case 2:
			for i, n := range order {
				if c, g := cpus(n), gpus(n); i%2 == 0 {
					pair(c[0], c[1])
					pair(g[0], g[1])
				} else {
					cross(c, g)
				}
			}
		}
		for _, byReceiver := range msgs {
			for _, class := range byReceiver {
				// A seeded deal of a deck in which every size occurs equally
				// often (the class sizes are multiples of len(sizes)).
				for i, card := range rng.Perm(len(class)) {
					from, to := class[i][0], class[i][1]
					n := sizes[card%len(sizes)]
					row[from].sendLen, row[to].recvLen = n, n
					row[from].sendOff = rng.Intn(len(in.payload) - n)
				}
			}
		}
		in.sched = append(in.sched, row)
	}

	in.expect = make([]uint64, total)
	for rank := range in.expect {
		d := fnvOffset
		for r := 0; r < rounds; r++ {
			sent := in.sched[r][in.sched[r][rank].peer]
			d = fold(d, in.payload[sent.sendOff:sent.sendOff+sent.sendLen])
		}
		in.expect[rank] = d
	}
	return in
}

// messages is the number of messages one repetition of the schedule
// delivers: every rank receives one per round.
func (in *p2pInputs) messages() int { return in.rounds * len(in.expect) }

// digest folds the whole schedule into one number, for the tests that
// compare the inputs of two seeds.
func (in *p2pInputs) digest() uint64 {
	d := fold(fnvOffset, in.payload)
	for _, row := range in.sched {
		for _, ex := range row {
			for _, v := range [4]int{ex.peer, ex.sendOff, ex.sendLen, ex.recvLen} {
				d = (d ^ uint64(v)) * fnvPrime
			}
		}
	}
	return d
}
