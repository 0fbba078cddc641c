package live

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/transport"
)

var wall = &transport.WallProc{Epoch: time.Now()}

// sendOp drives op's SendStep: a live form blocks in place, so one step is
// the whole send.
func sendOp(ep *Endpoint, op *transport.SendOp) error {
	done, err := ep.SendStep(wall, op)
	if !done {
		panic("live: a send step came back undone")
	}
	return err
}

// send drives a send of msg to dstNode on a lane.
func send(ep *Endpoint, dstNode int, msg []byte, oneSided bool) error {
	return sendOp(ep, &transport.SendOp{Dst: dstNode, Msg: msg, OneSided: oneSided})
}

// recv drives a receive of a lane's next frame, which one step is.
func recv(ep *Endpoint, oneSided bool) ([]byte, error) {
	op := &transport.RecvOp{OneSided: oneSided}
	done, err := ep.RecvStep(wall, op)
	if !done {
		panic("live: a receive step came back undone")
	}
	return op.Take(), err
}

func TestSendRecvRoundtrip(t *testing.T) {
	c := New(2, nil)
	defer c.Close()
	msg := []byte("hello over the wire")
	if err := send(c.Node(0), 1, msg, false); err != nil {
		t.Fatal(err)
	}
	got, err := recv(c.Node(1), false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(msg)], msg) {
		t.Fatalf("payload corrupted: %q", got)
	}
	if pk, by := c.Default().Totals(); pk != 1 || by != int64(len(msg)) {
		t.Fatalf("counters: %d packets, %d bytes", pk, by)
	}
}

// pooled returns s in a buffer from pool, as a sender hands it over.
func pooled(pool *bufpool.Pool, s string) []byte {
	b := pool.Get(len(s))
	copy(b, s)
	return b
}

// TestSendTakesOwnership pins the seam's contract: the receiver gets the
// very buffer the sender handed over (no copy in between), and whichever
// way a send ends — delivered and released, failed with a frame queued
// behind it, or drained by Close — the pool sees each frame released
// exactly once.
func TestSendTakesOwnership(t *testing.T) {
	pool := bufpool.New()
	c := New(2, pool)
	msg := pooled(pool, "hand me over")
	if err := send(c.Node(0), 1, msg, false); err != nil {
		t.Fatal(err)
	}
	got, err := recv(c.Node(1), false)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &msg[0] || string(got) != "hand me over" {
		t.Fatalf("receiver got %q at %p, sender handed over %p", got, &got[0], &msg[0])
	}
	pool.Put(got)
	bad := &transport.SendOp{Dst: 5, Msg: pooled(pool, "bad node"), OneSided: true}
	bad.Then(1, pooled(pool, "queued behind it"))
	if err := sendOp(c.Node(0), bad); err == nil {
		t.Fatal("send to out-of-range node succeeded")
	}
	if err := send(c.Node(1), 0, pooled(pool, "never received"), false); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := send(c.Node(1), 0, pooled(pool, "after close"), false); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if a, r := pool.Acquires(), pool.Releases(); a != 5 || r != 5 {
		t.Fatalf("%d acquires vs %d releases, want 5 of each", a, r)
	}
}

func TestSendBadNode(t *testing.T) {
	c := New(2, nil)
	defer c.Close()
	if err := send(c.Node(0), 7, []byte("x"), false); err == nil {
		t.Fatal("send to out-of-range node succeeded")
	}
}

func TestCloseUnblocksReceiver(t *testing.T) {
	c := New(1, nil)
	done := make(chan error, 1)
	go func() {
		_, err := recv(c.Node(0), false)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver still blocked after Close")
	}
}

func TestCloseUnblocksCollective(t *testing.T) {
	c := New(2, nil)
	done := make(chan error, 1)
	go func() {
		done <- transport.Collective(wall, c.Node(0), &transport.CollOp{}) // node 1 never joins
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("collective participant still blocked after Close")
	}
}

// TestCloseSendRaceLeakGuard races concurrent senders against Close and
// asserts exact pool balance: before Close serialized against in-flight
// sends, a Send whose select committed after Close's drain pass stranded
// its pooled buffer in the channel forever. Run under -race in CI.
func TestCloseSendRaceLeakGuard(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		pool := bufpool.New()
		c := New(2, pool)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				<-start
				for k := 0; k < 8; k++ {
					if err := send(c.Node(s%2), (s+1)%2, pooled(pool, "race payload"), s%3 == 0); err != nil {
						return // closed under us: expected
					}
				}
			}(s)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c.Close()
		}()
		close(start)
		wg.Wait()
		if pool.Acquires() != pool.Releases() {
			t.Fatalf("iter %d: pool leak: %d acquires vs %d releases",
				iter, pool.Acquires(), pool.Releases())
		}
	}
}

// runColl runs fn concurrently for every node and returns the per-node
// errors.
func runColl(c *Cluster, n int, fn func(node int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errs
}

func TestCollectiveOpMismatch(t *testing.T) {
	c := New(2, nil)
	defer c.Close()
	errs := runColl(c, 2, func(n int) error {
		if n == 0 {
			return transport.Collective(wall, c.Node(0), &transport.CollOp{Kind: transport.Barrier})
		}
		return transport.Collective(wall, c.Node(1), &transport.CollOp{Kind: transport.Bcast, Send: make([]byte, 4)})
	})
	for i, err := range errs {
		if err == nil {
			t.Fatalf("node %d: op mismatch went unreported", i)
		}
	}
}

func TestCollectiveRendezvousReuse(t *testing.T) {
	// Back-to-back rounds through the same rendezvous, alternating ops.
	const nodes = 3
	c := New(nodes, nil)
	defer c.Close()
	for round := 0; round < 50; round++ {
		buf := make([][]byte, nodes)
		for i := range buf {
			buf[i] = make([]byte, 4)
		}
		copy(buf[round%nodes], fmt.Sprintf("r%03d", round))
		root := round % nodes
		for i, err := range runColl(c, nodes, func(n int) error {
			if err := transport.Collective(wall, c.Node(n), &transport.CollOp{Kind: transport.Barrier}); err != nil {
				return err
			}
			return transport.Collective(wall, c.Node(n), &transport.CollOp{Kind: transport.Bcast, Root: root, Send: buf[n]})
		}) {
			if err != nil {
				t.Fatalf("round %d node %d: %v", round, i, err)
			}
		}
		want := fmt.Sprintf("r%03d", round)
		for i, b := range buf {
			if string(b) != want {
				t.Fatalf("round %d node %d got %q", round, i, b)
			}
		}
	}
}

// TestBlockingCallsRideTheTwoSidedLane: Send and RecvMsg, the calls for a
// caller outside the Transport interface, move frames on the lane a
// two-sided SendStep and RecvStep use.
func TestBlockingCallsRideTheTwoSidedLane(t *testing.T) {
	c := New(2, nil)
	defer c.Close()
	if err := c.Node(0).Send(wall, 1, []byte("blocking")); err != nil {
		t.Fatal(err)
	}
	if got, err := recv(c.Node(1), false); err != nil || string(got) != "blocking" {
		t.Fatalf("step receive got %q, %v", got, err)
	}
	if err := send(c.Node(1), 0, []byte("step"), false); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Node(0).RecvMsg(wall); err != nil || string(got) != "step" {
		t.Fatalf("blocking receive got %q, %v", got, err)
	}
}
