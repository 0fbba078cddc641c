package dcgn_test

// Golden determinism harness: every virtual-time metric the simulator
// reports must be bit-identical across host-side refactors (buffer
// pooling, label laziness, matcher data structures...). The scenarios
// below cover the canonical config matrix — Table 1 barrier shapes, the
// Fig. 6 send pairings, Fig. 7 broadcasts, the §5.1 apps, the high-fanout
// matching stressor, a jittered run (pinning the RNG consumption
// pattern), a collective-mix kernel exercising every CPUCtx operation
// including wildcard receives and truncation, the wire-lane matrix, and
// the classic-vs-triggered one-sided ablation.
//
// Values are captured as exact int64s (durations in ns, counters, FNV-1a
// checksums of result payloads) in testdata/golden_virtual.json.
// Regenerate with:
//
//	go test -run TestGoldenDeterminism -update
//
// Any diff after a pure host-side optimization is a bug in the
// optimization, not an expected churn. Config.Shards is host-side too:
// TestGoldenShardInvariant re-runs the scenarios on several shard counts
// against the same file.

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dcgn/internal/apps"
	"dcgn/internal/core"
	"dcgn/internal/gas"
	"dcgn/internal/transport/faults"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_virtual.json from the current code")

const goldenPath = "testdata/golden_virtual.json"

// goldenMetrics is scenario name -> metric name -> exact value.
type goldenMetrics map[string]map[string]int64

func checksum(data []byte) int64 {
	h := fnv.New64a()
	h.Write(data)
	return int64(h.Sum64())
}

func checksumUint16(v []uint16) int64 {
	buf := make([]byte, 2*len(v))
	for i, x := range v {
		buf[2*i] = byte(x)
		buf[2*i+1] = byte(x >> 8)
	}
	return checksum(buf)
}

func checksumInts(v []int) int64 {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		for b := 0; b < 8; b++ {
			buf[8*i+b] = byte(uint64(x) >> (8 * b))
		}
	}
	return checksum(buf)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func reportMetrics(rep core.Report) map[string]int64 {
	return map[string]int64{
		"elapsed-ns":    rep.Elapsed.Nanoseconds(),
		"net-packets":   int64(rep.NetPackets),
		"net-bytes":     rep.NetBytes,
		"bus-transfers": int64(rep.BusTransfers),
		"bus-ctl-ops":   int64(rep.BusCtlOps),
		"polls":         int64(rep.Polls),
		"poll-hits":     int64(rep.PollHits),
		"requests":      int64(rep.Requests),
		"peak-pending":  int64(rep.PeakPending),
	}
}

// collectiveMix drives every CPUCtx communication primitive in one job —
// collectives, blocking and nonblocking point-to-point, wildcard-source
// receives and a deliberate truncation — and returns per-rank payload
// checksums plus the full Report.
func collectiveMix(cfg core.Config) (map[string]int64, error) {
	const chunk = 96
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs = 2, 3, 0
	cfg.SlotsPerGPU = 0
	n := cfg.Nodes * cfg.CPUKernels
	job := core.NewJob(cfg)

	sums := make([]uint64, n)
	var kernErr error
	fail := func(tag string, err error) {
		if err != nil && kernErr == nil {
			kernErr = fmt.Errorf("%s: %w", tag, err)
		}
	}
	job.SetCPUKernel(func(c *core.CPUCtx) {
		r := c.Rank()
		h := fnv.New64a()
		mix := func(tag string, data []byte) {
			fmt.Fprintf(h, "%s@%v:", tag, c.Now())
			h.Write(data)
		}
		fill := func(buf []byte, salt int) {
			for i := range buf {
				buf[i] = byte(r*31 + salt*7 + i)
			}
		}

		// Bcast: root 0 pushes a 2 kB pattern to everyone.
		bb := make([]byte, 2048)
		if r == 0 {
			fill(bb, 1)
		}
		fail("bcast", c.Bcast(0, bb))
		mix("bcast", bb)

		// Gather to root 2: every rank contributes one chunk.
		gsend := make([]byte, chunk)
		fill(gsend, 2)
		var grecv []byte
		if r == 2 {
			grecv = make([]byte, n*chunk)
		}
		fail("gather", c.Gather(2, gsend, grecv))
		mix("gather", grecv)

		// Scatter from root 1.
		var ssend []byte
		if r == 1 {
			ssend = make([]byte, n*chunk)
			fill(ssend, 3)
		}
		srecv := make([]byte, chunk)
		fail("scatter", c.Scatter(1, ssend, srecv))
		mix("scatter", srecv)

		// AllToAll with a distinct pattern per (src,dst) pair.
		asend := make([]byte, n*chunk)
		for d := 0; d < n; d++ {
			for i := 0; i < chunk; i++ {
				asend[d*chunk+i] = byte(r*13 + d*5 + i)
			}
		}
		arecv := make([]byte, n*chunk)
		fail("alltoall", c.AllToAll(asend, arecv))
		mix("alltoall", arecv)

		// SendRecv around the ring.
		next, prev := (r+1)%n, (r+n-1)%n
		srSend := make([]byte, 512)
		fill(srSend, 4)
		srRecv := make([]byte, 512)
		st, err := c.SendRecv(next, srSend, prev, srRecv)
		fail("sendrecv", err)
		mix("sendrecv", srRecv[:st.Bytes])

		// SendRecvReplace the other way.
		rep := make([]byte, 256)
		fill(rep, 5)
		if _, err := c.SendRecvReplace(prev, next, rep); err != nil {
			fail("replace", err)
		}
		mix("replace", rep)

		// Wildcard fan-in: everyone sends one message to rank 0, which
		// posts AnySource receives (arrival order is deterministic in the
		// simulator, so contents hash identically run to run).
		if r == 0 {
			got := make([]byte, 0, (n-1)*32)
			for i := 1; i < n; i++ {
				buf := make([]byte, 32)
				st, err := c.Recv(core.AnySource, buf)
				fail("anysource-recv", err)
				got = append(got, buf[:st.Bytes]...)
			}
			mix("anysource", got)
		} else {
			buf := make([]byte, 32)
			fill(buf, 6)
			fail("anysource-send", c.Send(0, buf))
		}
		c.Barrier()

		// Nonblocking ring: overlap an ISend and IRecv pair.
		ibuf := make([]byte, 1024)
		fill(ibuf, 7)
		irecv := make([]byte, 1024)
		sendOp := c.ISend(next, ibuf)
		recvOp := c.IRecv(prev, irecv)
		if _, err := sendOp.Wait(c); err != nil {
			fail("iring-send", err)
		}
		st, err = recvOp.Wait(c)
		fail("iring-recv", err)
		mix("iring", irecv[:st.Bytes])

		// Truncation: rank 4 sends 64 B at rank 5's 16 B buffer; the
		// receiver must see ErrTruncate with exactly 16 delivered bytes.
		if r == 4 {
			big := make([]byte, 64)
			fill(big, 8)
			// Truncation is receiver-side only: the send completes cleanly
			// whether the peer is local or remote.
			if err := c.Send(5, big); err != nil {
				fail("trunc-send", err)
			}
		} else if r == 5 {
			small := make([]byte, 16)
			st, err := c.Recv(4, small)
			if err != core.ErrTruncate {
				fail("trunc", fmt.Errorf("got err %v, want ErrTruncate", err))
			}
			if st.Bytes != 16 {
				fail("trunc", fmt.Errorf("got %d bytes, want 16", st.Bytes))
			}
			mix("trunc", small)
		}
		c.Barrier()
		sums[r] = h.Sum64()
	})
	rep, err := job.Run()
	if err == nil {
		err = kernErr
	}
	if err != nil {
		return nil, err
	}
	m := reportMetrics(rep)
	for r, s := range sums {
		m[fmt.Sprintf("rank%d-checksum", r)] = int64(s)
	}
	return m, nil
}

// laneMetrics is the wire-lane slice of a Report: the virtual clock, the
// wire totals and the reliability counters, plus a checksum of what the
// kernel received.
func laneMetrics(rep core.Report, sums []uint64) map[string]int64 {
	m := map[string]int64{
		"elapsed-ns":      rep.Elapsed.Nanoseconds(),
		"net-packets":     int64(rep.NetPackets),
		"net-bytes":       rep.NetBytes,
		"retransmits":     rep.Retransmits,
		"acks-sent":       rep.AcksSent,
		"acks-received":   rep.AcksReceived,
		"dup-wire-frames": rep.DupWireFrames,
	}
	h := fnv.New64a()
	for _, s := range sums {
		fmt.Fprintf(h, "%x,", s)
	}
	m["result-fnv"] = int64(h.Sum64())
	return m
}

// lanePingPong is the two-sided lane kernel: every rank ping-pongs with
// its r^1 partner and then its r^2 partner over an empty, an eager and a
// rendezvous-sized payload, so both directions of several node pairs
// carry frames at once.
func lanePingPong(cfg core.Config) (map[string]int64, error) {
	job := core.NewJob(cfg)
	sums := make([]uint64, cfg.Nodes)
	var kernErr error
	job.SetCPUKernel(func(c *core.CPUCtx) {
		r := c.Rank()
		h := fnv.New64a()
		for _, stride := range []int{1, 2} {
			peer := r ^ stride
			for _, size := range []int{0, 1024, 96 << 10} {
				out := make([]byte, size)
				for i := range out {
					out[i] = byte(r*29 + stride*11 + i)
				}
				in := make([]byte, size)
				for iter := 0; iter < 2; iter++ {
					var err error
					if r < peer {
						if err = c.Send(peer, out); err == nil {
							_, err = c.Recv(peer, in)
						}
					} else {
						if _, err = c.Recv(peer, in); err == nil {
							err = c.Send(peer, out)
						}
					}
					if err != nil && kernErr == nil {
						kernErr = fmt.Errorf("rank %d <-> %d, %d B: %w", r, peer, size, err)
					}
					h.Write(in)
				}
			}
		}
		c.Barrier()
		sums[r] = h.Sum64()
	})
	rep, err := job.Run()
	if err == nil {
		err = kernErr
	}
	return laneMetrics(rep, sums), err
}

// laneOneSided is the one-sided lane kernel: every rank drives each frame
// kind at its right-hand neighbour's window — dynamic and persistent puts,
// an accumulate, a fetch-and-op, then a get reading the result back — and
// all ranks contend on one fetch-and-add counter at rank 0.
func laneOneSided(cfg core.Config) (map[string]int64, error) {
	const (
		winSize  = 1024
		accumOff = 512
		fetchOff = 576
		countOff = 584
	)
	job := core.NewJob(cfg)
	n := cfg.Nodes
	sums := make([]uint64, n)
	var kernErr error
	job.SetCPUKernel(func(c *core.CPUCtx) {
		r := c.Rank()
		fail := func(tag string, err error) {
			if err != nil && kernErr == nil {
				kernErr = fmt.Errorf("rank %d %s: %w", r, tag, err)
			}
		}
		win := make([]byte, winSize)
		c.RegisterWindow(0, win)
		c.Barrier()

		t := (r + 1) % n
		data := make([]byte, 300)
		for i := range data {
			data[i] = byte(r*17 + i)
		}
		fail("put", c.Put(t, 0, 0, data))
		fail("put", c.Put(t, 0, 100, data[:200])) // overlaps the first: apply order shows
		pp := c.NewPersistentPut(t, 0, 256, data[:128])
		for fire := 0; fire < 2; fire++ {
			data[0] = byte(fire + 1)
			fail("persistent put", pp.Start())
		}
		pp.Free()
		fail("accumulate", c.Accumulate(t, 0, accumOff, core.AtomicSum, []int64{int64(r + 1), -7, 1 << 40}))
		prior, err := c.FetchAndOp(t, 0, fetchOff, core.AtomicReplace, int64(r+100))
		fail("fetch-and-op", err)
		ticket, err := c.FetchAndOp(0, 0, countOff, core.AtomicSum, 1)
		fail("fetch-and-add", err)

		// Six arrivals from the left-hand neighbour; rank 0 also hosts the
		// shared counter, which every rank bumps once.
		want := 6
		if r == 0 {
			want += n
		}
		c.WinWait(0, want)
		back := make([]byte, fetchOff+8)
		_, err = c.Get(t, 0, 0, back)
		fail("get", err)
		c.Barrier()

		h := fnv.New64a()
		h.Write(win)
		h.Write(back)
		fmt.Fprintf(h, "%d,%d", prior, ticket)
		sums[r] = h.Sum64()
	})
	rep, err := job.Run()
	if err == nil {
		err = kernErr
	}
	return laneMetrics(rep, sums), err
}

// laneMatrix pins what no other scenario turns on: both wire lanes with
// reliability off, on over a clean wire, and on over the chaos suite's
// seeded fault mix, each with flows off and on.
func laneMatrix(base core.Config, put func(string, map[string]int64, error) error) error {
	kernels := []struct {
		name string
		run  func(core.Config) (map[string]int64, error)
	}{{"pingpong", lanePingPong}, {"onesided", laneOneSided}}
	for _, k := range kernels {
		for _, rel := range []string{"unreliable", "reliable", "faulted"} {
			for _, flows := range []bool{false, true} {
				cfg := base
				cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = 4, 1, 0, 0
				cfg.Flows = flows
				cfg.Reliability.Enabled = rel != "unreliable"
				if rel == "faulted" {
					cfg.Faults = faults.Config{Seed: 42, Drop: 0.12, Dup: 0.08, Reorder: 0.08}
				}
				m, err := k.run(cfg)
				if err := put(fmt.Sprintf("lane/%s/%s/flows=%t", k.name, rel, flows), m, err); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// goldenResults runs every scenario with the simulated ones on the given
// shard count (the gas/MPI baselines have none) and collects exact metrics.
func goldenResults(shards int) (goldenMetrics, error) {
	base := core.DefaultConfig()
	base.Shards = shards
	shape := func(nodes, cpus, gpus int) core.Config {
		cfg := dcgnCfg(nodes, cpus, gpus)
		cfg.Shards = shards
		return cfg
	}
	out := goldenMetrics{}
	put := func(name string, m map[string]int64, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out[name] = m
		return nil
	}

	// Table 1 barrier shapes (CPU-only, GPU-only, mixed, multi-node).
	for _, row := range []struct{ nodes, cpus, gpus int }{
		{1, 2, 0}, {1, 0, 2}, {2, 2, 2}, {4, 2, 2},
	} {
		name := fmt.Sprintf("barrier/%dn%dc%dg", row.nodes, row.cpus, row.gpus)
		d, err := apps.DCGNBarrier(base, row.nodes, row.cpus, row.gpus)
		if err := put(name, map[string]int64{"barrier-ns": d.Nanoseconds()}, err); err != nil {
			return nil, err
		}
	}
	mb, err := apps.MPIBarrier(gas.DefaultConfig(), 4, 2)
	if err := put("mpi-barrier/4n2c", map[string]int64{"barrier-ns": mb.Nanoseconds()}, err); err != nil {
		return nil, err
	}

	// Fig. 6 one-way sends: all four endpoint pairings across the
	// eager/rendezvous split and a large DMA-bound size.
	pairings := []struct {
		name     string
		src, dst apps.Endpoint
	}{
		{"CPUtoCPU", apps.EPCPU, apps.EPCPU},
		{"CPUtoGPU", apps.EPCPU, apps.EPGPU},
		{"GPUtoCPU", apps.EPGPU, apps.EPCPU},
		{"GPUtoGPU", apps.EPGPU, apps.EPGPU},
	}
	for _, size := range []int{0, 4096, 1 << 20} {
		for _, pr := range pairings {
			name := fmt.Sprintf("send/%s/%dB", pr.name, size)
			d, _, err := apps.DCGNSendOneWayReport(base, pr.src, pr.dst, size)
			if err := put(name, map[string]int64{"oneway-ns": d.Nanoseconds()}, err); err != nil {
				return nil, err
			}
		}
		d, err := apps.MPISendOneWay(gas.DefaultConfig(), size)
		if err := put(fmt.Sprintf("mpi-send/%dB", size), map[string]int64{"oneway-ns": d.Nanoseconds()}, err); err != nil {
			return nil, err
		}
	}

	// Jittered send: pins the timing-noise RNG consumption pattern — a
	// refactor that adds, removes or reorders a noise draw on some node
	// shifts the number — and, on four shards, that no two event loops share
	// a stream.
	jcfg := base
	jcfg.JitterFrac = 0.25
	jcfg.JitterSeed = 7
	jd, _, err := apps.DCGNSendOneWayReport(jcfg, apps.EPCPU, apps.EPGPU, 4096)
	if err := put("send-jittered/CPUtoGPU/4096B", map[string]int64{"oneway-ns": jd.Nanoseconds()}, err); err != nil {
		return nil, err
	}

	// Fig. 7 broadcasts at 64 kB.
	bcpu, err := apps.DCGNBroadcastCPU(base, 64<<10)
	if err := put("bcast/dcgn-cpu/64kB", map[string]int64{"bcast-ns": bcpu.Nanoseconds()}, err); err != nil {
		return nil, err
	}
	bgpu, err := apps.DCGNBroadcastGPU(base, 64<<10)
	if err := put("bcast/dcgn-gpu/64kB", map[string]int64{"bcast-ns": bgpu.Nanoseconds()}, err); err != nil {
		return nil, err
	}
	bmpi, err := apps.MPIBroadcast(gas.DefaultConfig(), 64<<10)
	if err := put("bcast/mpi/64kB", map[string]int64{"bcast-ns": bmpi.Nanoseconds()}, err); err != nil {
		return nil, err
	}

	// §5.1 apps at golden-test scale, with payload checksums so a
	// corrupted (not just retimed) result also fails.
	mc := apps.DefaultMandelConfig()
	mc.Width, mc.Height = 256, 128
	mres, err := apps.MandelbrotDCGN(shape(4, 1, 2), mc)
	if err := put("app/mandelbrot", map[string]int64{
		"elapsed-ns":      mres.Elapsed.Nanoseconds(),
		"pixels":          int64(mres.Pixels),
		"image-fnv":       checksumUint16(mres.Image),
		"strip-owner-fnv": checksumInts(mres.StripOwner),
		"workers":         int64(mres.Workers),
	}, err); err != nil {
		return nil, err
	}

	cc := apps.DefaultCannonConfig()
	cc.N = 256
	cc.RealMath = true
	cres, err := apps.CannonDCGN(shape(2, 0, 2), cc)
	if err := put("app/cannon", map[string]int64{
		"elapsed-ns": cres.Elapsed.Nanoseconds(),
		"targets":    int64(cres.Targets),
		"verified":   b2i(cres.Verified),
	}, err); err != nil {
		return nil, err
	}

	nc := apps.DefaultNBodyConfig()
	nc.Bodies, nc.Steps = 1024, 2
	nc.RealMath = true
	nres, err := apps.NBodyDCGN(shape(4, 0, 2), nc)
	if err := put("app/nbody", map[string]int64{
		"elapsed-ns":  nres.Elapsed.Nanoseconds(),
		"steptime-ns": nres.StepTime.Nanoseconds(),
		"targets":     int64(nres.Targets),
		"verified":    b2i(nres.Verified),
	}, err); err != nil {
		return nil, err
	}

	mrres, err := apps.MapReduceDCGN(shape(1, 1, 1), apps.DefaultMapReduceConfig(2))
	if err := put("app/mapreduce", map[string]int64{
		"elapsed-ns": mrres.Elapsed.Nanoseconds(),
		"sum":        mrres.Sum,
		"verified":   b2i(mrres.Verified),
	}, err); err != nil {
		return nil, err
	}

	pres, err := apps.PipelineDCGN(shape(2, 1, 2), apps.DefaultPipelineConfig(false))
	if err := put("app/pipeline", map[string]int64{
		"elapsed-ns": pres.Elapsed.Nanoseconds(),
		"verified":   b2i(pres.Verified),
	}, err); err != nil {
		return nil, err
	}

	// High-fanout matching stressor: the full Report, since this is the
	// workload the allocation work targets hardest.
	hrep, err := apps.HighFanout(base, 16, 512)
	if err := put("highfanout/16src-512inflight", reportMetrics(hrep), err); err != nil {
		return nil, err
	}

	// Collective mix with per-rank content checksums.
	cm, err := collectiveMix(base)
	if err := put("collective-mix", cm, err); err != nil {
		return nil, err
	}

	if err := laneMatrix(base, put); err != nil {
		return nil, err
	}

	// Classic vs GPU-triggered one-way at every Fig. 6 size: the repo's
	// answer to GPU-triggered communication, with the polls and
	// control-plane PCIe operations each path needed.
	for _, size := range apps.SendSizes {
		for _, path := range triggeredAblation {
			d, rep, err := path.run(base, size)
			if err := put(fmt.Sprintf("onesided-ablation/%dB/%s", size, path.name), map[string]int64{
				"elapsed-ns": d.Nanoseconds(),
				"polls":      int64(rep.Polls),
				"poll-hits":  int64(rep.PollHits),
				"ctl-ops":    int64(rep.BusCtlOps),
			}, err); err != nil {
				return nil, err
			}
		}
	}

	return out, nil
}

func TestGoldenDeterminism(t *testing.T) {
	got, err := goldenResults(0)
	if err != nil {
		t.Fatal(err)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d scenarios)", goldenPath, len(got))
		return
	}
	checkGolden(t, got, readGolden(t))
}

// TestGoldenShardInvariant makes every golden a shard-invariance test: each
// scenario re-run on one shard and on four must reproduce the committed
// rows bit for bit, every Report-derived metric included.
func TestGoldenShardInvariant(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got, err := goldenResults(shards)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, got, readGolden(t))
		})
	}
}

// readGolden loads the committed golden file.
func readGolden(t *testing.T) goldenMetrics {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestGoldenDeterminism -update`): %v", err)
	}
	var want goldenMetrics
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// checkGolden fails on any metric of any scenario that differs between got
// and want, and on scenarios only one of them has.
func checkGolden(t *testing.T, got, want goldenMetrics) {
	t.Helper()
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: scenario missing from current run", name)
			continue
		}
		keys := make([]string, 0, len(want[name]))
		for k := range want[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if g[k] != want[name][k] {
				t.Errorf("%s: %s = %d, want %d (virtual-time metrics must be bit-identical)", name, k, g[k], want[name][k])
			}
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: scenario not in golden file (regenerate with -update)", name)
		}
	}
}
