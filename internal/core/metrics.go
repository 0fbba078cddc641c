package core

import (
	"sync"
	"sync/atomic"

	"dcgn/internal/obs"
)

// histKind is one histogram family of a job's metrics.
type histKind uint8

const (
	// histIntakeDepth observes the intake queue depth at every comm-thread
	// dequeue: how far the engine runs behind its event stream.
	histIntakeDepth histKind = iota
	// histBackoff observes each retransmission's ack-timeout backoff.
	histBackoff
	// histTrigFire observes a triggered descriptor's device-enqueue →
	// NIC-fire latency, histRemoteComplete a one-sided operation's
	// origin-post → target-apply latency.
	histTrigFire
	histRemoteComplete
	// histMatchWait observes how long a point-to-point request sat in the
	// matching layer, by op, source and size class; histCollWait how long a
	// collective accumulated on a node, by op.
	histMatchWait
	histCollWait
)

// histKey identifies one histogram: its family and, for the labeled
// families, the op, the source class and the log2 payload size class.
type histKey struct {
	kind histKind
	op   opKind
	gpu  bool
	size uint8
}

// histBases are the families' base names, indexed by histKind.
var histBases = [...]string{"queue_depth/layer=intake", "retransmit_backoff_ns", "onesided_trigger_fire_ns", "onesided_remote_complete_ns", "match_wait_ns", "coll_accum_wait_ns"}

// name renders the key as its flat instrument name
// ("match_wait_ns/op=send/src=cpu/size=<2KiB").
func (k histKey) name() string {
	name := histBases[k.kind]
	switch k.kind {
	case histMatchWait:
		src := "cpu"
		if k.gpu {
			src = "gpu"
		}
		name += "/op=" + k.op.String() + "/src=" + src + "/size=" + obs.SizeClass(k.size)
	case histCollWait:
		name += "/op=" + k.op.String()
	}
	return name
}

// jobMetrics is a job's metric instruments (Config.Metrics), one set
// shared by all its nodes. It holds only the distributions; the counts the
// engine keeps anyway (GPU polls, one-sided operations, the matching
// index's peak) are read from the engine by snapshot, which is also the
// only place a name is built.
type jobMetrics struct {
	// hists lists the histograms observed so far, newest first. An entry
	// is created by the first observation of its key and published with
	// one compare-and-swap, so nodes on different shards or live
	// goroutines can observe concurrently without a lock.
	hists atomic.Pointer[histEntry]
	// nodes is the job's engine, published by Job.start once every node is
	// built, so snapshot may read its counts from the HTTP goroutine, and
	// withdrawn by Job.releaseEngines: nodesMu keeps a snapshot from
	// reading an engine that has gone on to its next tenant.
	nodesMu sync.Mutex
	nodes   []*nodeState
}

// setNodes publishes (or, nil, withdraws) the job's engine.
func (m *jobMetrics) setNodes(nodes []*nodeState) {
	m.nodesMu.Lock()
	m.nodes = nodes
	m.nodesMu.Unlock()
}

// histEntry is one histogram of jobMetrics.hists.
type histEntry struct {
	key  histKey
	h    obs.Histogram
	next *histEntry
}

// observe records v in k's histogram, creating it on first use.
func (m *jobMetrics) observe(k histKey, v int64) {
	for {
		head := m.hists.Load()
		for e := head; e != nil; e = e.next {
			if e.key == k {
				e.h.Observe(v)
				return
			}
		}
		if e := (&histEntry{key: k, next: head}); m.hists.CompareAndSwap(head, e) {
			e.h.Observe(v)
			return
		}
	}
}

// snapshot names every instrument that was observed at least once, and
// every engine count that is nonzero. Report's Counters, Gauges and
// Histograms, the job's /debug/dcgn and a Runtime tenant's partition all
// come from here; mid-run it reads only atomics.
func (m *jobMetrics) snapshot() obs.Snapshot {
	s := obs.Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]obs.HistogramSnapshot),
	}
	for e := m.hists.Load(); e != nil; e = e.next {
		if h := e.h.Snapshot(); h.Count > 0 {
			s.Histograms[e.key.name()] = h
		}
	}
	count := func(name string, v int64) {
		if v != 0 {
			s.Counters[name] += v
		}
	}
	m.nodesMu.Lock()
	defer m.nodesMu.Unlock()
	for _, ns := range m.nodes {
		count("onesided_puts", ns.osPuts.Load())
		count("onesided_gets", ns.osGets.Load())
		count("onesided_triggered", ns.osTriggered.Load())
		if peak := ns.index.peak.Load(); peak > s.Gauges["peak_depth/layer=match"] {
			s.Gauges["peak_depth/layer=match"] = peak
		}
		for _, gt := range ns.gpus {
			count("gpu_polls", gt.polls.Load())
			count("gpu_poll_hits", gt.hits.Load())
			count("gpu_doorbell_services", gt.signals.Load())
		}
	}
	return s
}
