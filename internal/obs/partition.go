package obs

import (
	"sort"
	"sync"
)

// Partitioned is a set of snapshot sources keyed by tenant: each tenant
// (one admitted job of a multi-tenant runtime, or the runtime's own
// scheduling registry) contributes a function that snapshots its
// instruments — same instrument names, zero cross-talk — and the runtime
// merges them on demand into one namespaced view for the debug endpoint.
type Partitioned struct {
	mu    sync.Mutex
	parts map[string]func() Snapshot
}

// NewPartitioned creates an empty partitioned view.
func NewPartitioned() *Partitioned {
	return &Partitioned{parts: make(map[string]func() Snapshot)}
}

// Add installs the tenant's snapshot source, replacing any earlier one.
// snap may be called from any goroutine, at any time until Drop.
func (p *Partitioned) Add(tenant string, snap func() Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.parts[tenant] = snap
}

// Drop removes a tenant's partition (after its final Report snapshot), so
// a long-lived runtime's merged view doesn't grow without bound.
func (p *Partitioned) Drop(tenant string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.parts, tenant)
}

// Tenants returns the current partition keys, sorted.
func (p *Partitioned) Tenants() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.parts))
	for t := range p.parts {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Snapshot merges every partition into one Snapshot, prefixing each
// instrument name with "tenant=<key>/" so same-named instruments from
// different tenants stay distinguishable.
func (p *Partitioned) Snapshot() Snapshot {
	p.mu.Lock()
	keys := make([]string, 0, len(p.parts))
	snaps := make([]func() Snapshot, 0, len(p.parts))
	for t, snap := range p.parts {
		keys = append(keys, t)
		snaps = append(snaps, snap)
	}
	p.mu.Unlock()

	merged := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for i, snap := range snaps {
		prefix := "tenant=" + keys[i] + "/"
		s := snap()
		for name, v := range s.Counters {
			merged.Counters[prefix+name] = v
		}
		for name, v := range s.Gauges {
			merged.Gauges[prefix+name] = v
		}
		for name, v := range s.Histograms {
			merged.Histograms[prefix+name] = v
		}
	}
	return merged
}
