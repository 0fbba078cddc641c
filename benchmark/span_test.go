package main

import (
	"testing"
	"time"
)

// Self time is a span's duration minus what its children cover, with
// overlapping children counted once and children clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNs: 0, EndNs: 100},
		{ID: 2, Name: "a", Parent: 1, StartNs: 10, EndNs: 30},
		{ID: 3, Name: "b overlaps a", Parent: 1, StartNs: 20, EndNs: 50},
		{ID: 4, Name: "c", Parent: 1, StartNs: 60, EndNs: 70},
		{ID: 5, Name: "d runs past the parent", Parent: 1, StartNs: 95, EndNs: 120},
		{ID: 6, Name: "grandchild", Parent: 2, StartNs: 12, EndNs: 18},
	}
	want := map[int]int64{
		1: 100 - (40 + 10 + 5), // [10,50) + [60,70) + [95,100)
		2: 20 - 6,
		3: 30,
		4: 10,
		5: 25,
		6: 6,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

// The recorder nests spans as a stack: a span's parent is the span open
// when it began, and a closed span stops being a parent.
func TestRecorderParents(t *testing.T) {
	r := newRecorder("w", time.Now())
	endRoot := r.begin("root")
	endA := r.begin("a")
	r.begin("a1")()
	endA()
	r.begin("b")()
	endRoot()
	r.begin("second root")()

	parent := map[string]string{}
	name := map[int]string{0: ""}
	for _, s := range r.spans {
		name[s.ID] = s.Name
	}
	for _, s := range r.spans {
		parent[s.Name] = name[s.Parent]
		if s.Workload != "w" || s.EndNs < s.StartNs {
			t.Errorf("span %q: workload %q, start %d, end %d", s.Name, s.Workload, s.StartNs, s.EndNs)
		}
	}
	want := map[string]string{"root": "", "a": "root", "a1": "a", "b": "root", "second root": ""}
	for n, p := range want {
		if parent[n] != p {
			t.Errorf("parent of %q = %q, want %q", n, parent[n], p)
		}
	}
	// Children lie inside their parents, so every self time is non-negative
	// and the self times of a tree add up to its root's duration.
	self := selfTimes(r.spans)
	var sum int64
	for _, s := range r.spans[:4] {
		if self[s.ID] < 0 {
			t.Errorf("span %q has negative self time %d", s.Name, self[s.ID])
		}
		sum += self[s.ID]
	}
	if root := r.spans[0]; sum != root.EndNs-root.StartNs {
		t.Errorf("self times of the tree sum to %d, the root lasted %d", sum, root.EndNs-root.StartNs)
	}
}
