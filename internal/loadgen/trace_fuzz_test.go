package loadgen

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// FuzzParseTrace feeds arbitrary bytes to the trace decoder behind
// LoadTrace: it must never panic, every trace it accepts carries the
// schema tag, arrivals in time order from the run's start and runnable job
// shapes, and an accepted trace written back out parses to itself.
func FuzzParseTrace(f *testing.F) {
	tr, err := RecordTrace(Spec{Backend: "sim", Seed: 1, Rate: 50, Duration: 100 * time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	doc, err := json.Marshal(tr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	head := `{"schema":"` + TraceSchema + `","arrivals":[`
	f.Add([]byte(head + `{"at_ns":5,"nodes":2,"fanout":1,"iters":1,"size":1},{"at_ns":4,"nodes":2,"fanout":1,"iters":1,"size":1}]}`))
	f.Add([]byte(head + `{"at_ns":-1,"nodes":2,"fanout":1,"iters":1,"size":1}]}`))
	f.Add([]byte(head + `{"at_ns":0,"nodes":1,"fanout":1,"iters":1,"size":1}]}`))
	f.Add([]byte(`{"schema":"other/v9"}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := parseTrace(raw)
		if err != nil {
			return
		}
		if tr.Schema != TraceSchema {
			t.Fatalf("accepted schema %q", tr.Schema)
		}
		var last int64
		for i, a := range tr.Arrivals {
			if a.AtNs < last {
				t.Fatalf("arrival %d at %d ns, after one at %d ns", i, a.AtNs, last)
			}
			if a.Nodes < 2 || a.Fanout < 1 || a.Iters < 1 || a.Size < 1 {
				t.Fatalf("arrival %d has a degenerate shape: %+v", i, a)
			}
			last = a.AtNs
		}
		out, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		again, err := parseTrace(out)
		if err != nil || !reflect.DeepEqual(again, tr) {
			t.Fatalf("an accepted trace does not survive being written out: %v", err)
		}
	})
}
