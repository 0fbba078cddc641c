package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"testing"
	"time"

	"dcgn/internal/obs"
)

// fixtureReport runs the 4-node demo workload once per test binary — the
// fixture the exporter checks below share.
func fixtureReport(t *testing.T) (spans []obs.Span) {
	t.Helper()
	rep, err := runTraceJob(traceConfig(4, 120*time.Microsecond, false, false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace) == 0 {
		t.Fatal("fixture run produced no spans")
	}
	return rep.Trace
}

// TestChromeTraceExport is the CI schema check for `dcgn-trace -format
// chrome`: the 4-node fixture's output must decode into the typed
// trace-event structs, name all four node processes, and carry intake,
// match and wire slices on every node's track set.
func TestChromeTraceExport(t *testing.T) {
	spans := fixtureReport(t)
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var tr obs.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("chrome export is not valid trace-event JSON: %v", err)
	}

	const nodes = 4
	processes := map[int]bool{}
	tracks := map[[2]int]bool{}
	slices := 0
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				processes[ev.Pid] = true
			}
		case "X":
			slices++
			tracks[[2]int{ev.Pid, ev.Tid}] = true
			if ev.Dur < 0 {
				t.Errorf("negative slice duration: %+v", ev)
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if len(processes) != nodes {
		t.Errorf("named %d node processes, want %d", len(processes), nodes)
	}
	for n := 0; n < nodes; n++ {
		for _, tid := range []int{obs.TrackRequest, obs.TrackIntake, obs.TrackMatch, obs.TrackWire} {
			if !tracks[[2]int{n, tid}] {
				t.Errorf("node %d: no slice on the %s track", n, obs.TrackNames[tid])
			}
		}
	}
	// Every span contributes a whole-lifecycle slice; phase slices add more.
	if slices < len(spans) {
		t.Errorf("%d slices for %d spans; every span must appear on the requests track", slices, len(spans))
	}
}

// TestCSVExport checks the CSV rendering of the same fixture: one row per
// span plus the header, with the phase-timestamp column layout intact.
func TestCSVExport(t *testing.T) {
	spans := fixtureReport(t)
	var buf bytes.Buffer
	if err := obs.WriteCSV(&buf, spans); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(spans)+1 {
		t.Fatalf("rows = %d, want %d spans + header", len(rows), len(spans))
	}
	if rows[0][0] != "op" || rows[0][len(rows[0])-1] != "latency_ns" {
		t.Fatalf("unexpected header: %v", rows[0])
	}
}

// TestChromeTraceDeterminism pins that two identical sim runs export
// byte-identical Perfetto files — the exporter inherits the simulator's
// golden determinism.
func TestChromeTraceDeterminism(t *testing.T) {
	render := func() []byte {
		rep, err := runTraceJob(traceConfig(4, 120*time.Microsecond, false, false, false, false))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, rep.Trace); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("chrome export diverged across identical sim runs")
	}
}

// TestCheckFlags pins the usage errors: -metrics prints a text table, so
// asking for it with a chrome or csv export is refused rather than
// silently dropping the histograms.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		nodes   int
		format  string
		metrics bool
		ok      bool
	}{
		{2, "table", false, true},
		{4, "table", true, true},
		{4, "chrome", false, true},
		{4, "csv", false, true},
		{4, "chrome", true, false},
		{4, "csv", true, false},
		{4, "yaml", false, false},
		{1, "table", false, false},
	} {
		err := checkFlags(tc.nodes, tc.format, tc.metrics)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d, %q, metrics=%t) = %v, want ok=%t", tc.nodes, tc.format, tc.metrics, err, tc.ok)
		}
	}
}
