package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// asMainEnv makes the test binary behave as the benchmark itself, so the
// smoke test can run the real command line — children included — without
// building a second binary.
const asMainEnv = "DCGN_BENCHMARK_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// BENCHMARK.json says what metricDefs and the workload table say: the same
// names in the same order with the same units, directions and bounds.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if got := strings.Join(c.Command, " "); got != "go run -C benchmark dcgn/benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", c.Paths)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(section string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metricDefs", section, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metricDefs %s %s %s", section, i, g, m.Name, m.Unit, m.Better)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: name %q or unit %q breaks the contract's rules, or the name is used twice", section, m.Name, m.Unit)
			}
			seen[m.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.Rel || *g.Bound > 0.25):
				t.Errorf("%s: bound of %s is %v, metricDefs says %v", section, m.Name, g.Bound, m.Rel)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s has a bound; per-layer metrics have none", section, m.Name)
			}
		}
	}
	compare("end_to_end", c.EndToEnd, metricsOfKind(driverE2E), true)
	compare("per_layer", c.PerLayer, metricsOfKind(workloadE2E, perLayer), false)
}

// The smoke run: every workload for one tiny repetition, each in a child
// process, through the real command line. It fails if results.json lacks
// any workload or metric that BENCHMARK.json names, if an op failed, or if
// a span lacks one of its fields — so the harness cannot rot.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-quick", "-seed", "3", "-out", dir)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("benchmark -quick: %v\n%s", err, out)
	}

	var res struct {
		Header    map[string]any `json:"header"`
		Workloads []detail       `json:"workloads"`
	}
	readJSON(t, filepath.Join(dir, "results.json"), &res)
	for _, key := range []string{"commit", "go_version", "nproc", "gomaxprocs", "gogc", "seed", "repetitions", "wall_s"} {
		if _, ok := res.Header[key]; !ok {
			t.Errorf("results.json header lacks %q", key)
		}
	}
	c := readContract(t)
	byName := map[string]detail{}
	for _, d := range res.Workloads {
		byName[d.Workload] = d
	}
	for _, w := range c.Workloads {
		d, ok := byName[w.Name]
		if !ok {
			t.Errorf("results.json lacks workload %s", w.Name)
			continue
		}
		if !d.Correct || d.Failed != 0 || d.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, d.Correct, d.Attempted, d.Failed)
		}
		for _, m := range c.EndToEnd {
			if v, ok := d.EndToEnd[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present: %v); it must be reported and never 0", w.Name, m.Name, v, ok)
			}
		}
		for _, m := range c.PerLayer {
			if _, ok := d.PerLayer[m.Name]; !ok {
				t.Errorf("%s: results.json lacks per-layer metric %s", w.Name, m.Name)
			}
		}
		var shares float64
		for name, v := range d.PerLayer {
			if strings.HasPrefix(name, "vt.") {
				shares += v
			}
		}
		if shares < 0.999999 || shares > 1.000001 {
			t.Errorf("%s: the vt.* shares sum to %v, not 1", w.Name, shares)
		}
		if len(d.Ladder) == 0 || d.Ladder[len(d.Ladder)-1].Layer != "unattributed" {
			t.Errorf("%s: the ladder table lacks its unattributed remainder", w.Name)
		}
	}

	var trace struct {
		TraceEvents []struct {
			Name string
			Ts   *float64
			Dur  *float64
			Args struct {
				ID       int
				Parent   *int
				Workload string
				StartNs  *int64 `json:"start_ns"`
				EndNs    *int64 `json:"end_ns"`
			}
		}
	}
	readJSON(t, filepath.Join(dir, "trace.json"), &trace)
	workloadsSeen := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Name == "" || e.Ts == nil || e.Dur == nil || e.Args.Parent == nil || e.Args.Workload == "" ||
			e.Args.StartNs == nil || e.Args.EndNs == nil || *e.Args.EndNs < *e.Args.StartNs {
			t.Fatalf("trace.json: span %+v lacks name, start, end, parent or workload", e)
		}
		workloadsSeen[e.Args.Workload] = true
	}
	if len(workloadsSeen) != len(c.Workloads) {
		t.Errorf("trace.json has spans of %d workloads, want %d", len(workloadsSeen), len(c.Workloads))
	}
}

func readJSON(t *testing.T, path string, into any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
