// Command benchmark is the repository's one benchmark: six workloads,
// end-to-end metrics on both clocks (the host's and the modelled
// hardware's), and a per-layer cost ladder. See README.md.
//
//	go run -C benchmark dcgn/benchmark -seed 1 -out out            # every workload, each in a child process
//	go run -C benchmark dcgn/benchmark -workload p2p_small -seed 1  # one workload, in this process
//	go run -C benchmark dcgn/benchmark -selfcheck                   # two sets, compared against the bounds
//
// The benchmark driver's contract (BENCHMARK.json) is the second form with
// --seconds and --trace 0|1; its last line of output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// processStart is when this process began: setup_s counts from here.
var processStart = time.Now()

// defaultSeconds is the length of a timed run; BENCHMARK.json's
// run_seconds says the same (checked by the tests).
const defaultSeconds = 15

var (
	seedFlag     = flag.Int64("seed", 1, "seed every generated input derives from")
	outFlag      = flag.String("out", "", "directory to write results.json and trace.json into")
	workloadFlag = flag.String("workload", "", "run this one workload in this process (default: all six, each in a child process)")
	quickFlag    = flag.Bool("quick", false, "smoke mode: tiny inputs, one repetition")
	secondsFlag  = flag.Float64("seconds", defaultSeconds, "length of each workload's timed run")
	traceFlag    = flag.String("trace", "both", "0: timed run only (end-to-end metrics); 1: traced run only (per-layer metrics); both")
	selfFlag     = flag.Bool("selfcheck", false, "run two full sets and compare every end-to-end metric against its bound")
	detailFlag   = flag.String("detail", "", "internal: file a child process writes its full result to")
	epochFlag    = flag.Int64("epoch", 0, "internal: the invocation's start in Unix nanoseconds, the origin of span times")
)

func main() {
	flag.Parse()
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain() error {
	if *quickFlag {
		*secondsFlag = 0
	}
	switch {
	case *selfFlag:
		return selfcheck()
	case *workloadFlag != "":
		d, err := runOne()
		if err != nil {
			return err
		}
		if *outFlag != "" {
			return writeOut(*outFlag, []*detail{d}, time.Since(processStart))
		}
		return nil
	}
	ds, wall, err := runAll()
	if err != nil {
		return err
	}
	if *outFlag != "" {
		if err := writeOut(*outFlag, ds, wall); err != nil {
			return err
		}
	}
	for _, d := range ds {
		if !d.Correct {
			return fmt.Errorf("%s: %d of %d ops failed", d.Workload, d.Failed, d.Attempted)
		}
	}
	return nil
}

// detail is everything one workload's process measured.
type detail struct {
	Workload   string  `json:"workload"`
	Op         string  `json:"op"`
	Seed       int64   `json:"seed"`
	Quick      bool    `json:"quick"`
	Seconds    float64 `json:"seconds"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Reps       int     `json:"repetitions"`
	Samples    int     `json:"wait_samples"`
	// TailQ is the highest percentile of the submitters' waits with at
	// least ten samples beyond it (0: none) and TailMs its value.
	TailQ     float64 `json:"wait_tail_percentile"`
	TailMs    float64 `json:"wait_tail_ms"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Failures says which checks the failed ops failed.
	Failures map[string]int `json:"failures,omitempty"`
	EndToEnd values         `json:"end_to_end,omitempty"`
	PerLayer values         `json:"per_layer,omitempty"`
	Ladder   []ladderRow    `json:"ladder,omitempty"`
	Refs     []refPoint     `json:"model_reference_points,omitempty"`
	Spans    []span         `json:"spans,omitempty"`
}

// runOne runs the workload named by -workload in this process: set-up,
// then the timed run, the traced run or both, then the printed tables and
// the contract's result line.
func runOne() (*detail, error) {
	w, err := findWorkload(*workloadFlag)
	if err != nil {
		return nil, err
	}
	if *traceFlag != "0" && *traceFlag != "1" && *traceFlag != "both" {
		return nil, fmt.Errorf("-trace %q: want 0, 1 or both", *traceFlag)
	}
	runtime.GOMAXPROCS(w.procs())
	epoch := processStart
	if *epochFlag != 0 {
		epoch = time.Unix(0, *epochFlag)
	}
	rec := newRecorder(w.name, epoch)
	endAll := rec.begin(w.name)
	e := env{seed: *seedFlag, quick: *quickFlag}
	d := &detail{
		Workload: w.name, Op: w.op, Seed: e.seed, Quick: e.quick, Seconds: *secondsFlag,
		GoMaxProcs: w.procs(),
	}

	// Set-up: inputs, reference results, one untimed warm-up repetition.
	// While it is cheap it is done again (five times, or until 1.5 s are
	// spent) and setup_s takes the median, so that one burst of the
	// machine's neighbours does not decide a 0.1 s set-up.
	var rep repFn
	var rounds []float64
	setup := time.Since(processStart)
	for spent := 0.0; len(rounds) < 5 && (len(rounds) == 0 || spent < 1.5); spent += rounds[len(rounds)-1] {
		t0, end := time.Now(), rec.begin("setup")
		if rep, err = w.prepare(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if _, err := rep(false); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		end()
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	setup += time.Duration(median(rounds) * float64(time.Second))

	var ref *run
	var total outcome
	if *traceFlag != "1" {
		if ref, err = timed(w, rep, *secondsFlag, rec); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		d.EndToEnd = endToEnd(w, ref, setup)
		waits := ref.waitsMs()
		d.Reps, d.Samples = len(ref.outs), len(waits)
		d.TailQ = highestTail(len(waits), []float64{0.50, 0.90, 0.99, 0.999})
		d.TailMs, _ = tail(waits, d.TailQ)
		total.count(ref.total)
		d.Refs = ref.last().refs
	}
	if *traceFlag != "0" {
		seconds := min(*secondsFlag, 10) // the traced run is short: its numbers are unit costs and counts
		l, err := tracedRun(w, rep, e, seconds, ref, rec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		d.PerLayer, d.Ladder = l.metrics, l.ladder
		for _, m := range metricsOfKind(workloadE2E, perLayer) {
			d.PerLayer[m.Name] += 0 // a metric the workload does not have is reported as 0
			if _, ok := d.EndToEnd[m.Name]; ref != nil && !ok && m.Kind == workloadE2E && m.definedOn(w.name) {
				d.EndToEnd[m.Name] = d.PerLayer[m.Name] // the knee, which only the traced run searches
			}
		}
		total.count(l.total)
		if ref == nil {
			d.Reps, d.Refs = len(l.base.outs), l.base.last().refs
		}
	}
	endAll()
	d.Attempted, d.Failed, d.Failures = total.ops, total.failed, total.reasons
	d.Correct = d.Failed == 0
	d.Spans = rec.spans

	printDetail(os.Stdout, w, d)
	if *detailFlag != "" {
		if err := writeJSON(*detailFlag, d); err != nil {
			return nil, err
		}
	}
	return d, printResultLine(d)
}

// printResultLine prints the benchmark contract's last line: with -trace 0
// every end-to-end metric of BENCHMARK.json, with -trace 1 every per-layer
// one (0 where a metric is not defined on the workload), with both, both.
func printResultLine(d *detail) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric)
	for _, m := range metricDefs {
		switch {
		case m.Kind == driverE2E && *traceFlag != "1":
			metrics[m.Name] = metric{d.EndToEnd[m.Name], m.Unit}
		case m.Kind != driverE2E && *traceFlag != "0":
			metrics[m.Name] = metric{d.PerLayer[m.Name], m.Unit}
		}
		if v := metrics[m.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v: a measurement divided by zero", m.Name, v)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": d.Correct, "attempted": d.Attempted, "failed": d.Failed, "metrics": metrics,
	})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Println(string(line))
	return err
}

// runAll runs every workload in a child process of this binary, so that
// heap state and the resident-set high-water mark do not leak from one
// workload into the next. Children run one after another.
func runAll() ([]*detail, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	tmp, err := os.MkdirTemp(".", ".benchmark-run-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(tmp)
	start := time.Now()
	var ds []*detail
	for _, w := range workloads {
		file := filepath.Join(tmp, w.name+".json")
		cmd := exec.Command(exe,
			"-workload", w.name, "-seed", fmt.Sprint(*seedFlag), "-seconds", fmt.Sprint(*secondsFlag),
			fmt.Sprintf("-quick=%t", *quickFlag), "-trace", "both", "-detail", file,
			"-epoch", fmt.Sprint(start.UnixNano()))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil { // Run waits for the child to end
			return nil, 0, fmt.Errorf("workload %s: %w", w.name, err)
		}
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, 0, err
		}
		d := &detail{}
		if err := json.Unmarshal(raw, d); err != nil {
			return nil, 0, fmt.Errorf("workload %s: %w", w.name, err)
		}
		ds = append(ds, d)
	}
	return ds, time.Since(start), nil
}

// header is the run hygiene recorded at the top of results.json.
type header struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GoMaxProcs map[string]int `json:"gomaxprocs"` // per workload
	GOGC       string         `json:"gogc"`
	Seed       int64          `json:"seed"`
	Quick      bool           `json:"quick"`
	Seconds    float64        `json:"seconds"`
	Reps       map[string]int `json:"repetitions"`
	WallS      float64        `json:"wall_s"`
}

// writeOut writes dir/results.json (header, then every workload's metrics
// and ladder) and dir/trace.json (every span, Chrome trace format).
func writeOut(dir string, ds []*detail, wall time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	h := header{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: map[string]int{},
		GOGC: gogc(), Seed: *seedFlag, Quick: *quickFlag, Seconds: *secondsFlag,
		Reps: map[string]int{}, WallS: wall.Seconds(),
	}
	var spans [][]span
	slim := make([]detail, len(ds))
	for i, d := range ds {
		h.Reps[d.Workload], h.GoMaxProcs[d.Workload] = d.Reps, d.GoMaxProcs
		spans = append(spans, d.Spans)
		slim[i] = *d
		slim[i].Spans = nil
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), map[string]any{"header": h, "workloads": slim}); err != nil {
		return err
	}
	return writeChromeTrace(filepath.Join(dir, "trace.json"), spans)
}

func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// commit is the VCS revision the binary was built from, or what git says
// about the working directory, or "unknown" outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}
