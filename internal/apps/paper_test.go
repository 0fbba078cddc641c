package apps

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dcgn/internal/core"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated tables from Evaluate")

// evaluated is the test binary's one run of the paper's evaluation.
var evaluated = sync.OnceValues(Evaluate)

func evaluate(t *testing.T) Paper {
	t.Helper()
	p, err := evaluated()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pinnedRefs are the 29 reference points as the model gives them, at full
// precision: a change that moves the model shows here first.
var pinnedRefs = []RefPoint{
	{"table1 1n 2c 0g MPI us", 3, 2.432},
	{"table1 1n 2c 0g DCGN us", 38, 32.6},
	{"table1 1n 0c 2g DCGN us", 313, 470.473},
	{"table1 1n 1c 1g DCGN us", 50, 22.6},
	{"table1 1n 2c 2g DCGN us", 53, 32.6},
	{"table1 2n 2c 0g MPI us", 5, 6.544},
	{"table1 2n 2c 0g DCGN us", 41, 35.952},
	{"table1 2n 0c 2g DCGN us", 747, 495.673},
	{"table1 2n 2c 2g DCGN us", 55, 35.952},
	{"table1 4n 2c 0g MPI us", 6, 9.896},
	{"table1 4n 2c 0g DCGN us", 43, 39.304},
	{"table1 4n 0c 2g DCGN us", 806, 520.873},
	{"table1 4n 2c 2g DCGN us", 70, 39.304},
	{"fig6 0B CPU:CPU / MVAPICH2", 28, 25.72519083969466},
	{"fig6 0B GPU:GPU / MVAPICH2", 564, 109.25154489276626},
	{"fig6 1MB CPU:CPU / MVAPICH2", 1.04, 1.0804088831725212},
	{"fig6 1MB GPU:GPU / MVAPICH2", 1.5, 2.1090512747158696},
	{"mandelbrot GAS speed-up", 3.08, 3.1396280412888675},
	{"mandelbrot DCGN speed-up", 2.72, 2.4097535212221164},
	{"mandelbrot GAS efficiency %", 38, 39.24535051611085},
	{"mandelbrot DCGN efficiency %", 34, 30.121919015276454},
	{"cannon GAS efficiency %", 74, 73.0690008564392},
	{"cannon DCGN efficiency %", 71, 69.63620467811958},
	{"nbody 4096 GAS efficiency %", 28, 29.869524418757088},
	{"nbody 4096 DCGN efficiency %", 28, 13.817657027426016},
	{"nbody 16384 GAS efficiency %", 64, 79.8315702700729},
	{"nbody 16384 DCGN efficiency %", 64, 67.90379379261037},
	{"nbody 32768 GAS efficiency %", 90, 90.78793409127995},
	{"nbody 32768 DCGN efficiency %", 90, 87.65852472815645},
}

// experimentsPath is the document whose paper tables Evaluate prints.
const experimentsPath = "../../EXPERIMENTS.md"

// TestPaperEvaluation pins the evaluation's reference points and mean
// error, checks that no DCGN cell leaks a pooled frame, and keeps
// EXPERIMENTS.md's paper tables what Evaluate prints. Regenerate the
// tables with:
//
//	go test ./internal/apps -run TestPaperEvaluation -update
func TestPaperEvaluation(t *testing.T) {
	p := evaluate(t)
	if len(p.Refs) != len(pinnedRefs) {
		t.Fatalf("%d reference points, want %d", len(p.Refs), len(pinnedRefs))
	}
	for i, want := range pinnedRefs {
		if p.Refs[i] != want {
			t.Errorf("reference point %d = %+v, want %+v", i, p.Refs[i], want)
		}
	}
	if got := fmt.Sprintf("%.2f", p.ModelErrPct); got != "24.04" {
		t.Errorf("model error %s %%, want 24.04 %%", got)
	}

	balanced := func(cell string, rep core.Report) {
		if rep.PoolAcquires == 0 || rep.PoolAcquires != rep.PoolReleases {
			t.Errorf("%s: %d pool acquires, %d releases", cell, rep.PoolAcquires, rep.PoolReleases)
		}
	}
	for _, row := range p.Fig6 {
		for src, reps := range row.Reports {
			for dst, rep := range reps {
				balanced(fmt.Sprintf("fig6 %d B %v:%v", row.Size, Endpoint(src), Endpoint(dst)), rep)
			}
		}
	}
	balanced("mandelbrot", p.Mandelbrot.DCGN.Report)
	balanced("cannon", p.Cannon.DCGN.Report)
	for i, run := range p.NBody {
		balanced(fmt.Sprintf("nbody %d", paperNBodyEff[i].bodies), run.DCGN.Report)
	}

	doc, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	got := doc
	for name, body := range map[string]string{
		"table1":     table1Markdown(p),
		"fig6":       fig6Markdown(p),
		"fig7":       fig7Markdown(p),
		"mandelbrot": mandelbrotMarkdown(p),
		"cannon":     cannonMarkdown(p),
		"nbody":      nbodyMarkdown(p),
		"residuals":  residualsMarkdown(p),
	} {
		if got, err = replaceGenerated(got, name, body); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.WriteFile(experimentsPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(got, doc) {
		t.Error("EXPERIMENTS.md's paper tables differ from Evaluate's (regenerate with `go test ./internal/apps -run TestPaperEvaluation -update`)")
	}
}

// replaceGenerated puts body between the document's markers of the named
// table.
func replaceGenerated(doc []byte, name, body string) ([]byte, error) {
	begin := []byte("<!-- generated: " + name + " -->\n")
	end := []byte("<!-- end generated: " + name + " -->\n")
	i, j := bytes.Index(doc, begin), bytes.Index(doc, end)
	if i < 0 || j < i {
		return nil, fmt.Errorf("%s: no %q … %q markers", experimentsPath, begin, end)
	}
	i += len(begin)
	return append(append(doc[:i:i], body...), doc[j:]...), nil
}

// markdown is a table under construction.
type markdown struct{ strings.Builder }

func (m *markdown) row(cells ...string) {
	m.WriteString("| " + strings.Join(cells, " | ") + " |\n")
}

func (m *markdown) header(cells ...string) {
	m.row(cells...)
	m.WriteString(strings.Repeat("|---", len(cells)) + "|\n")
}

// micros prints a virtual time in µs: one decimal below a millisecond.
func micros(v float64) string {
	if v < 1000 {
		return fmt.Sprintf("%.1f µs", v)
	}
	return fmt.Sprintf("%.0f µs", v)
}

func dur(d time.Duration) string { return micros(us(d)) }

func times(v float64) string { return fmt.Sprintf("%.3g×", v) }

func pct(v float64) string { return fmt.Sprintf("%.0f%%", v) }

// orDash prints s(v), or a dash where there is no number.
func orDash(v float64, s func(float64) string) string {
	if v == 0 {
		return "—"
	}
	return s(v)
}

func bytesLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%d MB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%d kB", n>>10)
	}
	return fmt.Sprintf("%d B", n)
}

func plural(n int, what string) string {
	if n == 1 {
		return fmt.Sprintf("%d %s", n, what)
	}
	return fmt.Sprintf("%d %ss", n, what)
}

// table1Markdown prints Table 1. A row's ratio is its DCGN barrier over
// the MPI one of the CPU-only row with as many ranks, where there is one —
// the rule the paper's own ratio column follows.
func table1Markdown(p Paper) string {
	var m markdown
	m.header("Nodes", "Config", "paper MPI", "ours MPI", "paper DCGN", "ours DCGN", "paper ratio", "ours ratio")
	for _, r := range p.Table1 {
		var paperRatio, oursRatio float64
		for _, c := range p.Table1 {
			if c.GPUs == 0 && c.Nodes*c.CPUs == r.Nodes*(r.CPUs+r.GPUs) {
				paperRatio, oursRatio = r.PaperDCGN/c.PaperMPI, float64(r.DCGN)/float64(c.MPI)
			}
		}
		m.row(fmt.Sprint(r.Nodes), plural(r.Nodes*r.CPUs, "CPU")+"/"+plural(r.Nodes*r.GPUs, "GPU"),
			orDash(r.PaperMPI, func(v float64) string { return fmt.Sprintf("%g µs", v) }), orDash(us(r.MPI), micros),
			fmt.Sprintf("%g µs", r.PaperDCGN), dur(r.DCGN),
			orDash(paperRatio, times), orDash(oursRatio, times))
	}
	return m.String()
}

// fig6Markdown prints Fig. 6's curves, then its checkpoints against the
// paper's.
func fig6Markdown(p Paper) string {
	var m markdown
	m.header("Size", "MVAPICH2", "DCGN CPU:CPU", "DCGN CPU:GPU", "DCGN GPU:CPU", "DCGN GPU:GPU")
	for _, r := range p.Fig6 {
		m.row(bytesLabel(r.Size), dur(r.MPI), dur(r.DCGN[EPCPU][EPCPU]), dur(r.DCGN[EPCPU][EPGPU]),
			dur(r.DCGN[EPGPU][EPCPU]), dur(r.DCGN[EPGPU][EPGPU]))
	}
	m.WriteString("\n")
	m.header("Checkpoint", "Paper", "Ours")
	for _, r := range p.Refs {
		if name, ok := strings.CutPrefix(r.Name, "fig6 "); ok {
			m.row(name, fmt.Sprintf("%g×", r.Paper), times(r.Ours))
		}
	}
	return m.String()
}

// fig7Markdown prints Fig. 7, the fastest of each row in bold.
func fig7Markdown(p Paper) string {
	var m markdown
	m.header("Size", "MVAPICH2 8 CPUs", "DCGN 8 CPUs", "DCGN 8 GPUs")
	for _, r := range p.Fig7 {
		cells := []string{bytesLabel(r.Size)}
		for _, d := range []time.Duration{r.MPI, r.CPU, r.GPU} {
			s := dur(d)
			if d == min(r.MPI, r.CPU, r.GPU) {
				s = "**" + s + "**"
			}
			cells = append(cells, s)
		}
		m.row(cells...)
	}
	return m.String()
}

func mandelbrotMarkdown(p Paper) string {
	r, ref := p.Mandelbrot, paperMandel
	speedup := func(m MandelResult) float64 { return float64(r.Single.Elapsed) / float64(m.Elapsed) }
	mpix := func(v float64) string { return fmt.Sprintf("%.1f Mpix/s", v/1e6) }
	var m markdown
	m.header("Metric", "Paper GAS", "Ours GAS", "Paper DCGN", "Ours DCGN")
	m.row("Peak throughput", fmt.Sprintf("~%g Mpix/s", ref.gasMpix), mpix(r.GAS.PixelsPerSec),
		fmt.Sprintf("~%g Mpix/s", ref.dcgnMpix), mpix(r.DCGN.PixelsPerSec))
	m.row("Speedup (8 GPUs)", fmt.Sprintf("%g×", ref.gasSpeedup), times(speedup(r.GAS)),
		fmt.Sprintf("%g×", ref.dcgnSpeedup), times(speedup(r.DCGN)))
	m.row("Efficiency", pct(ref.gasEff), pct(100*speedup(r.GAS)/8), pct(ref.dcgnEff), pct(100*speedup(r.DCGN)/8))
	return m.String()
}

func cannonMarkdown(p Paper) string {
	r := p.Cannon
	eff := func(c CannonResult) float64 { return 100 * float64(r.Single.Elapsed) / float64(c.Elapsed) / 4 }
	var m markdown
	m.header("Metric", "Paper GAS", "Ours GAS", "Paper DCGN", "Ours DCGN")
	m.row("Efficiency", pct(paperCannonEff.gas), pct(eff(r.GAS)), pct(paperCannonEff.dcgn), pct(eff(r.DCGN)))
	return m.String()
}

func nbodyMarkdown(p Paper) string {
	var m markdown
	m.header("Bodies", "Paper (both)", "Ours GAS", "Ours DCGN")
	for i, r := range p.NBody {
		eff := func(n NBodyResult) float64 { return 100 * float64(r.Single.Elapsed) / float64(n.Elapsed) / 8 }
		m.row(fmt.Sprint(paperNBodyEff[i].bodies), pct(paperNBodyEff[i].eff), pct(eff(r.GAS)), pct(eff(r.DCGN)))
	}
	return m.String()
}

// residualsMarkdown prints every reference point with its residual, and
// their mean magnitude.
func residualsMarkdown(p Paper) string {
	var m markdown
	m.header("#", "Reference point", "Paper", "Ours", "Residual")
	for i, r := range p.Refs {
		m.row(fmt.Sprint(i+1), r.Name, fmt.Sprintf("%g", r.Paper), fmt.Sprintf("%.4g", r.Ours),
			fmt.Sprintf("%+.1f%%", 100*r.Residual()))
	}
	fmt.Fprintf(&m, "\nMean |residual| (`model_err_pct`): **%.2f %%**.\n", p.ModelErrPct)
	return m.String()
}

// BenchmarkEvaluate runs the paper's evaluation, all 65 cells, once per
// iteration: what paper_eval times, at the size `go test` runs. Its B/op is
// the bytes one run allocates (TestEngineAllocBudget's evaluateMB holds
// them); `make allocprof` prints where they come from.
func BenchmarkEvaluate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}
