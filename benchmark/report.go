package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// printDetail prints every metric of one workload by name, with its unit
// and clock, then paper_eval's reference points and the ladder table.
func printDetail(out io.Writer, w *workload, d *detail) {
	fmt.Fprintf(out, "\n== %s — op = %s; seed %d, GOMAXPROCS %d ==\n", w.name, w.op, d.Seed, d.GoMaxProcs)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	section := func(title string, vals values, kinds ...string) {
		if vals == nil {
			return
		}
		fmt.Fprintf(tw, "%s\n  metric\tvalue\tunit\tclock\tbetter\n", title)
		for _, m := range metricsOfKind(kinds...) {
			if v, ok := vals[m.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\n", m.Name, v, m.Unit, clockOn(m, w), m.Better)
			}
		}
	}
	waits := fmt.Sprintf("%d waits", d.Samples)
	if d.TailQ > 0 {
		waits += fmt.Sprintf(", p%g = %.6g ms the highest percentile with ten samples beyond it", 100*d.TailQ, d.TailMs)
	}
	section(fmt.Sprintf("end-to-end: timed run, tracing off, %d repetitions; %s", d.Reps, waits),
		d.EndToEnd, driverE2E, workloadE2E)
	section("per-layer: traced run (0 = not defined on this workload, a path not taken, or a percentile with fewer than ten samples beyond it)",
		d.PerLayer, workloadE2E, perLayer)
	tw.Flush()

	if len(d.Refs) > 0 {
		fmt.Fprintln(tw, "model_err_pct reference points\n  point\tpaper\tours\terror")
		for _, r := range d.Refs {
			fmt.Fprintf(tw, "  %s\t%.4g\t%.4g\t%.1f%%\n", r.Name, r.Paper, r.Ours, 100*math.Abs(r.Ours-r.Paper)/r.Paper)
		}
		tw.Flush()
	}
	if len(d.Ladder) > 0 {
		unit := d.PerLayer["sim.switch_ns"]
		fmt.Fprintln(tw, "ladder: quiet host time of one repetition, by layer (own cost = rung minus the rung under it)")
		fmt.Fprintln(tw, "  layer\tcount/rep\tunit ns\t~switches\tproduct ms\tshare")
		for _, r := range d.Ladder {
			switches := "-"
			if unit > 0 && r.UnitNs > 0 {
				switches = fmt.Sprintf("%.1f", r.UnitNs/unit)
			}
			fmt.Fprintf(tw, "  %s\t%.0f\t%.0f\t%s\t%.3f\t%.1f%%\n", r.Layer, r.Count, r.UnitNs, switches, r.ProductMs, 100*r.Share)
		}
		tw.Flush()
	}
	fmt.Fprintf(out, "ops attempted %d, failed %d\n", d.Attempted, d.Failed)
	for reason, n := range d.Failures {
		fmt.Fprintf(out, "  failed %d: %s\n", n, reason)
	}
}

// clockOn is the clock a metric reads on the workload: the live workload
// has no virtual clock, so its phase shares and runtime histograms are
// wall-clock.
func clockOn(m metricDef, w *workload) string {
	if w.mix.live && m.Clock == clockVirtual {
		return clockWall
	}
	return m.Clock
}

// selfcheck runs two full sets back to back and prints, per end-to-end
// metric and workload, the two values, their relative gap and the bound.
// It fails if a gap exceeds its bound, if a virtual metric (end-to-end or
// per-layer) is not bit-identical between the sets, or if an op failed.
func selfcheck() error {
	dir := *outFlag
	if dir == "" {
		tmp, err := os.MkdirTemp(".", ".benchmark-selfcheck-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	var sets [2][]*detail
	for i := range sets {
		ds, wall, err := runAll()
		if err != nil {
			return err
		}
		if err := writeOut(filepath.Join(dir, fmt.Sprintf("set%d", i+1)), ds, wall); err != nil {
			return err
		}
		sets[i] = ds
	}

	var bad []string
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\n== selfcheck: two sets of the same commit ==\nmetric\tworkload\tset 1\tset 2\tgap\tbound\t")
	for wi, first := range sets[0] {
		second := sets[1][wi]
		w, _ := findWorkload(first.Workload)
		if !first.Correct || !second.Correct {
			bad = append(bad, first.Workload+": failed ops")
		}
		for _, m := range metricsOfKind(driverE2E, workloadE2E) {
			a, ok := first.EndToEnd[m.Name]
			if !ok {
				continue
			}
			b := second.EndToEnd[m.Name]
			gap, verdict := gapOf(a, b), ""
			exact := clockOn(m, w) == clockVirtual
			rel := m.Rel
			if (exact && a != b) || (!exact && gap > rel && math.Abs(b-a) > m.Abs) {
				verdict = "EXCEEDED"
				bad = append(bad, m.Name+" on "+w.name)
			}
			bound := fmt.Sprintf("%.3g%%", 100*rel)
			switch {
			case exact:
				bound = "identical"
			case m.Abs > 0 && rel > 0:
				bound += fmt.Sprintf(" or %g %s", m.Abs, m.Unit)
			case m.Abs > 0:
				bound = fmt.Sprintf("%g %s", m.Abs, m.Unit)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f%%\t%s\t%s\n", m.Name, w.name, a, b, 100*gap, bound, verdict)
		}
		for _, m := range metricsOfKind(perLayer) {
			if clockOn(m, w) == clockVirtual && first.PerLayer[m.Name] != second.PerLayer[m.Name] {
				bad = append(bad, m.Name+" on "+w.name+" (virtual, not identical)")
			}
		}
	}
	tw.Flush()
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: out of bound: %s", strings.Join(bad, "; "))
	}
	fmt.Println("selfcheck: every end-to-end metric within its bound, every virtual metric identical")
	return nil
}

// gapOf is |b-a| as a share of |a| (of |b| when a is zero).
func gapOf(a, b float64) float64 {
	base := math.Abs(a)
	if base == 0 {
		base = math.Abs(b)
	}
	if base == 0 {
		return 0
	}
	return math.Abs(b-a) / base
}
