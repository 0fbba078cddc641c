// Command dcgn-mandel regenerates the paper's Figure 5: two runs of the
// Mandelbrot work-queue application with identical parameters but
// different timing jitter produce different strip-to-worker distributions,
// demonstrating that DCGN's communication is truly dynamic. Strips are
// rendered as colored bars (one character column per strip, one digit per
// owning worker).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"dcgn/internal/apps"
	"dcgn/internal/core"
)

var (
	seedA = flag.Int64("seedA", 1, "jitter seed of the first run")
	seedB = flag.Int64("seedB", 2, "jitter seed of the second run")
	width = flag.Int("width", 512, "image width")
	rows  = flag.Int("strip", 8, "rows per strip")
	ppm   = flag.String("ppm", "", "if set, write fig5-run{1,2}.ppm images (fractal tinted by owning worker) under this directory")
)

func main() {
	flag.Parse()
	mc := apps.DefaultMandelConfig()
	mc.Width, mc.Height, mc.StripRows = *width, 256, *rows
	mc.JitterFrac = 0.25
	if err := fig5(os.Stdout, mc, *seedA, *seedB, *ppm); err != nil {
		log.Fatal(err)
	}
}

// fig5 runs the work queue of mc on 8 GPU workers once per seed and prints
// both strip-ownership rows, how many strips changed hands and each
// worker's count; with ppmDir set it also writes one image per run there.
func fig5(w io.Writer, mc apps.MandelConfig, seedA, seedB int64, ppmDir string) error {
	var runs [2]apps.MandelResult
	for i, seed := range []int64{seedA, seedB} {
		m := mc
		m.Seed = seed
		cfg := core.DefaultConfig()
		cfg.Nodes, cfg.CPUKernels, cfg.GPUs = 4, 1, 2
		var err error
		if runs[i], err = apps.MandelbrotDCGN(cfg, m); err != nil {
			return err
		}
	}
	a, b := runs[0], runs[1]

	fmt.Fprintf(w, "Figure 5: Mandelbrot strip ownership across %d GPU workers\n", a.Workers)
	fmt.Fprintf(w, "(%d strips; each column is one strip, the digit is the owning worker)\n\n", len(a.StripOwner))
	fmt.Fprintf(w, "run 1 (seed %d): %s\n", seedA, ownerBar(a.StripOwner))
	fmt.Fprintf(w, "run 2 (seed %d): %s\n", seedB, ownerBar(b.StripOwner))

	diff := 0
	for i := range a.StripOwner {
		if a.StripOwner[i] != b.StripOwner[i] {
			diff++
		}
	}
	fmt.Fprintf(w, "\n%d/%d strips changed hands between the runs — identical parameters,\n", diff, len(a.StripOwner))
	fmt.Fprintln(w, "different work distribution: network/device timing decides who gets what.")

	fmt.Fprintln(w, "\nstrips per worker:")
	counts := func(owner []int, workers int) []int {
		c := make([]int, workers)
		for _, o := range owner {
			c[o]++
		}
		return c
	}
	ca, cb := counts(a.StripOwner, a.Workers), counts(b.StripOwner, b.Workers)
	for k := 0; k < a.Workers; k++ {
		fmt.Fprintf(w, "  worker %d: run1 %-3d %s\n", k, ca[k], strings.Repeat("#", ca[k]))
		fmt.Fprintf(w, "           run2 %-3d %s\n", cb[k], strings.Repeat("#", cb[k]))
	}

	if ppmDir == "" {
		return nil
	}
	for i, res := range runs {
		path := filepath.Join(ppmDir, fmt.Sprintf("fig5-run%d.ppm", i+1))
		if err := writePPM(path, mc, res); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return nil
}

// ownerBar renders the strip owners as a row of digits.
func ownerBar(owner []int) string {
	var sb strings.Builder
	for _, w := range owner {
		sb.WriteByte(byte('0' + w%10))
	}
	return sb.String()
}

// workerPalette are the per-worker tints of the PPM rendering (Fig. 5's
// color-coding).
var workerPalette = [8][3]float64{
	{1.0, 0.35, 0.35}, {0.35, 1.0, 0.35}, {0.4, 0.55, 1.0}, {1.0, 1.0, 0.35},
	{1.0, 0.45, 1.0}, {0.35, 1.0, 1.0}, {1.0, 0.65, 0.3}, {0.75, 0.75, 0.75},
}

// writePPM renders the fractal with brightness from the iteration count
// and hue from the strip's owning worker — a direct analogue of Fig. 5.
func writePPM(path string, mc apps.MandelConfig, res apps.MandelResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "P6\n%d %d\n255\n", mc.Width, mc.Height); err != nil {
		return err
	}
	row := make([]byte, 3*mc.Width)
	for y := 0; y < mc.Height; y++ {
		strip := y / mc.StripRows
		tint := workerPalette[res.StripOwner[strip]%len(workerPalette)]
		for x := 0; x < mc.Width; x++ {
			it := float64(res.Image[y*mc.Width+x])
			v := 0.25 + 0.75*it/float64(mc.MaxIter)
			if int(it) >= mc.MaxIter {
				v = 0.08 // interior of the set stays dark
			}
			row[3*x+0] = byte(255 * v * tint[0])
			row[3*x+1] = byte(255 * v * tint[1])
			row[3*x+2] = byte(255 * v * tint[2])
		}
		if _, err := f.Write(row); err != nil {
			return err
		}
	}
	return nil
}
