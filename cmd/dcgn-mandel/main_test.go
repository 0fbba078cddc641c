package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcgn/internal/apps"
)

// TestFig5 runs the command's whole path at a small image size: both
// ownership rows name one of the 8 workers for every strip, each worker's
// bar in a run counts the strips its digit owns in that run's row, and each
// PPM has its header and one RGB triple per pixel.
func TestFig5(t *testing.T) {
	mc := apps.DefaultMandelConfig()
	mc.Width, mc.Height, mc.MaxIter, mc.StripRows = 96, 64, 64, 4
	mc.JitterFrac = 0.25
	dir := t.TempDir()
	var out bytes.Buffer
	if err := fig5(&out, mc, 1, 2, dir); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	strips := mc.Height / mc.StripRows
	for run := 1; run <= 2; run++ {
		prefix := fmt.Sprintf("run %d (seed %d): ", run, run)
		i := strings.Index(text, prefix)
		if i < 0 {
			t.Fatalf("no %q row in:\n%s", prefix, text)
		}
		bar := strings.SplitN(text[i+len(prefix):], "\n", 2)[0]
		if len(bar) != strips || strings.Trim(bar, "01234567") != "" {
			t.Errorf("run %d: owner row %q, want %d digits 0-7", run, bar, strips)
		}
		k := 0
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, fmt.Sprintf("run%d ", run)) {
				if got, want := strings.Count(line, "#"), strings.Count(bar, fmt.Sprint(k)); got != want {
					t.Errorf("run %d worker %d: %d strips counted, %d in the owner row", run, k, got, want)
				}
				k++
			}
		}
		if k != 8 {
			t.Errorf("run %d: %d per-worker lines, want 8", run, k)
		}
		img, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("fig5-run%d.ppm", run)))
		if err != nil {
			t.Fatal(err)
		}
		header := fmt.Sprintf("P6\n%d %d\n255\n", mc.Width, mc.Height)
		if !bytes.HasPrefix(img, []byte(header)) || len(img) != len(header)+3*mc.Width*mc.Height {
			t.Errorf("run %d: %d-byte PPM, want header %q and %d pixels", run, len(img), header, mc.Width*mc.Height)
		}
	}
}
