package apps

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// naiveMandel runs the escape loop on every pixel, with no shortcut: the
// reference mandelStrip's counts and total must match bit for bit.
func naiveMandel(mc MandelConfig) ([]uint16, int64) {
	const xMin, xMax, yMin, yMax = -2.5, 1.0, -1.25, 1.25
	dx := (xMax - xMin) / float64(mc.Width)
	dy := (yMax - yMin) / float64(mc.Height)
	img := make([]uint16, mc.Width*mc.Height)
	var total int64
	for y := 0; y < mc.Height; y++ {
		cy := yMin + float64(y)*dy
		for x := 0; x < mc.Width; x++ {
			cx := xMin + float64(x)*dx
			var zx, zy float64
			iter := 0
			for ; iter < mc.MaxIter; iter++ {
				zx2, zy2 := zx*zx, zy*zy
				if zx2+zy2 > 4 {
					break
				}
				zx, zy = zx2-zy2+cx, 2*zx*zy+cy
			}
			img[y*mc.Width+x] = uint16(iter)
			total += int64(iter) + 1
		}
	}
	return img, total
}

// TestMandelStripExact: skipping the main cardioid and the period-2 bulb
// changes no pixel and no iteration total — so no image and no charged
// virtual time — at any depth or resolution, strip by strip.
func TestMandelStripExact(t *testing.T) {
	for _, maxIter := range []int{1, 16, 256, 1000, 5000} {
		for _, wh := range [][2]int{{1024, 1024}, {2048, 2048}, {333, 777}} {
			mc := DefaultMandelConfig()
			mc.MaxIter, mc.Width, mc.Height = maxIter, wh[0], wh[1]
			t.Run(fmt.Sprintf("%dx%d/%d", mc.Width, mc.Height, maxIter), func(t *testing.T) {
				t.Parallel()
				want, wantTotal := naiveMandel(mc)
				out := make([]byte, 2*mc.Width*mc.Height)
				var total int64
				for y0 := 0; y0 < mc.Height; y0 += mc.StripRows {
					rows := min(mc.StripRows, mc.Height-y0)
					total += mandelStrip(mc, y0, rows, out[2*y0*mc.Width:])
				}
				if total != wantTotal {
					t.Errorf("iteration total %d, want %d", total, wantTotal)
				}
				for i, w := range want {
					if got := binary.LittleEndian.Uint16(out[2*i:]); got != w {
						t.Fatalf("pixel (%d, %d): %d iterations, want %d", i%mc.Width, i/mc.Width, got, w)
					}
				}
			})
		}
	}
}

// BenchmarkMandelStrip: the Mandelbrot kernel over the default image, the
// host cost of every Mandelbrot cell.
func BenchmarkMandelStrip(b *testing.B) {
	mc := DefaultMandelConfig()
	out := make([]byte, 2*mc.Width*mc.Height)
	for i := 0; i < b.N; i++ {
		mandelStrip(mc, 0, mc.Height, out)
	}
}
