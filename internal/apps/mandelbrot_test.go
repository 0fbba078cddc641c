package apps

import (
	"fmt"
	"testing"

	"dcgn/internal/gas"
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

// TestMandelStripExact: skipping the main cardioid and the period-2 bulb,
// pairing orbits and mirroring conjugate rows change no pixel and no
// iteration total — so no image and no charged virtual time — at any depth
// or resolution, strip by strip and over the whole image as the single-GPU
// run and MandelReference compute it. 1024 and 2048 rows have an exact dy,
// so every row below the axis mirrors one above; at 777 rows the
// bit-exactness guard decides; 1023 pixels leave an odd one out.
func TestMandelStripExact(t *testing.T) {
	for _, maxIter := range []int{1, 16, 256, 1000, 5000} {
		for _, wh := range [][2]int{{1024, 1024}, {2048, 2048}, {333, 777}, {1023, 1024}} {
			mc := DefaultMandelConfig()
			mc.MaxIter, mc.Width, mc.Height = maxIter, wh[0], wh[1]
			t.Run(fmt.Sprintf("%dx%d/%d", mc.Width, mc.Height, maxIter), func(t *testing.T) {
				t.Parallel()
				want, wantTotal := naiveMandel(mc)
				check := func(how string, img []uint16) {
					t.Helper()
					for i, w := range want {
						if img[i] != w {
							t.Fatalf("%s: pixel (%d, %d): %d iterations, want %d", how, i%mc.Width, i/mc.Width, img[i], w)
						}
					}
				}
				out := make([]byte, 2*mc.Width*mc.Height)
				img := make([]uint16, len(want))
				var total int64
				for y0 := 0; y0 < mc.Height; y0 += mc.StripRows {
					rows := min(mc.StripRows, mc.Height-y0)
					total += mandelStrip(mc, y0, rows, out[2*y0*mc.Width:])
				}
				if total != wantTotal {
					t.Errorf("strips: iteration total %d, want %d", total, wantTotal)
				}
				decodeCounts(img, out)
				check("strips", img)
				if total := mandelStrip(mc, 0, mc.Height, out); total != wantTotal {
					t.Errorf("image: iteration total %d, want %d", total, wantTotal)
				}
				decodeCounts(img, out)
				check("image", img)
				check("MandelReference", MandelReference(mc))
				res, err := MandelbrotSingleGPU(gas.DefaultConfig(), mc)
				if err != nil {
					t.Fatal(err)
				}
				check("MandelbrotSingleGPU", res.Image)
			})
		}
	}
}

// BenchmarkMandelStrip: the Mandelbrot kernel over the default image,
// the host cost of every Mandelbrot cell — strip by strip as the DCGN and
// GAS workers call it, and in one call as the single-GPU run does.
func BenchmarkMandelStrip(b *testing.B) {
	mc := DefaultMandelConfig()
	out := make([]byte, 2*mc.Width*mc.Height)
	b.Run("strips", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for y0 := 0; y0 < mc.Height; y0 += mc.StripRows {
				mandelStrip(mc, y0, mc.StripRows, out[2*y0*mc.Width:])
			}
		}
	})
	b.Run("image", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mandelStrip(mc, 0, mc.Height, out)
		}
	})
}
