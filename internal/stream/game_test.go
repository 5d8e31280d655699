package stream

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// refGame is the serial plasma loop Game.Render ran before it rendered in
// row bands on the worker pool, kept verbatim as the reference the banded
// render must match byte for byte.
type refGame struct {
	w, h     int
	t        float64
	reaction float64
}

func (g *refGame) onInput() { g.reaction = 1 }

func (g *refGame) render(dst []byte) {
	g.t += 0.05
	t := g.t
	flash := g.reaction
	g.reaction *= 0.8
	cx := float64(g.w) * (0.5 + 0.3*math.Cos(t))
	cy := float64(g.h) * (0.5 + 0.3*math.Sin(1.3*t))
	i := 0
	for y := 0; y < g.h; y++ {
		fy := float64(y)
		for x := 0; x < g.w; x++ {
			fx := float64(x)
			v := math.Sin(fx*0.07+t) + math.Cos(fy*0.09-t*0.7)
			r := byte(128 + 80*v)
			gg := byte(128 + 80*math.Sin(v+t*0.5))
			b := byte(128 + 80*math.Cos(v-t*0.3))
			dx, dy := fx-cx, fy-cy
			if dx*dx+dy*dy < 25 {
				r, gg, b = 255, 255, 220
			}
			if flash > 0.05 {
				r = satAdd(r, byte(90*flash))
				gg = satAdd(gg, byte(90*flash))
				b = satAdd(b, byte(90*flash))
			}
			dst[i] = r
			dst[i+1] = gg
			dst[i+2] = b
			dst[i+3] = 255
			i += 4
		}
	}
}

// TestGameRenderMatchesSerialReference pins the banded render: every frame
// of a run whose inputs fire the flash is byte-identical to the serial
// loop, at sizes whose last band is full (320×180 is not: 180 = 11×16+4),
// short, or the only one, and a frame allocates nothing.
func TestGameRenderMatchesSerialReference(t *testing.T) {
	const frames = 40
	for _, sz := range []struct{ w, h int }{{320, 180}, {128, 72}, {64, 36}, {24, 17}, {1, 1}} {
		t.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(t *testing.T) {
			g := NewGame(sz.w, sz.h)
			ref := &refGame{w: sz.w, h: sz.h}
			got := make([]byte, g.FrameBytes())
			want := make([]byte, g.FrameBytes())
			flashes := 0
			for i := 0; i < frames; i++ {
				if i%9 == 4 {
					g.OnInput()
					ref.onInput()
				}
				if ref.reaction > 0.05 {
					flashes++
				}
				g.Render(got)
				ref.render(want)
				if !bytes.Equal(got, want) {
					t.Fatalf("frame %d differs from the serial render", i)
				}
				if g.Busy() <= 0 {
					t.Fatalf("frame %d: Busy = %v, want the bands' summed time", i, g.Busy())
				}
			}
			if flashes == 0 {
				t.Fatal("no frame rendered a flash")
			}
			if allocs := testing.AllocsPerRun(20, func() { g.Render(got) }); allocs != 0 {
				t.Errorf("Render allocates %.1f objects per frame, want 0", allocs)
			}
		})
	}
}
