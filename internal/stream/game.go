package stream

import (
	"math"
	"time"

	"odr/internal/codec"
	"odr/internal/wpool"
)

// Game is the synthetic interactive 3D application the server renders: a
// procedurally animated scene (a plasma-style gradient with moving sprites)
// whose content advances with time and reacts visibly to user inputs. It
// stands in for the Pictor benchmarks in the real-time stack; the regulators
// only care that frames take real time to produce and change over time.
//
// Render is data-parallel like the GPU it stands in for: each row is a pure
// function of its coordinates and the frame's state, so rows render in
// bands of codec.DefaultTileRows across the shared worker pool, with the
// same bytes at any worker count.
type Game struct {
	w, h int
	t    float64 // animation clock, advanced per frame
	// reaction is a decaying flash triggered by user input, making
	// input-to-frame causality visible (and testable) in pixels.
	reaction float64
	inputs   int

	// Band state: the task is bound once so a frame allocates nothing, and
	// each band writes only its own rows and its own bandNanos slot.
	group     *wpool.Group
	bandTask  func(int)
	bandNanos []int64
	// The frame being rendered, set by Render before the band Map.
	dst    []byte
	cx, cy float64 // sprite centre
}

// NewGame returns a game rendering w×h RGBA frames.
func NewGame(w, h int) *Game {
	g := &Game{w: w, h: h, group: wpool.NewGroup(nil)}
	g.bandTask = g.renderBand
	g.bandNanos = make([]int64, (h+codec.DefaultTileRows-1)/codec.DefaultTileRows)
	return g
}

// Size returns the frame dimensions.
func (g *Game) Size() (w, h int) { return g.w, g.h }

// FrameBytes returns the raw frame size.
func (g *Game) FrameBytes() int { return g.w * g.h * 4 }

// OnInput registers a user input: the next frames flash brighter, so the
// responding frame is distinguishable from refresh frames.
func (g *Game) OnInput() {
	g.reaction = 1
	g.inputs++
}

// Inputs returns the number of inputs applied.
func (g *Game) Inputs() int { return g.inputs }

// Render draws the next frame into dst (len must be FrameBytes) and
// advances the animation. It performs real pixel work — this is the
// "GPU rendering" of the real-time stack. Not safe for concurrent calls.
func (g *Game) Render(dst []byte) {
	if len(dst) != g.FrameBytes() {
		panic("stream: bad frame buffer size")
	}
	g.t += 0.05
	// Sprite position orbits the center.
	g.cx = float64(g.w) * (0.5 + 0.3*math.Cos(g.t))
	g.cy = float64(g.h) * (0.5 + 0.3*math.Sin(1.3*g.t))
	g.dst = dst
	g.group.Map(0, len(g.bandNanos), g.bandTask)
	g.dst = nil
	g.reaction *= 0.8 // the bands read this frame's flash
}

// Busy returns the last Render's summed band time: the work the frame took
// across the pool's workers, which exceeds Render's wall time when bands
// ran in parallel. Energy is billed from it; latency is the wall time.
func (g *Game) Busy() time.Duration {
	var busy int64
	for _, ns := range g.bandNanos {
		busy += ns
	}
	return time.Duration(busy)
}

// renderBand draws band b's rows of the frame Render set up.
func (g *Game) renderBand(b int) {
	start := time.Now()
	y0 := b * codec.DefaultTileRows
	y1 := min(y0+codec.DefaultTileRows, g.h)
	t, flash, cx, cy := g.t, g.reaction, g.cx, g.cy
	i := y0 * g.w * 4
	dst := g.dst
	for y := y0; y < y1; y++ {
		fy := float64(y)
		for x := 0; x < g.w; x++ {
			fx := float64(x)
			v := math.Sin(fx*0.07+t) + math.Cos(fy*0.09-t*0.7)
			r := byte(128 + 80*v)
			gg := byte(128 + 80*math.Sin(v+t*0.5))
			b := byte(128 + 80*math.Cos(v-t*0.3))
			// Sprite: a bright disc.
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
	g.bandNanos[b] = time.Since(start).Nanoseconds()
}

func satAdd(a, b byte) byte {
	s := int(a) + int(b)
	if s > 255 {
		return 255
	}
	return byte(s)
}

// Brightness returns the mean luminance of an RGBA buffer; tests use it to
// detect the input flash in decoded frames.
func Brightness(pix []byte) float64 {
	if len(pix) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for i := 0; i+3 < len(pix); i += 4 {
		sum += 0.299*float64(pix[i]) + 0.587*float64(pix[i+1]) + 0.114*float64(pix[i+2])
		n++
	}
	return sum / float64(n)
}
