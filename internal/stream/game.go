package stream

import "math"

// Game is the synthetic interactive 3D application the server renders: a
// procedurally animated scene (a plasma-style gradient with moving sprites)
// whose content advances with time and reacts visibly to user inputs. It
// stands in for the Pictor benchmarks in the real-time stack; the regulators
// only care that frames take real time to produce and change over time.
type Game struct {
	w, h int
	t    float64 // animation clock, advanced per frame
	// reaction is a decaying flash triggered by user input, making
	// input-to-frame causality visible (and testable) in pixels.
	reaction float64
	inputs   int
}

// NewGame returns a game rendering w×h RGBA frames.
func NewGame(w, h int) *Game {
	return &Game{w: w, h: h}
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
// "GPU rendering" of the real-time stack.
func (g *Game) Render(dst []byte) {
	if len(dst) != g.FrameBytes() {
		panic("stream: bad frame buffer size")
	}
	g.t += 0.05
	t := g.t
	flash := g.reaction
	g.reaction *= 0.8
	// Sprite position orbits the center.
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
