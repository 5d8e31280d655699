package regulator

import (
	"math"
	"time"

	"odr/internal/core"
	"odr/internal/frame"
)

// IntMax's adaptation (§4.1): a window whose render rate runs more than
// gapThreshold FPS above the client rate shows a gap that is "still there",
// and each such window slows rendering to the client rate and by the factor
// slowdown more, never below minIntMaxFPS.
const (
	gapThreshold = 6
	slowdown     = 1.035
	minIntMaxFPS = 10
)

// Interval is the interval-based software regulation of §2/§4.1: the push
// half under core.RuleInterval, so each frame starts at the beginning of a
// regular interval (16.6 ms for a 60 FPS goal) on a grid anchored at time
// zero. It assumes frames fit in their interval; when one overruns, the lost
// time is never recovered, so the achieved FPS falls below the target
// (Fig. 5b). The proxy polls for frames on the same grid.
//
// With TargetFPS == 0 it runs in IntMax mode (§4.1): it starts unthrottled
// and, whenever it observes an FPS gap, lowers the clock's demand to bring the
// rendering rate down to the client rate. Because a gap re-appears with every
// processing-time spike and the demand is never raised again, the rate
// ratchets well below what the hardware could deliver.
type Interval struct {
	push
	adaptive bool
	fps      float64 // the clock's demand: the target, or IntMax's ratchet (+Inf before its first step)
}

// NewInterval returns an interval-based policy. targetFPS == 0 selects
// IntMax (adaptive maximize-FPS) mode.
func NewInterval(ctx *Ctx, targetFPS float64) *Interval {
	iv := &Interval{fps: targetFPS}
	if targetFPS <= 0 {
		iv.adaptive, iv.fps = true, math.Inf(1)
	}
	iv.push = newPush(ctx, core.RuleInterval, iv.fps)
	return iv
}

// AcquireForEncode implements Policy: take the newest rendered frame, then
// hold it until the proxy's next poll tick. The capture loop runs a
// TurboVNC-style timer on the renderer's grid, the multiples of the interval
// the clock's pacer derives from the demand; this is one of the injected
// delays that raise interval-based regulation's MtP latency (§4.2).
func (iv *Interval) AcquireForEncode(w core.Waiter) *frame.Frame {
	f := iv.push.AcquireForEncode(w)
	if period := time.Duration(float64(time.Second) / iv.fps); f != nil && period > 0 {
		w.Sleep(period - iv.ctx.Dom.Now()%period)
	}
	return f
}

// OnWindow implements Policy. In IntMax mode a persistent FPS gap lowers the
// clock's demand toward the client rate; the demand never rises again
// ("IntMax cannot re-adjust its rendering rate when a sudden increase of
// processing time passes", §4.1).
func (iv *Interval) OnWindow(renderFPS, clientFPS float64) {
	if !iv.adaptive {
		return
	}
	if fps := ratchet(iv.fps, renderFPS, clientFPS); fps != iv.fps {
		iv.fps = fps
		iv.clock.SetDemand(fps)
	}
}

// ratchet is IntMax's step on one window's rates: while the gap persists, the
// demand fps falls to the client rate and a notch below, never under
// minIntMaxFPS; it never rises.
func ratchet(fps, renderFPS, clientFPS float64) float64 {
	if clientFPS <= 0 || renderFPS-clientFPS <= gapThreshold {
		return fps
	}
	return math.Min(fps, math.Max(math.Min(fps, clientFPS)/slowdown, minIntMaxFPS))
}
