package regulator

import "math"

// ODRAuto extends ODR with automatic target selection — the knob the paper
// treats as orthogonal input ("prior research investigated the proper FPS
// target … they provide the FPS target for the regulation", §2). ODRAuto
// closes that loop: it starts at MaxTarget and, using the same windowed
// rate observations every policy receives, steps the render clock's demand
// down when the client persistently cannot keep up (bandwidth or decode
// bound) and back up when there is headroom. Because ODR's multi-buffers already
// absorb transient mismatch, the controller only needs to track the slow
// trend, so a simple hysteresis step controller suffices.
type ODRAuto struct {
	*ODR
	maxTarget float64
	minTarget float64
	target    float64

	// Hysteresis state: consecutive windows below/at target.
	lowStreak  int
	highStreak int
}

// NewODRAuto returns an ODR policy that auto-selects its FPS target in
// [minTarget, maxTarget]. minTarget <= 0 defaults to 20.
func NewODRAuto(ctx *Ctx, maxTarget, minTarget float64) *ODRAuto {
	if minTarget <= 0 {
		minTarget = 20
	}
	if maxTarget < minTarget {
		maxTarget = minTarget
	}
	return &ODRAuto{
		ODR:       NewODR(ctx, ODROptions{TargetFPS: maxTarget}),
		maxTarget: maxTarget,
		minTarget: minTarget,
		target:    maxTarget,
	}
}

// Target returns the current FPS target.
func (a *ODRAuto) Target() float64 { return a.target }

// OnWindow implements Policy: step the target down after three consecutive
// windows more than 7% below it, and back up after ten consecutive windows
// within 3% of it (slow up, fast down — the asymmetry users actually
// prefer: a stable lower rate beats oscillation).
func (a *ODRAuto) OnWindow(renderFPS, clientFPS float64) {
	if clientFPS <= 0 {
		return
	}
	switch {
	case clientFPS < a.target*0.93:
		a.lowStreak++
		a.highStreak = 0
	case clientFPS >= a.target*0.97:
		a.highStreak++
		a.lowStreak = 0
	default:
		a.lowStreak = 0
		a.highStreak = 0
	}
	if a.lowStreak >= 3 {
		a.lowStreak = 0
		a.setTarget(math.Max(a.minTarget, a.target*0.85))
	}
	if a.highStreak >= 10 && a.target < a.maxTarget {
		a.highStreak = 0
		a.setTarget(math.Min(a.maxTarget, a.target*1.08))
	}
}

func (a *ODRAuto) setTarget(t float64) {
	if t == a.target {
		return
	}
	a.target = t
	// The renderer adopts the new demand at its next RenderGate.
	a.clock.SetDemand(t)
}
