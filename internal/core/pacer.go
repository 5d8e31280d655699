package core

import "time"

// Pacer implements ODR's FPS regulator (Algorithm 1, §5.2). It tracks an
// accumulated delay budget:
//
//	acc_delay += interval - processing_time
//
// After each frame, if acc_delay is positive the caller should sleep for it
// (the stage is running ahead of the FPS target); if it is negative the
// deficit carries over and subsequent frames run back-to-back until the
// target rate is restored. This "acceleration" is the key difference from
// interval-based regulation, which can only delay and therefore loses frames
// permanently whenever a frame overruns its interval.
//
// A Pacer with TargetFPS 0 never requests a delay (the QoS goal "maximize
// FPS": ODRMax relies purely on multi-buffer backpressure).
//
// Pacer is not internally locked: each pacer belongs to one thread of
// execution — the renderer of a RenderClock (ODR's, in the simulator and in
// the hub alike) or a hub session's sender.
type Pacer struct {
	interval  time.Duration
	accDelay  time.Duration
	delayOnly bool // ablation: clamp acc_delay at >= 0 (interval-based behaviour)
	maxCredit time.Duration

	frames int64
	slept  time.Duration

	// OnDelay, when non-nil, observes every positive pacing delay before
	// PaceAfterObserved returns it: end is the frame's processing end and d
	// the requested sleep. It runs on the pacing stage's thread of
	// execution and must not block; the observability layer uses it to emit
	// pacer-delay trace spans without the pacer knowing about tracing.
	// Plain PaceAfter ignores it.
	OnDelay func(end, d time.Duration)
}

// NewPacer returns a pacer targeting targetFPS (0 disables pacing).
func NewPacer(targetFPS float64) *Pacer {
	p := &Pacer{}
	if targetFPS > 0 {
		p.interval = time.Duration(float64(time.Second) / targetFPS)
		// Bound the acceleration credit to one second's worth of frames so
		// that a long stall does not cause an unbounded burst afterwards
		// (the paper's goal is meeting the target "for each small period").
		p.maxCredit = -time.Second
	}
	return p
}

// Interval returns the expected per-frame interval (0 when unregulated).
func (p *Pacer) Interval() time.Duration { return p.interval }

// SetDelayOnly switches the pacer to delay-only mode, the ablation that
// reproduces interval-based regulation's behaviour inside ODR's pipeline.
func (p *Pacer) SetDelayOnly(v bool) { p.delayOnly = v }

// PaceAfter records that a frame's processing spanned [start, end] and
// returns the delay the caller should apply before the next frame (lines
// 10-16 of Algorithm 1). The returned delay is zero while the stage is
// catching up.
func (p *Pacer) PaceAfter(start, end time.Duration) time.Duration {
	p.frames++
	if p.interval == 0 {
		return 0
	}
	procTime := end - start
	p.accDelay += p.interval - procTime
	if p.accDelay < p.maxCredit {
		p.accDelay = p.maxCredit
	}
	if p.delayOnly && p.accDelay < 0 {
		p.accDelay = 0
	}
	if p.accDelay > 0 {
		d := p.accDelay
		p.accDelay = 0
		p.slept += d
		return d
	}
	return 0
}

// PaceAfterObserved is PaceAfter plus the OnDelay observer hook. RenderClock
// and the hub's per-viewer send path call this variant so that plain
// PaceAfter stays branch-free for callers that never attach observers.
func (p *Pacer) PaceAfterObserved(start, end time.Duration) time.Duration {
	d := p.PaceAfter(start, end)
	if d > 0 && p.OnDelay != nil {
		p.OnDelay(end, d)
	}
	return d
}

// AccDelay exposes the current budget for tests and introspection.
func (p *Pacer) AccDelay() time.Duration { return p.accDelay }

// Frames returns the number of frames paced.
func (p *Pacer) Frames() int64 { return p.frames }

// TotalSlept returns the cumulative requested delay.
func (p *Pacer) TotalSlept() time.Duration { return p.slept }

// SetTargetFPS changes the target at runtime (0 disables pacing).
func (p *Pacer) SetTargetFPS(fps float64) {
	if fps > 0 {
		p.interval = time.Duration(float64(time.Second) / fps)
		p.maxCredit = -time.Second
	} else {
		p.interval = 0
		p.maxCredit = 0
	}
	p.accDelay = 0
}
