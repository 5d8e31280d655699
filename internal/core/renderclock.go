package core

import (
	"math"
	"sync/atomic"
	"time"
)

// RenderRule is the render half of a regulation policy: how a RenderClock
// spaces the frames it starts while someone is watching. There is one rule
// per policy the paper measures, ODR and its three baselines; under every rule
// the clock parks with no demand and reports false once stopped.
type RenderRule int

const (
	// RuleODR is OnDemand Rendering (the zero value): paced slots, plus one
	// extra frame per input that leaves the slots where they were.
	RuleODR RenderRule = iota
	// RuleInterval is interval-based regulation: frames start on a fixed grid
	// at the demanded rate, the multiples of the interval from domain time
	// zero. A frame that runs past a tick loses it, and an input waits for the
	// next tick.
	RuleInterval
	// RuleNoReg never waits: the next frame starts as the last one ends.
	RuleNoReg
	// RuleRVS is Remote VSync: a frame starts on a token that the client's
	// vblank feedback returns (Feedback) — at most 4 outstanding, 2 at a
	// demand of 200 Hz and more, primed full for each new demand — or, with
	// none after max(3 intervals, 50 ms), without one; then it waits out the
	// delay the latest feedback set. Inputs neither wake nor shorten either
	// wait.
	RuleRVS
)

// rvsMinFallback is the shortest RuleRVS wait for a token before a frame
// starts without one.
const rvsMinFallback = 50 * time.Millisecond

// RenderClock decides when a shared renderer starts its next frame. Under
// RuleODR it joins the Pacer (Algorithm 1) and the InputBox (PriorityFrame)
// under three rules:
//
//   - Priority frames keep the cadence. Regular frames own absolute slots:
//     the pacer is charged from the slot's due time, not from the moment the
//     renderer got going, so a late wake-up shortens the next delay instead of
//     stretching the period (and a wake-up later than a whole interval skips
//     the slots it missed rather than replaying them). A frame that starts
//     before its slot because an input cut the delay is an extra frame outside
//     the pacer's budget; the slot stays where it was and the rest of the
//     delay is served — still interruptibly — after it. Rendered rate =
//     target + extra frames.
//   - No viewer, no work. With no demand the renderer parks until SetDemand or
//     Stop wakes it.
//   - The fastest viewer sets the rate. The target is whatever SetDemand last
//     published; the renderer adopts it at its next Begin.
//
// RuleInterval, RuleNoReg and RuleRVS keep the last two and replace the first
// (see RenderRule).
//
// Begin and End belong to the rendering thread of execution, which alone
// touches the Pacer; SetDemand, Feedback and Stop may be called from anywhere.
type RenderClock struct {
	dom  Domain
	box  *InputBox
	pace *Pacer
	rule RenderRule

	demand  atomic.Uint64 // math.Float64bits of the wanted FPS; 0 = park
	stopped atomic.Bool

	// Renderer-owned.
	target float64       // what the pacer is set to; 0 while parked
	due    time.Duration // the current slot
	extra  bool          // the frame in progress started before its slot

	// RuleRVS state, guarded by the domain lock: the feedback tokens, their
	// cap, the delay after each token, and the cond Feedback and Stop
	// broadcast (not the InputBox's, so inputs do not wake a token wait).
	tokens, tokenCap int
	delay            time.Duration
	fed              Cond

	// OnTarget, when non-nil, observes every target the renderer adopts (0 =
	// about to park). It runs on the rendering thread and must not block.
	OnTarget func(fps float64)
}

// NewRenderClock returns a parked clock following rule; pace must be the
// renderer's own.
func NewRenderClock(dom Domain, box *InputBox, pace *Pacer, rule RenderRule) *RenderClock {
	return &RenderClock{dom: dom, box: box, pace: pace, rule: rule, fed: dom.NewCond()}
}

// SetDemand publishes the frame rate the audience can consume (0 = nobody is
// watching) and wakes the renderer if that changed it.
func (c *RenderClock) SetDemand(fps float64) {
	if c.demand.Swap(math.Float64bits(fps)) != math.Float64bits(fps) {
		c.box.Interrupt()
	}
}

// Stop makes the current and every later Begin report false.
func (c *RenderClock) Stop() {
	c.stopped.Store(true)
	c.box.Interrupt()
	mu := c.dom.Locker()
	mu.Lock()
	c.fed.Broadcast()
	mu.Unlock()
}

// Feedback is one RuleRVS feedback message arriving: it returns a token to
// the renderer, up to the cap, and sets the delay Begin serves after each
// token from now on.
func (c *RenderClock) Feedback(delay time.Duration) {
	mu := c.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	c.delay = delay
	if c.tokens < c.tokenCap {
		c.tokens++
	}
	c.fed.Broadcast()
}

// Begin blocks until the next frame should start and reports false once the
// clock is stopped. Under RuleODR the frame is the slot's own when it starts
// at or after the slot's due time — even if it carries an input — and an
// extra frame when a pending input started it early.
func (c *RenderClock) Begin(w Waiter) bool {
	c.extra = false
	for !c.stopped.Load() {
		fps := math.Float64frombits(c.demand.Load())
		if fps != c.target {
			// A new audience starts a new cadence: first slot now, or under
			// RuleInterval the grid's next tick.
			c.target = fps
			c.pace.SetTargetFPS(fps)
			c.due = c.dom.Now()
			if iv := c.pace.Interval(); c.rule == RuleInterval && iv > 0 {
				c.due = (c.due + iv - 1) / iv * iv
			}
			if c.rule == RuleRVS {
				// Prime the feedback pipeline: how many frames may start per
				// unacknowledged vblank. Deeper pipelining recovers faster
				// from slipped vblanks on ordinary displays; high-refresh
				// displays feed back often enough that two suffice (part of
				// the per-setup tuning the paper describes).
				n := 4
				if fps >= 200 {
					n = 2
				}
				mu := c.dom.Locker()
				mu.Lock()
				c.tokens, c.tokenCap = n, n
				mu.Unlock()
			}
			if c.OnTarget != nil {
				c.OnTarget(fps)
			}
		}
		if fps == 0 {
			c.box.Park(w, func() bool { return c.demand.Load() == 0 && !c.stopped.Load() })
			continue
		}
		iv := c.pace.Interval()
		if c.rule == RuleRVS {
			return c.awaitToken(w, iv)
		}
		if c.rule == RuleNoReg || iv == 0 {
			return true // End ignores such frames
		}
		late := c.dom.Now() - c.due
		if late < 0 {
			if c.rule == RuleInterval {
				// Inputs wait for the tick; only Stop or a new demand cuts
				// the wait short.
				c.box.Sleep(w, -late)
			} else if c.box.DelayInterruptible(w, -late) && c.dom.Now() < c.due {
				c.extra = true
				return true
			}
			// The slot came due (perhaps with an input landing on it), or an
			// interrupt asked for a second look.
			continue
		}
		if c.rule == RuleODR {
			// Slots that came and went while the renderer could not run are
			// gone — replayed back to back they would only displace each other
			// downstream. The frame is the newest due slot's, late by less
			// than an interval, and that lateness is what End charges.
			c.due += late / iv * iv
		}
		return true
	}
	return false
}

// awaitToken is Begin under RuleRVS: wait for a feedback token, then serve
// the delay the latest feedback set. With no token after three intervals (at
// least 50 ms: startup, loss, a pipeline stall) the frame starts anyway, a
// liveness guard any real implementation needs.
func (c *RenderClock) awaitToken(w Waiter, iv time.Duration) bool {
	mu := c.dom.Locker()
	mu.Lock()
	deadline := c.dom.Now() + max(3*iv, rvsMinFallback)
	for c.tokens == 0 && !c.stopped.Load() && c.dom.Now() < deadline {
		w.WaitTimeout(c.fed, deadline-c.dom.Now())
	}
	if c.tokens > 0 {
		c.tokens--
	}
	d := c.delay
	mu.Unlock()
	if c.stopped.Load() {
		return false
	}
	if d > 0 {
		w.Sleep(d)
	}
	return true
}

// End closes the frame Begin opened. Under RuleODR a slot's frame is charged
// to the pacer from the slot's due time to now, and the delay the pacer
// grants places the next slot; an extra frame leaves both alone. Under
// RuleInterval the next slot is the next tick that has not passed. Under
// RuleNoReg and RuleRVS it does nothing.
func (c *RenderClock) End() {
	iv := c.pace.Interval()
	if c.rule == RuleNoReg || c.rule == RuleRVS || iv == 0 {
		return
	}
	now := c.dom.Now()
	if c.rule == RuleInterval {
		c.due += iv
		if late := now - c.due; late > 0 {
			c.due += (late + iv - 1) / iv * iv
		}
		return
	}
	if c.extra {
		return
	}
	c.due = now + c.pace.PaceAfterObserved(c.due, now)
}

// Extra reports whether the frame Begin last opened is an extra frame: one a
// pending input started before its slot under RuleODR. Like Begin and End it
// belongs to the rendering thread of execution.
func (c *RenderClock) Extra() bool { return c.extra }
