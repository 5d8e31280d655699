package regulator

import (
	"fmt"
	"time"

	"odr/internal/core"
	"odr/internal/frame"
)

// RVS is Remote VSync [49] (§2, §4.1): VSync extended across the network.
// The client displays frames on its vblank boundaries; after each displayed
// frame it measures the slack between the end of decoding and the next
// vblank and sends it to the cloud. The cloud releases the next frame's
// rendering only when this remote vblank feedback arrives, additionally
// delaying it by cc × slack — cc being the empirically tuned low-pass filter
// that keeps the stale (one network trip old) slack from over-delaying
// rendering.
//
// Because every render waits for feedback that is a full one-way trip stale,
// and because processing-time variation keeps breaking the alignment, the
// achieved FPS sits measurably below the refresh rate (54 on a 60 Hz display
// for InMind, §4.1) and below the pipeline's capability in RVSMax mode
// (76 vs 93 on a 240 Hz display).
//
// RVS is the push half behind a gate of its own: until core has a render rule
// for it, its RenderGate replaces the clock's Begin, and under RuleNoReg the
// clock's End leaves the never-begun clock alone.
type RVS struct {
	push
	label string

	period time.Duration // vblank period = 1/refresh
	cc     float64

	// Server-side feedback state: tokens released by arriving feedback
	// messages and the latest slack-derived delay.
	tokens    int
	tokenCap  int
	delay     time.Duration
	tokenCond core.Cond
	closed    bool

	// Client-side display state.
	lastVblankUsed time.Duration

	feedbackSent int64
}

// NewRVS returns a Remote VSync policy for a client display with the given
// refresh rate. cc <= 0 selects the default 0.35.
func NewRVS(ctx *Ctx, refreshHz float64, cc float64) *RVS {
	label := fmt.Sprintf("RVS%d", int(refreshHz))
	if refreshHz >= 200 {
		// The paper maximizes FPS by pairing RVS with a 240 Hz display.
		label = "RVSMax"
	}
	if cc <= 0 {
		// The paper tunes the low-pass filter per setup (§5.4); these are
		// the values our calibration found for 60 Hz and high-refresh
		// displays respectively.
		if refreshHz >= 200 {
			cc = 1.0
		} else {
			cc = 0.25
		}
	}
	// Feedback pipelining depth: how many renders may be in flight per
	// un-acknowledged vblank. Deeper pipelining recovers faster from
	// slipped vblanks on ordinary displays; high-refresh displays issue
	// feedback often enough that depth 2 suffices (part of the per-setup
	// tuning the paper describes).
	cap := 4
	if refreshHz >= 200 {
		cap = 2
	}
	return &RVS{
		push:      newPush(ctx, core.RuleNoReg, 0),
		label:     label,
		period:    time.Duration(float64(time.Second) / refreshHz),
		cc:        cc,
		tokens:    cap, // prime the pipeline: first frames render unguarded
		tokenCap:  cap,
		tokenCond: ctx.Dom.NewCond(),
	}
}

// Name implements Policy.
func (r *RVS) Name() string { return r.label }

// RenderGate implements Policy: wait for the remote vblank feedback token,
// then apply the cc-scaled slack delay. If no feedback arrives within three
// vblank periods (at least 50 ms — startup, loss, pipeline stall), rendering
// proceeds anyway — a liveness guard any real implementation needs.
func (r *RVS) RenderGate(w core.Waiter) {
	fallback := 3 * r.period
	if fallback < 50*time.Millisecond {
		fallback = 50 * time.Millisecond
	}
	mu := r.ctx.Dom.Locker()
	mu.Lock()
	deadline := r.ctx.Dom.Now() + fallback
	for r.tokens == 0 && !r.closed {
		remaining := deadline - r.ctx.Dom.Now()
		if remaining <= 0 {
			break
		}
		w.WaitTimeout(r.tokenCond, remaining)
	}
	if r.tokens > 0 {
		r.tokens--
	}
	d := r.delay
	mu.Unlock()
	if d > 0 {
		w.Sleep(d)
	}
}

// DisplayTime implements Policy: VSync display. The frame is shown at the
// next free vblank after its decode completes; if that slot was already
// claimed by a newer... (older frames decode in order, so "claimed" means a
// prior frame owns it), the frame is dropped. The displayed frame generates
// the feedback message: slack = vblank − decodeEnd travels back to the cloud
// over the network and releases the next render.
func (r *RVS) DisplayTime(f *frame.Frame, decodeEnd time.Duration) (time.Duration, bool) {
	n := decodeEnd / r.period
	vblank := (n + 1) * r.period
	if vblank <= r.lastVblankUsed {
		// This refresh already shows a frame; the extra frame is discarded
		// and no feedback is generated for it.
		r.ctx.drop(f)
		return 0, false
	}
	r.lastVblankUsed = vblank
	slack := vblank - decodeEnd
	d := time.Duration(r.cc * float64(slack))
	r.feedbackSent++
	r.ctx.Env.After(r.ctx.Link.PropDelay(), func() {
		mu := r.ctx.Dom.Locker()
		mu.Lock()
		r.delay = d
		if r.tokens < r.tokenCap {
			r.tokens++
		}
		r.tokenCond.Broadcast()
		mu.Unlock()
	})
	return vblank, true
}

// FeedbackSent returns the number of feedback messages generated.
func (r *RVS) FeedbackSent() int64 { return r.feedbackSent }

// Close implements Policy: it releases a renderer waiting for a token, then
// the push half's stages.
func (r *RVS) Close() {
	mu := r.ctx.Dom.Locker()
	mu.Lock()
	r.closed = true
	r.tokenCond.Broadcast()
	mu.Unlock()
	r.push.Close()
}
