package regulator

import (
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
// RVS is the push half under core.RuleRVS at the refresh rate: the render
// clock holds each frame for a feedback token and the delay that came with
// it, and DisplayTime feeds the clock one link delay after each displayed
// frame.
type RVS struct {
	push

	period time.Duration // vblank period = 1/refresh
	cc     float64

	// Client-side display state.
	lastVblankUsed time.Duration

	feedbackSent int64
}

// NewRVS returns a Remote VSync policy for a client display with the given
// refresh rate. cc <= 0 selects the calibrated default: 0.25 below 200 Hz,
// 1.0 at and above.
func NewRVS(ctx *Ctx, refreshHz float64, cc float64) *RVS {
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
	return &RVS{
		push:   newPush(ctx, core.RuleRVS, refreshHz),
		period: time.Duration(float64(time.Second) / refreshHz),
		cc:     cc,
	}
}

// DisplayTime implements Policy: VSync display. The frame is shown at the
// next free vblank after its decode completes; if a prior frame already owns
// that vblank (frames decode in order), the frame is dropped. The displayed
// frame generates the feedback message: slack = vblank − decodeEnd travels
// back to the cloud over the network and releases the next render, delayed
// by cc × slack.
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
	d := time.Duration(r.cc * float64(vblank-decodeEnd))
	r.feedbackSent++
	r.ctx.Env.After(r.ctx.Link.PropDelay(), func() { r.clock.Feedback(d) })
	return vblank, true
}

// FeedbackSent returns the number of feedback messages generated.
func (r *RVS) FeedbackSent() int64 { return r.feedbackSent }
