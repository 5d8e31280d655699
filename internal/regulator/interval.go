package regulator

import (
	"fmt"
	"math"
	"time"

	"odr/internal/core"
	"odr/internal/frame"
)

// Interval is the interval-based software regulation of §2/§4.1: frame
// rendering is delayed so that each frame starts at the beginning of a
// regular interval (16.6 ms for a 60 FPS goal). It assumes frames fit in
// their interval; when one overruns, the lost time is never recovered, so
// the achieved FPS falls below the target (Fig. 5b).
//
// With TargetFPS == 0 it runs in IntMax mode (§4.1): it starts unthrottled
// and, whenever it observes an FPS gap, lengthens the interval to bring the
// rendering rate down to the client rate. Because a gap re-appears with
// every processing-time spike and the interval is never shortened again, the
// rate ratchets well below what the hardware could deliver.
type Interval struct {
	ctx    *Ctx
	label  string
	box    *mailbox
	sb     *sendBuf
	closed bool

	interval time.Duration // current render interval (0 = unthrottled)
	nextTick time.Duration

	adaptive bool
	// Adaptation parameters for IntMax.
	gapThreshold float64 // FPS gap considered "still there"
	slowdown     float64 // multiplicative interval increase per violation

	// nextPoll aligns the proxy's framebuffer grab to the regulation grid
	// (TurboVNC-style timer polling); this is one of the injected delays
	// that raise interval-based regulation's MtP latency (§4.2).
	nextPoll time.Duration
}

// NewInterval returns an interval-based policy. targetFPS == 0 selects
// IntMax (adaptive maximize-FPS) mode.
func NewInterval(ctx *Ctx, targetFPS float64) *Interval {
	iv := &Interval{
		ctx:          ctx,
		box:          newMailbox(ctx),
		sb:           newSendBuf(ctx),
		gapThreshold: 6,
		slowdown:     1.035,
	}
	if targetFPS > 0 {
		iv.interval = time.Duration(float64(time.Second) / targetFPS)
		iv.label = fmt.Sprintf("Int%d", int(targetFPS))
	} else {
		iv.adaptive = true
		iv.label = "IntMax"
	}
	return iv
}

// Name implements Policy.
func (iv *Interval) Name() string { return iv.label }

// RenderGate implements Policy: sleep until the next interval boundary.
func (iv *Interval) RenderGate(w core.Waiter) {
	if iv.interval <= 0 {
		return
	}
	now := iv.ctx.Dom.Now()
	if iv.nextTick <= now {
		// Overrun: skip to the next boundary on the original grid; the
		// missed intervals are lost (this is the §4.1 pathology).
		intervals := (now-iv.nextTick)/iv.interval + 1
		iv.nextTick += intervals * iv.interval
	}
	w.Sleep(iv.nextTick - now)
	iv.nextTick += iv.interval
}

// SubmitRendered implements Policy (latest-wins, like all in-app delays).
func (iv *Interval) SubmitRendered(_ core.Waiter, f *frame.Frame) { iv.box.putLatest(f) }

// AcquireForEncode implements Policy: take the newest rendered frame, then
// hold it until the next proxy poll tick (the proxy's capture loop runs on
// the same fixed-interval timer discipline as the renderer).
func (iv *Interval) AcquireForEncode(w core.Waiter) *frame.Frame {
	f := iv.box.take(w)
	if f == nil || iv.interval <= 0 {
		return f
	}
	now := iv.ctx.Dom.Now()
	if iv.nextPoll <= now {
		intervals := (now-iv.nextPoll)/iv.interval + 1
		iv.nextPoll += intervals * iv.interval
	}
	w.Sleep(iv.nextPoll - now)
	iv.nextPoll += iv.interval
	return f
}

// SubmitEncoded implements Policy: push, no proxy-side pacing.
func (iv *Interval) SubmitEncoded(_ core.Waiter, f *frame.Frame) { iv.sb.push(f) }

// AcquireForSend implements Policy.
func (iv *Interval) AcquireForSend(w core.Waiter) *frame.Frame { return iv.sb.pop(w) }

// DoneSend implements Policy.
func (iv *Interval) DoneSend(*frame.Frame) {}

// DisplayTime implements Policy.
func (iv *Interval) DisplayTime(_ *frame.Frame, decodeEnd time.Duration) (time.Duration, bool) {
	return decodeEnd, true
}

// OnWindow implements Policy. In IntMax mode, a persistent FPS gap slows
// rendering down toward the client rate; the interval never shrinks again
// ("IntMax cannot re-adjust its rendering rate when a sudden increase of
// processing time passes", §4.1).
func (iv *Interval) OnWindow(renderFPS, clientFPS float64) {
	if !iv.adaptive || clientFPS <= 0 {
		return
	}
	gap := renderFPS - clientFPS
	if gap <= iv.gapThreshold {
		return
	}
	// Bring the rate down to the observed client rate, then a notch more
	// each time the gap persists.
	clientIv := time.Duration(float64(time.Second) / clientFPS)
	next := iv.interval
	if next < clientIv {
		next = clientIv
	}
	next = time.Duration(float64(next) * iv.slowdown)
	// Do not ratchet into absurdity (floor at 10 FPS).
	if next > time.Second/10 {
		next = time.Second / 10
	}
	if next > iv.interval {
		iv.interval = next
	}
}

// SendBacklog implements Policy.
func (iv *Interval) SendBacklog() int { return iv.sb.depthBytes() }

// CurrentIntervalMs exposes the adaptive interval for diagnostics.
func (iv *Interval) CurrentIntervalMs() float64 {
	return float64(iv.interval) / float64(time.Millisecond)
}

// TargetFPS returns the current effective FPS ceiling (∞ while unthrottled).
func (iv *Interval) TargetFPS() float64 {
	if iv.interval == 0 {
		return math.Inf(1)
	}
	return float64(time.Second) / float64(iv.interval)
}

// Close implements Policy.
func (iv *Interval) Close() {
	iv.box.close()
	iv.sb.close()
}

// MaxBacklogBytes implements MaxBacklogger.
func (iv *Interval) MaxBacklogBytes() int { return iv.sb.maxBytes() }
