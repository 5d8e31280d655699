package regulator

import (
	"math"
	"time"

	"odr/internal/core"
	"odr/internal/frame"
)

// ODROptions selects the ODR variant.
type ODROptions struct {
	// TargetFPS is the QoS goal; 0 means maximize FPS (ODRMax), in which
	// case the render clock never delays and multi-buffer backpressure alone
	// synchronizes the pipeline to its bottleneck rate.
	TargetFPS float64
	// DisablePriority turns PriorityFrame off (the Table 2 "ODRMax-noPri"
	// configuration).
	DisablePriority bool
	// DelayOnly clamps the pacer's budget at zero — the ablation that
	// keeps ODR's buffers but degrades Algorithm 1 to interval-based
	// delay-only behaviour.
	DelayOnly bool
	// DisableMulBuf2 replaces Mul-Buf2 with the push policies' tail-drop
	// send buffer — the ablation isolating the backpressure mechanism that
	// prevents network-queue congestion.
	DisableMulBuf2 bool
}

// ODR is OnDemand Rendering (§5): Mul-Buf1 between application and proxy,
// Mul-Buf2 between proxy and network, and a core.RenderClock under RuleODR
// that decides when the renderer starts each frame — the Algorithm 1 pacer
// charged from absolute slots, plus PriorityFrame's extra frame per input.
// It is the same clock, over the same Pacer and InputBox, that the stream
// hub renders by, so the simulator and the real stack run one ODR.
type ODR struct {
	ctx  *Ctx
	opts ODROptions

	buf1  *core.MultiBuffer
	buf2  *core.MultiBuffer
	sb    *sendBuf // only with DisableMulBuf2
	pacer *core.Pacer
	clock *core.RenderClock
}

// NewODR returns an ODR policy with the given options.
func NewODR(ctx *Ctx, opts ODROptions) *ODR {
	o := &ODR{
		ctx:   ctx,
		opts:  opts,
		buf1:  core.NewMultiBuffer(ctx.Dom),
		buf2:  core.NewMultiBuffer(ctx.Dom),
		pacer: core.NewPacer(opts.TargetFPS),
	}
	if opts.DelayOnly {
		o.pacer.SetDelayOnly(true)
	}
	if opts.DisableMulBuf2 {
		o.sb = newSendBuf(ctx)
	}
	box := ctx.Inputs
	if opts.DisablePriority {
		// A box no input reaches: inputs neither cut the clock's delay nor
		// start extra frames.
		box = core.NewInputBox(ctx.Dom)
	} else {
		// PriorityFrame part 1: an input arrival must cancel the renderer's
		// buffer-swapping wait, so input broadcasts wake Mul-Buf1 waiters.
		ctx.Inputs.Subscribe(o.buf1.Changed())
	}
	o.clock = core.NewRenderClock(ctx.Dom, box, o.pacer, core.RuleODR)
	demand := opts.TargetFPS
	if demand <= 0 {
		demand = math.Inf(1) // ODRMax: no interval, so never a delay
	}
	o.clock.SetDemand(demand)
	return o
}

// RenderGate implements Policy: the render clock holds the renderer until the
// next slot, or until a pending input starts an extra frame early; then the
// renderer waits for a free back buffer in Mul-Buf1, a wait that a pending
// input also cancels when PriorityFrame is on.
func (o *ODR) RenderGate(w core.Waiter) {
	o.clock.Begin(w)
	var interrupt func() bool
	if !o.opts.DisablePriority {
		interrupt = o.ctx.Inputs.PendingLocked
	}
	o.buf1.WaitBackFree(w, interrupt)
}

// SubmitRendered implements Policy: priority frames replace obsolete
// un-encoded frames; refresh frames use the ordinary blocking Put. The frame
// is then charged to the render clock, which places the next slot.
func (o *ODR) SubmitRendered(w core.Waiter, f *frame.Frame) {
	f.Extra = o.clock.Extra()
	if f.Priority && !o.opts.DisablePriority {
		for _, d := range o.buf1.PutPriority(f) {
			o.ctx.drop(d)
		}
	} else {
		o.buf1.Put(w, f)
	}
	o.clock.End()
}

// AcquireForEncode implements Policy.
func (o *ODR) AcquireForEncode(w core.Waiter) *frame.Frame {
	return o.buf1.Acquire(w)
}

// SubmitEncoded implements Policy: store to Mul-Buf2 (waiting for its swap —
// the backpressure that keeps the network queue at depth ≤ 2; a priority
// frame replaces an unsent one instead), then swap Mul-Buf1.
func (o *ODR) SubmitEncoded(w core.Waiter, f *frame.Frame) {
	if o.opts.DisableMulBuf2 {
		o.sb.push(f)
	} else if f.Priority && !o.opts.DisablePriority {
		for _, d := range o.buf2.PutPriority(f) {
			o.ctx.drop(d)
		}
	} else {
		o.buf2.Put(w, f)
	}
	o.buf1.Release()
}

// AcquireForSend implements Policy.
func (o *ODR) AcquireForSend(w core.Waiter) *frame.Frame {
	if o.opts.DisableMulBuf2 {
		return o.sb.pop(w)
	}
	return o.buf2.Acquire(w)
}

// DoneSend implements Policy: releasing Mul-Buf2 only after transmission
// completes extends the backpressure across the network's serialization
// time.
func (o *ODR) DoneSend(*frame.Frame) {
	if !o.opts.DisableMulBuf2 {
		o.buf2.Release()
	}
}

// DisplayTime implements Policy: immediate display.
func (o *ODR) DisplayTime(_ *frame.Frame, decodeEnd time.Duration) (time.Duration, bool) {
	return decodeEnd, true
}

// OnWindow implements Policy.
func (o *ODR) OnWindow(renderFPS, clientFPS float64) {}

// SendBacklog implements Policy: Mul-Buf2 holds at most one pending frame.
func (o *ODR) SendBacklog() int {
	if o.opts.DisableMulBuf2 {
		return o.sb.depthBytes()
	}
	return 0
}

// Pacer exposes the regulator state for tests and diagnostics.
func (o *ODR) Pacer() *core.Pacer { return o.pacer }

// Close implements Policy.
func (o *ODR) Close() {
	o.clock.Stop()
	o.buf1.Close()
	o.buf2.Close()
	if o.sb != nil {
		o.sb.close()
	}
}

// MaxBacklogBytes implements MaxBacklogger: with Mul-Buf2 the backlog is at
// most one frame; the ablation's send buffer reports its high-water mark.
func (o *ODR) MaxBacklogBytes() int {
	if o.opts.DisableMulBuf2 {
		return o.sb.maxBytes()
	}
	return 0
}
