// Package regulator implements the FPS-regulation policies evaluated in the
// paper, for use inside the discrete-event pipeline simulator. Frames start
// by a core.RenderClock, the clock the stream hub renders by, so both
// substrates run one algorithm per render rule. A baseline is a render rule
// plus the push half (push): a latest-wins core.MultiBuffer toward the proxy
// and a tail-drop send buffer toward the network.
//
//   - NoReg: no regulation (§4.1) — the push half under core.RuleNoReg;
//     rendering free-runs, excess frames drop.
//   - Interval: interval-based software regulation (§2, §4.1) — the push half
//     under core.RuleInterval, in fixed-FPS (Int30/Int60) and adaptive
//     maximize-FPS (IntMax) flavours, with the proxy polling on the same grid.
//   - RVS: Remote VSync (§2, §4.1) — the push half under core.RuleRVS:
//     vblank-slack feedback from the client returns the clock's tokens and
//     delays rendering, scaled by the cc low-pass filter.
//   - ODR: OnDemand Rendering (§5) — multi-buffering, plus a clock under
//     core.RuleODR that runs the accelerate-or-delay pacer of Algorithm 1 and
//     PriorityFrame's extra frames; with switches for the ODRMax-noPri and
//     ablation variants.
//
// A Policy supplies the hook points of the pipeline's stages. The stages
// call them in this order:
//
//	renderer: RenderGate -> (render) -> SubmitRendered
//	proxy:    AcquireForEncode -> (copy+encode) -> SubmitEncoded
//	network:  AcquireForSend -> (transmit) -> DoneSend
//	client:   (decode) -> DisplayTime
package regulator

import (
	"time"

	"odr/internal/core"
	"odr/internal/frame"
	"odr/internal/netsim"
	"odr/internal/sim"
	"odr/internal/simrt"
)

// Ctx gives policies access to the simulation environment and the shared
// input box (the pipeline owns both).
type Ctx struct {
	Env    *sim.Env
	Dom    *simrt.Domain
	Link   *netsim.Link         // used by RVS for the feedback path delay
	Inputs *core.InputBox       // server-side pending user inputs
	Buffer int                  // send-buffer capacity in bytes (push policies)
	OnDrop func(f *frame.Frame) // invoked whenever a frame is discarded
}

func (c *Ctx) drop(f *frame.Frame) {
	if c.OnDrop != nil {
		c.OnDrop(f)
	}
}

// Policy is one FPS-regulation strategy.
type Policy interface {
	// Name returns the configuration label ("NoReg", "ODR60", ...).
	Name() string

	// RenderGate blocks the renderer until it may render the next frame:
	// the render clock's Begin under the policy's rule, plus ODR's Mul-Buf1
	// wait.
	RenderGate(w core.Waiter)

	// SubmitRendered hands a rendered frame toward the proxy. It may block
	// (ODR's Mul-Buf1) or drop an older frame (the push policies'
	// latest-wins slot). The frame is then closed on the render clock.
	SubmitRendered(w core.Waiter, f *frame.Frame)

	// AcquireForEncode blocks the proxy until a frame is ready; nil means
	// the pipeline is shutting down.
	AcquireForEncode(w core.Waiter) *frame.Frame

	// SubmitEncoded hands an encoded frame toward the network. It may
	// block (ODR's Mul-Buf2) or tail-drop (the push policies' send buffer).
	SubmitEncoded(w core.Waiter, f *frame.Frame)

	// AcquireForSend blocks the network until a frame is ready to
	// transmit; nil means shutdown.
	AcquireForSend(w core.Waiter) *frame.Frame

	// DoneSend tells the policy the transmission completed (ODR releases
	// Mul-Buf2 here so its backpressure covers transmission time).
	DoneSend(f *frame.Frame)

	// DisplayTime maps a frame's decode-completion time to its display
	// time (RVS displays on the next vblank; others display immediately).
	// The second result is false if the client discards the frame (RVS
	// drops frames that lost their vblank slot).
	DisplayTime(f *frame.Frame, decodeEnd time.Duration) (time.Duration, bool)

	// OnWindow feeds windowed cloud-render and client FPS observations to
	// adaptive policies (IntMax).
	OnWindow(renderFPS, clientFPS float64)

	// SendBacklog reports the bytes queued ahead of the network stage.
	// A deep backlog means the transport is congested: the network model
	// charges extra serialization time for retransmissions and contention
	// (ODR's Mul-Buf2 keeps this at, at most, one frame).
	SendBacklog() int

	// Close releases all blocked stages.
	Close()
}

// push is the half the three baselines share, the way a stream.PolicyKind is
// a render rule plus a session-buffer rule: a core.RenderClock under the
// baseline's rule, over a pacer of its own and the pipeline's InputBox, and
// the push buffers — a core.MultiBuffer between renderer and proxy, filled
// latest-wins the way the stream hub fills its lanes' buffers, and the
// tail-drop send buffer between proxy and network. It implements every Policy
// hook but Name.
type push struct {
	ctx   *Ctx
	clock *core.RenderClock
	buf   *core.MultiBuffer
	sb    *sendBuf
}

// newPush returns a push half whose clock follows rule at demand fps.
func newPush(ctx *Ctx, rule core.RenderRule, fps float64) push {
	p := push{
		ctx:   ctx,
		clock: core.NewRenderClock(ctx.Dom, ctx.Inputs, core.NewPacer(0), rule),
		buf:   core.NewMultiBuffer(ctx.Dom),
		sb:    newSendBuf(ctx),
	}
	p.clock.SetDemand(fps)
	return p
}

// RenderGate implements Policy: the clock holds the renderer until its rule
// starts the next frame.
func (p *push) RenderGate(w core.Waiter) { p.clock.Begin(w) }

// SubmitRendered implements Policy with latest-wins semantics: the frame
// replaces any rendered frame the proxy has not taken yet, which is how
// excessive rendering turns into dropped frames and wasted work. The frame is
// then closed on the clock, which places the next start.
func (p *push) SubmitRendered(_ core.Waiter, f *frame.Frame) {
	for _, d := range p.buf.PutPriority(f) {
		p.ctx.drop(d)
	}
	p.clock.End()
}

// AcquireForEncode implements Policy.
func (p *push) AcquireForEncode(w core.Waiter) *frame.Frame { return p.buf.Acquire(w) }

// SubmitEncoded implements Policy: push to the send buffer, no pacing, and
// free the proxy's slot.
func (p *push) SubmitEncoded(_ core.Waiter, f *frame.Frame) {
	p.sb.push(f)
	p.buf.Release()
}

// AcquireForSend implements Policy.
func (p *push) AcquireForSend(w core.Waiter) *frame.Frame { return p.sb.pop(w) }

// DoneSend implements Policy.
func (p *push) DoneSend(*frame.Frame) {}

// DisplayTime implements Policy: display immediately on decode (no VSync,
// so tearing is possible).
func (p *push) DisplayTime(_ *frame.Frame, decodeEnd time.Duration) (time.Duration, bool) {
	return decodeEnd, true
}

// OnWindow implements Policy.
func (p *push) OnWindow(renderFPS, clientFPS float64) {}

// SendBacklog implements Policy.
func (p *push) SendBacklog() int { return p.sb.depthBytes() }

// MaxBacklogBytes implements MaxBacklogger.
func (p *push) MaxBacklogBytes() int { return p.sb.maxBytes() }

// Close implements Policy.
func (p *push) Close() {
	p.clock.Stop()
	p.buf.Close()
	p.sb.close()
}

// sendBuf is the byte-capacity tail-drop send buffer used by the push
// policies between proxy and network: the socket/bottleneck queue whose
// depth is the source of NoReg's congestion latency.
type sendBuf struct {
	ctx    *Ctx
	cond   core.Cond
	q      *netsim.ByteQueue[*frame.Frame]
	closed bool
}

func newSendBuf(ctx *Ctx) *sendBuf {
	capBytes := ctx.Buffer
	return &sendBuf{
		ctx:  ctx,
		cond: ctx.Dom.NewCond(),
		q:    netsim.NewByteQueue[*frame.Frame](capBytes),
	}
}

func (s *sendBuf) push(f *frame.Frame) {
	mu := s.ctx.Dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	if s.closed {
		return
	}
	if !s.q.Push(f, f.Bytes) {
		s.ctx.drop(f)
		return
	}
	s.cond.Broadcast()
}

func (s *sendBuf) pop(w core.Waiter) *frame.Frame {
	mu := s.ctx.Dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	for s.q.Len() == 0 && !s.closed {
		w.Wait(s.cond)
	}
	f, _ := s.q.Pop()
	return f
}

func (s *sendBuf) close() {
	mu := s.ctx.Dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}

func (s *sendBuf) depthBytes() int {
	mu := s.ctx.Dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	return s.q.Bytes()
}

func (s *sendBuf) maxBytes() int {
	mu := s.ctx.Dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	return s.q.MaxBytes()
}

// MaxBacklogger is implemented by policies that buffer encoded frames ahead
// of the network; the pipeline reports the high-water mark as a congestion
// diagnostic.
type MaxBacklogger interface {
	MaxBacklogBytes() int
}
