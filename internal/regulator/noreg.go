package regulator

import (
	"time"

	"odr/internal/core"
	"odr/internal/frame"
)

// NoReg is the unregulated baseline (§4.1): the renderer free-runs, the
// proxy always encodes the newest rendered frame (older un-encoded frames
// are discarded), and encoded frames are pushed into the send buffer where
// they queue or tail-drop. This is the configuration whose FPS gap wastes
// power and whose send-queue buildup produces multi-second MtP latency on
// bandwidth-limited paths.
type NoReg struct {
	box *mailbox
	sb  *sendBuf
}

// NewNoReg returns the NoReg policy.
func NewNoReg(ctx *Ctx) *NoReg {
	return &NoReg{box: newMailbox(ctx), sb: newSendBuf(ctx)}
}

// Name implements Policy.
func (n *NoReg) Name() string { return "NoReg" }

// RenderGate implements Policy: no gating at all.
func (n *NoReg) RenderGate(core.Waiter) {}

// SubmitRendered implements Policy with latest-wins semantics.
func (n *NoReg) SubmitRendered(_ core.Waiter, f *frame.Frame) { n.box.putLatest(f) }

// AcquireForEncode implements Policy.
func (n *NoReg) AcquireForEncode(w core.Waiter) *frame.Frame { return n.box.take(w) }

// SubmitEncoded implements Policy: push to the send buffer, no pacing.
func (n *NoReg) SubmitEncoded(_ core.Waiter, f *frame.Frame) { n.sb.push(f) }

// AcquireForSend implements Policy.
func (n *NoReg) AcquireForSend(w core.Waiter) *frame.Frame { return n.sb.pop(w) }

// DoneSend implements Policy.
func (n *NoReg) DoneSend(*frame.Frame) {}

// DisplayTime implements Policy: display immediately on decode (no VSync,
// so tearing is possible).
func (n *NoReg) DisplayTime(_ *frame.Frame, decodeEnd time.Duration) (time.Duration, bool) {
	return decodeEnd, true
}

// OnWindow implements Policy.
func (n *NoReg) OnWindow(renderFPS, clientFPS float64) {}

// SendBacklog implements Policy.
func (n *NoReg) SendBacklog() int { return n.sb.depthBytes() }

// Close implements Policy.
func (n *NoReg) Close() {
	n.box.close()
	n.sb.close()
}

// QueuedBytes exposes the send-buffer depth (diagnostics: congestion).
func (n *NoReg) QueuedBytes() int { return n.sb.depthBytes() }

// MaxBacklogBytes implements MaxBacklogger.
func (n *NoReg) MaxBacklogBytes() int { return n.sb.maxBytes() }
