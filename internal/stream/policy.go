package stream

import (
	"sync"

	"odr/internal/core"
	"odr/internal/frame"
)

// PolicyKind selects a hub's FPS regulation policy. A policy is two rules,
// both fixed when the hub is built: a render rule, which says when the shared
// renderer starts a frame (a core.RenderRule on the hub's RenderClock), and a
// session-buffer rule, which says how each viewer holds encoded frames for
// its sender.
type PolicyKind int

// The regulation policies of the real-time stack.
const (
	// ODRRegulation is OnDemand Rendering (the zero value): the render clock
	// paces slots and answers each input with an extra frame (PriorityFrame),
	// and every session keeps a latest-wins core.MultiBuffer, so a viewer
	// that falls behind skips to the newest frame (Mul-Buf2).
	ODRRegulation PolicyKind = iota
	// IntervalRegulation starts each render on a fixed interval grid; inputs
	// wait for the next tick. Sessions queue encoded frames in a bounded
	// FIFO.
	IntervalRegulation
	// NoRegulation renders as fast as possible; the newest frame wins at the
	// encoder, and encoded frames queue deeply toward the network in a
	// bounded FIFO.
	NoRegulation
)

// String implements fmt.Stringer.
func (k PolicyKind) String() string {
	switch k {
	case NoRegulation:
		return "NoReg"
	case IntervalRegulation:
		return "Interval"
	case ODRRegulation:
		return "ODR"
	}
	return "Unknown"
}

// renderRule is the policy's render rule.
func (k PolicyKind) renderRule() core.RenderRule {
	switch k {
	case IntervalRegulation:
		return core.RuleInterval
	case NoRegulation:
		return core.RuleNoReg
	}
	return core.RuleODR
}

// push reports whether sessions queue encoded frames (the push policies)
// rather than keeping only the newest.
func (k PolicyKind) push() bool { return k == IntervalRegulation || k == NoRegulation }

// sessionBuf returns a new session's buffer under the policy's rule.
func (k PolicyKind) sessionBuf(dom core.Domain) sessionQueue {
	if k.push() {
		return &pushQueue{}
	}
	return core.NewMultiBuffer(dom)
}

// sessionQueue hands a session's artifacts from its lane (the producer) to
// its sender (the consumer): the session-buffer half of the regulation
// policy. Its methods are core.MultiBuffer's, which is the ODR rule.
type sessionQueue interface {
	// PutPriorityStored stores f, returning whether it was stored and the
	// frames it displaced.
	PutPriorityStored(f *frame.Frame) (stored bool, dropped []*frame.Frame)
	// TryAcquire returns the next frame to send, or nil; Release retires it.
	TryAcquire() *frame.Frame
	Release()
	Close()
	Closed() bool
	Occupancy() int
}

// pushQueueDepth bounds a push-policy session's queue: frames encoded but
// not yet sent, standing in for deep socket buffers.
const pushQueueDepth = 64

// pushQueue is the push policies' session buffer: a bounded FIFO. A put never
// displaces a queued frame; on a full queue it is refused. The lane checks for
// room before it encodes (see encLane.encode), so a one-viewer stream never
// has an encoded frame refused and its delta chain never breaks.
type pushQueue struct {
	mu     sync.Mutex
	ring   [pushQueueDepth]*frame.Frame
	head   int
	n      int
	closed bool
}

func (q *pushQueue) PutPriorityStored(f *frame.Frame) (bool, []*frame.Frame) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.n == len(q.ring) {
		return false, nil
	}
	q.ring[(q.head+q.n)%len(q.ring)] = f
	q.n++
	return true, nil
}

func (q *pushQueue) TryAcquire() *frame.Frame {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ring[q.head]
}

func (q *pushQueue) Release() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ring[q.head] = nil
	q.head = (q.head + 1) % len(q.ring)
	q.n--
}

func (q *pushQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}

func (q *pushQueue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

func (q *pushQueue) Occupancy() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}
