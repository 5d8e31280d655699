package stream

import (
	"errors"
	"fmt"
	"sync"

	"odr/internal/core"
	"odr/internal/frame"
)

// CheckRule returns nil for a render rule a hub runs — core.RuleODR,
// RuleInterval or RuleNoReg — and otherwise an error that names the rule.
// NewHub panics with it. There is no RVS on a hub: the wire carries no vblank
// feedback from the client, which displays each frame at decode end.
func CheckRule(rule core.RenderRule) error {
	switch rule {
	case core.RuleODR, core.RuleInterval, core.RuleNoReg:
		return nil
	case core.RuleRVS:
		return errors.New("the hub has no RVS: the wire carries no vblank feedback")
	}
	return fmt.Errorf("the hub has no render rule %v", rule)
}

// push reports whether sessions queue encoded frames (the push rules: every
// rule but ODR) rather than keeping only the newest.
func (h *Hub) push() bool { return h.cfg.Policy != core.RuleODR }

// sessionBuf returns a new session's buffer under the hub's rule: a bounded
// FIFO under a push rule, a two-slot core.MultiBuffer under ODR (see
// hubSession.put).
func (h *Hub) sessionBuf(dom core.Domain) sessionQueue {
	if h.push() {
		return &pushQueue{}
	}
	return core.NewMultiBuffer(dom)
}

// sessionQueue hands a session's artifacts from its lane (the producer) to
// its sender (the consumer): the session-buffer half of the hub's policy. Its methods are core.MultiBuffer's, which is the ODR rule.
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

// pushQueueDepth bounds a push-rule session's queue: frames encoded but
// not yet sent, standing in for deep socket buffers.
const pushQueueDepth = 64

// pushQueue is the push rules' session buffer: a bounded FIFO. A put never
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
