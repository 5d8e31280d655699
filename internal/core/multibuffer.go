package core

import (
	"odr/internal/frame"
)

// MultiBuffer is ODR's synchronization buffer between two pipeline stages
// (§5.1). It holds a front buffer (the frame the consumer works on) and a
// back buffer (the frame the producer fills next).
//
//   - The producer (Put) blocks while the back buffer is occupied — this is
//     how the 3D application "pauses its rendering until the buffers are
//     swapped".
//   - The consumer (Acquire) blocks while the front buffer is empty — this is
//     how the server proxy "pauses swapping to wait for it to be populated".
//   - The swap happens when the consumer releases the front buffer and the
//     back buffer is full (Release); the faster side therefore always waits
//     for the slower side, synchronizing the two stages' rates without any
//     timing feedback.
//
// PutPriority implements PriorityFrame's obsolete-frame dropping (§5.3): an
// input-triggered frame replaces any not-yet-consumed frames instead of
// waiting behind them. TryPut is the producer that cannot wait: it stores
// only into a free back buffer.
type MultiBuffer struct {
	dom     Domain
	changed Cond

	front     *frame.Frame
	back      *frame.Frame
	consuming bool // front is currently held by the consumer
	closed    bool
}

// NewMultiBuffer returns an empty multi-buffer in the given domain.
func NewMultiBuffer(dom Domain) *MultiBuffer {
	return &MultiBuffer{dom: dom, changed: dom.NewCond()}
}

// promoteLocked moves the back buffer to the front when the front is free.
func (b *MultiBuffer) promoteLocked() {
	if b.front == nil && b.back != nil {
		b.front, b.back = b.back, nil
	}
}

// Put stores f into the back buffer, blocking the producer while the back
// buffer is occupied. It returns false if the buffer was closed while
// waiting.
func (b *MultiBuffer) Put(w Waiter, f *frame.Frame) bool {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	for b.back != nil && !b.closed {
		w.Wait(b.changed)
	}
	return b.storeLocked(f)
}

// TryPut is Put without blocking: it stores f only when the back buffer is
// free, never displacing a buffered frame, and reports whether it did (false
// when the back buffer is full or the buffer is closed).
func (b *MultiBuffer) TryPut(f *frame.Frame) bool {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	return b.back == nil && b.storeLocked(f)
}

// storeLocked fills the free back buffer, promoting it when the front is
// empty; it refuses once the buffer is closed.
func (b *MultiBuffer) storeLocked(f *frame.Frame) bool {
	if b.closed {
		return false
	}
	b.back = f
	b.promoteLocked()
	b.changed.Broadcast()
	return true
}

// PutRegular stores a regular frame for a producer that cannot wait: into a
// free back buffer as TryPut does, and otherwise latest-wins in place of the
// buffered frames the consumer has not taken — but never in place of an
// input-triggered frame, which holds that input's response (§5.3): then f is
// refused. It reports whether f was stored, the frames it displaced, and
// whether it was refused; a closed buffer neither stores nor refuses.
func (b *MultiBuffer) PutRegular(f *frame.Frame) (stored bool, dropped []*frame.Frame, refused bool) {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	if b.back == nil {
		return b.storeLocked(f), nil, false
	}
	if b.closed {
		return false, nil, false
	}
	if b.back.Priority {
		return false, nil, true
	}
	dropped = append(dropped, b.back)
	b.back = nil
	if b.front != nil && !b.consuming && !b.front.Priority {
		dropped = append(dropped, b.front)
		b.front = nil
	}
	if b.front == nil {
		b.front = f
	} else {
		b.back = f
	}
	b.changed.Broadcast()
	return true, dropped, false
}

// PutPriority stores an input-triggered frame, dropping any frames that are
// buffered but not yet consumed (they are obsolete: they would be displayed
// before f, delaying it). It never blocks. It returns the dropped frames so
// the caller can account for them (e.g. carry their input stamps forward).
func (b *MultiBuffer) PutPriority(f *frame.Frame) []*frame.Frame {
	_, dropped := b.PutPriorityStored(f)
	return dropped
}

// PutPriorityStored is PutPriority with an explicit stored report: it returns
// whether f was accepted (false only when the buffer is closed) alongside the
// dropped frames. Callers that reference-count frame payloads need the
// distinction — PutPriority's nil result is ambiguous between "stored with no
// drops" and "buffer closed, frame discarded".
func (b *MultiBuffer) PutPriorityStored(f *frame.Frame) (stored bool, droppedFrames []*frame.Frame) {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	if b.closed {
		return false, nil
	}
	var dropped []*frame.Frame
	if b.back != nil {
		dropped = append(dropped, b.back)
		b.back = nil
	}
	if b.front != nil && !b.consuming {
		dropped = append(dropped, b.front)
		b.front = nil
	}
	if b.front == nil {
		b.front = f
	} else {
		b.back = f
	}
	b.changed.Broadcast()
	return true, dropped
}

// Acquire returns the front-buffer frame for processing, blocking the
// consumer while the front buffer is empty. The frame stays in the front
// buffer until Release; callers must pair every successful Acquire with a
// Release. Acquire returns nil if the buffer is closed.
func (b *MultiBuffer) Acquire(w Waiter) *frame.Frame {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	for b.front == nil && !b.closed {
		w.Wait(b.changed)
	}
	if b.front == nil {
		return nil
	}
	b.consuming = true
	return b.front
}

// TryAcquire is Acquire without blocking.
func (b *MultiBuffer) TryAcquire() *frame.Frame {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	if b.front == nil {
		return nil
	}
	b.consuming = true
	return b.front
}

// Release marks the front-buffer frame as consumed and swaps the back buffer
// in (this is the "swap Mul-Buf" step of Algorithm 1). The producer, if
// blocked, is woken.
func (b *MultiBuffer) Release() {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	b.front = nil
	b.consuming = false
	b.promoteLocked()
	b.changed.Broadcast()
}

// Changed exposes the buffer's condition variable so that other components
// in the same domain (notably InputBox) can wake waiters: PriorityFrame
// cancels the renderer's buffer-swapping wait by broadcasting this cond when
// an input arrives.
func (b *MultiBuffer) Changed() Cond { return b.changed }

// WaitBackFree blocks until the back buffer is free (the renderer's
// "pause until the buffers are swapped", §5.1) or the buffer is closed.
// If interrupt is non-nil it is evaluated — with the domain lock held — at
// entry and after every wakeup; when it reports true, WaitBackFree returns
// at once (PriorityFrame canceling the rendering delay, §5.3).
func (b *MultiBuffer) WaitBackFree(w Waiter, interrupt func() bool) {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	for b.back != nil && !b.closed {
		if interrupt != nil && interrupt() {
			return
		}
		w.Wait(b.changed)
	}
}

// Close releases all waiters; subsequent Puts fail and Acquires return nil
// once drained.
func (b *MultiBuffer) Close() {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	b.closed = true
	b.changed.Broadcast()
}

// Closed reports whether Close has been called.
func (b *MultiBuffer) Closed() bool {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	return b.closed
}

// Occupancy returns how many frames are currently buffered (0, 1 or 2).
func (b *MultiBuffer) Occupancy() int {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	n := 0
	if b.front != nil {
		n++
	}
	if b.back != nil {
		n++
	}
	return n
}
