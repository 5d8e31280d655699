package core

import (
	"time"

	"odr/internal/frame"
)

// InputStamp aliases frame.InputStamp: one pending user input awaiting a
// responding frame.
type InputStamp = frame.InputStamp

// InputBox implements the application-side half of PriorityFrame (§5.3): it
// observes user inputs (the paper intercepts XNextEvent), combines pending
// inputs the way the benchmarks' main loops do, and cancels the rendering
// delay so the input-triggered frame renders immediately.
//
// The renderer calls DelayInterruptible instead of a plain sleep: an input
// arriving during the delay wakes the renderer at once. Before rendering a
// frame it calls ConsumePending to tag the frame with all combined inputs.
type InputBox struct {
	dom     Domain
	arrived Cond

	pending []InputStamp
	total   int64

	// interrupted is set by Interrupt and consumed by the wait it cuts short
	// (the current one, or the renderer's next if it was not waiting).
	interrupted bool

	// subscribers are additional conds broadcast on every input, letting
	// components in the same domain (e.g. a MultiBuffer the renderer is
	// blocked on) wake their waiters when an input arrives.
	subscribers []Cond
}

// NewInputBox returns an empty input box in the given domain.
func NewInputBox(dom Domain) *InputBox {
	return &InputBox{dom: dom, arrived: dom.NewCond()}
}

// OnInput records a user input and wakes any renderer blocked in
// DelayInterruptible. Safe to call from any goroutine in the real-time
// domain and from any kernel context in the simulation domain.
func (b *InputBox) OnInput(id frame.InputID, issued time.Duration) {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	b.pending = append(b.pending, InputStamp{ID: id, Issued: issued})
	b.total++
	b.arrived.Broadcast()
	for _, c := range b.subscribers {
		c.Broadcast()
	}
}

// Interrupt wakes the renderer out of DelayInterruptible, Sleep or Park without
// recording an input: nothing joins the pending list, so no frame is tagged
// for it. The current wait — or, when the renderer is busy, its next
// DelayInterruptible — returns at once, and the renderer re-reads whatever
// state the interrupter changed before calling (a stop flag, a new target).
func (b *InputBox) Interrupt() {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	b.interrupted = true
	b.arrived.Broadcast()
}

// Subscribe registers an additional cond (from the same domain) to be
// broadcast whenever an input arrives.
func (b *InputBox) Subscribe(c Cond) {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	b.subscribers = append(b.subscribers, c)
}

// PendingLocked reports whether any input is pending. The caller must
// already hold the domain lock (used as a WaitBackFree interrupt predicate).
func (b *InputBox) PendingLocked() bool { return len(b.pending) > 0 }

// HasPending reports whether any input awaits a responding frame.
func (b *InputBox) HasPending() bool {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	return len(b.pending) > 0
}

// ConsumePending removes and returns all pending inputs (oldest first).
// The renderer combines them into the next frame, which responds to all of
// them (position/posture combining, §5.3).
func (b *InputBox) ConsumePending() []InputStamp {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	out := b.pending
	b.pending = nil
	return out
}

// Total returns the number of inputs ever observed.
func (b *InputBox) Total() int64 {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	return b.total
}

// DelayInterruptible delays the renderer for d, returning early if an input
// arrives (or is already pending) or Interrupt is called. It reports whether
// it was cut short by an input. A non-positive d returns immediately with the
// pending status.
func (b *InputBox) DelayInterruptible(w Waiter, d time.Duration) bool {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	deadline := b.dom.Now() + d
	for {
		if len(b.pending) > 0 {
			return true
		}
		if b.interrupted {
			b.interrupted = false
			return false
		}
		remaining := deadline - b.dom.Now()
		if remaining <= 0 || !w.WaitTimeout(b.arrived, remaining) {
			return false
		}
		// Woken: an input, an interrupt, or an input a racing consumer
		// already took — the checks above tell which.
	}
}

// Sleep delays the renderer for d, cut short only by Interrupt: unlike
// DelayInterruptible, a pending or arriving input neither ends nor shortens
// it (interval-based regulation makes inputs wait for the next tick).
func (b *InputBox) Sleep(w Waiter, d time.Duration) {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	deadline := b.dom.Now() + d
	for !b.interrupted {
		remaining := deadline - b.dom.Now()
		if remaining <= 0 || !w.WaitTimeout(b.arrived, remaining) {
			return
		}
		// Woken by an input or an interrupt: only the latter ends the wait.
	}
	b.interrupted = false
}

// Park blocks the renderer while idle reports true. idle is evaluated with
// the domain lock held, and Interrupt broadcasts under that same lock, so a
// waker that changes what idle reads and then calls Interrupt is never
// missed, however the two interleave.
func (b *InputBox) Park(w Waiter, idle func() bool) {
	mu := b.dom.Locker()
	mu.Lock()
	defer mu.Unlock()
	for idle() {
		w.Wait(b.arrived)
	}
	b.interrupted = false
}

// Tag stamps f with the given combined inputs: the oldest input defines the
// frame's motion-to-photon reference, and the frame is marked as a priority
// frame.
func Tag(f *frame.Frame, inputs []InputStamp) {
	if len(inputs) == 0 {
		return
	}
	f.Input = inputs[0].ID
	f.InputTime = inputs[0].Issued
	f.Priority = true
	f.Inputs = append(f.Inputs, inputs...)
}
