// Package core implements the paper's contribution — OnDemand Rendering
// (ODR) — as three reusable components, plus the RenderClock that joins the
// last two into the render loop of a renderer shared by many viewers:
//
//   - MultiBuffer: the front/back frame buffers that synchronize adjacent
//     pipeline stages by swap-blocking (§5.1, Mul-Buf1 and Mul-Buf2).
//   - Pacer: the FPS regulator of Algorithm 1, which delays *and accelerates*
//     frame processing via an accumulated-delay budget (§5.2).
//   - InputBox: input observation, pending-input combining and the
//     interruptible render delay behind PriorityFrame (§5.3).
//
// All of them are written against the small Domain/Waiter runtime abstraction
// below, so the identical code runs inside the deterministic discrete-event
// simulator (package pipeline, via package simrt) and inside the real-time
// streaming stack (package stream, via package realrt). This mirrors the
// paper's implementation strategy of hooking the same logic into
// glXSwapBuffers/XNextEvent regardless of the 3D application.
package core

import (
	"sync"
	"time"
)

// Cond is a broadcast condition variable. How Broadcast must be called is
// defined by the Domain that created it: with the real-time domain the
// caller must hold the domain lock; with the simulation domain any kernel
// context works (the lock is a no-op there).
type Cond interface {
	Broadcast()
}

// Domain supplies time and synchronization primitives for one shared-state
// domain (one pipeline). Components guard their state with Locker() and
// block on Conds created by NewCond.
type Domain interface {
	// Now returns the current time as an offset from the run's start.
	Now() time.Duration
	// NewCond creates a condition variable tied to this domain's lock.
	NewCond() Cond
	// Locker returns the domain lock. The simulation domain returns a
	// no-op locker (the kernel is single-threaded); the real-time domain
	// returns a real mutex shared by all components in the domain.
	Locker() sync.Locker
}

// Waiter is the per-thread-of-execution blocking handle: a simulation
// process or a real goroutine. Components receive the caller's Waiter on
// every blocking call.
type Waiter interface {
	// Sleep suspends the caller for d.
	Sleep(d time.Duration)
	// Wait blocks until c is broadcast. The caller must hold the domain
	// lock; Wait releases it while blocked and reacquires it before
	// returning.
	Wait(c Cond)
	// WaitTimeout is Wait with a deadline; it reports whether the cond
	// was broadcast (true) or the timeout expired (false).
	WaitTimeout(c Cond, d time.Duration) bool
}

// NopLocker is a sync.Locker that does nothing; used by single-threaded
// (simulation) domains.
type NopLocker struct{}

// Lock implements sync.Locker.
func (NopLocker) Lock() {}

// Unlock implements sync.Locker.
func (NopLocker) Unlock() {}
