package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error surfaced by operations cut by a Disconnect step.
var ErrInjected = errors.New("chaos: injected disconnect")

// Event is one fault firing, recorded in the order faults applied.
type Event struct {
	// Seq numbers the event within this Conn.
	Seq int
	// Kind is the fault that fired.
	Kind Kind
	// Off is the stream offset (write bytes, or read bytes for read-side
	// kinds) at which it fired.
	Off int64
	// Note carries the fault parameters ("dur=60ms", "pos=17", "rate=262144").
	Note string
}

// String renders the event as one log line.
func (e Event) String() string {
	if e.Note == "" {
		return fmt.Sprintf("%d %s off=%d", e.Seq, e.Kind, e.Off)
	}
	return fmt.Sprintf("%d %s off=%d %s", e.Seq, e.Kind, e.Off, e.Note)
}

// Conn wraps a net.Conn and applies a fault Schedule to its traffic. All
// fault decisions are driven by byte offsets and a seeded RNG, so the event
// log is a pure function of (schedule, seed, traffic). Faults that wait
// (stalls, latency, pacing, half-open reads) do sleep in real time, but the
// log never depends on the clock.
type Conn struct {
	inner net.Conn

	done      chan struct{}
	closeOnce sync.Once

	mu    sync.Mutex
	rng   *rand.Rand
	sched Schedule
	armed []Step // steps not yet fired, sorted by At
	base  int64  // loop shift added to every step's At

	writeOff, readOff int64
	latency           time.Duration
	rate              float64
	sendAt            time.Time // bandwidth pacing: when the bottleneck frees
	lossLeft          int
	corruptLeft       int
	halfOpen          bool
	stallUntil        time.Time // a read stall delivers nothing before this instant
	disconnected      bool
	readDeadline      time.Time

	// Node-fault state (Crash, Partition, HeartbeatDelay).
	nodeHook    func()    // OnNodeFault; run (async) when Crash fires
	partForever bool      // permanent partition in effect
	partUntil   time.Time // healing partition in effect until this instant
	hbDelayLeft int       // writes still to delay by hbDelayDur
	hbDelayDur  time.Duration

	events []Event
}

// Wrap returns conn with the schedule applied to its traffic. seed drives
// the corruption-position RNG; the same (schedule, seed, traffic) triple
// yields the identical event log.
func Wrap(conn net.Conn, sched Schedule, seed int64) *Conn {
	c := &Conn{
		inner: conn,
		done:  make(chan struct{}),
		rng:   rand.New(rand.NewSource(seed)),
		sched: sched,
	}
	c.armed = append(c.armed, sched.Steps...)
	return c
}

// Schedule returns the schedule this conn runs under.
func (c *Conn) Schedule() Schedule { return c.sched }

// OnNodeFault registers fn to run when a Crash step fires. A cluster harness
// hooks process death here — hard-close the worker's listener and every live
// session. fn runs on its own goroutine so it may close conns (including this
// one) without deadlocking the write that fired the fault.
func (c *Conn) OnNodeFault(fn func()) {
	c.mu.Lock()
	c.nodeHook = fn
	c.mu.Unlock()
}

// partitionedLocked reports whether a partition is currently in effect;
// callers hold c.mu.
func (c *Conn) partitionedLocked() bool {
	return c.partForever || (!c.partUntil.IsZero() && time.Now().Before(c.partUntil))
}

// Events returns a copy of the fault event log so far.
func (c *Conn) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// EventLog renders the event log as newline-separated lines — the
// reproducibility artifact tests pin.
func (c *Conn) EventLog() string {
	evs := c.Events()
	lines := make([]string, len(evs))
	for i, e := range evs {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}

// recordLocked appends an event; callers hold c.mu.
func (c *Conn) recordLocked(kind Kind, off int64, note string) {
	c.events = append(c.events, Event{Seq: len(c.events), Kind: kind, Off: off, Note: note})
}

// writeEffects is what one Write must apply, decided under the lock.
type writeEffects struct {
	stall      time.Duration
	latency    time.Duration
	paceUntil  time.Time
	drop       bool
	corruptPos int // -1 = no corruption
	disconnect bool
	crash      bool // disconnect was a Crash: run the node-fault hook too
}

// fireLocked fires every armed step of the given side whose shifted offset
// has been reached, re-arming the schedule when it loops.
func (c *Conn) fireLocked(readSide bool, off int64, eff *writeEffects) {
	for {
		rest := c.armed[:0]
		for _, st := range c.armed {
			if st.Kind.readSide() != readSide || c.base+st.At > off {
				rest = append(rest, st)
				continue
			}
			switch st.Kind {
			case Latency:
				c.latency = st.Dur
				c.recordLocked(st.Kind, off, fmt.Sprintf("dur=%s", st.Dur))
			case Bandwidth:
				c.rate = st.Rate
				c.recordLocked(st.Kind, off, fmt.Sprintf("rate=%d", int64(st.Rate)))
			case Loss:
				c.lossLeft += st.Count
				c.recordLocked(st.Kind, off, fmt.Sprintf("n=%d", st.Count))
			case Corrupt:
				c.corruptLeft += st.Count
				c.recordLocked(st.Kind, off, fmt.Sprintf("n=%d", st.Count))
			case StallRead:
				if now := time.Now(); c.stallUntil.Before(now) {
					c.stallUntil = now
				}
				c.stallUntil = c.stallUntil.Add(st.Dur)
				c.recordLocked(st.Kind, off, fmt.Sprintf("dur=%s", st.Dur))
			case StallWrite:
				if eff != nil {
					eff.stall += st.Dur
				}
				c.recordLocked(st.Kind, off, fmt.Sprintf("dur=%s", st.Dur))
			case Disconnect:
				if eff != nil {
					eff.disconnect = true
				}
				c.recordLocked(st.Kind, off, "")
			case HalfOpen:
				c.halfOpen = true
				c.recordLocked(st.Kind, off, "")
			case Crash:
				if eff != nil {
					eff.disconnect = true
					eff.crash = true
				}
				c.recordLocked(st.Kind, off, "")
			case Partition:
				if st.Dur > 0 {
					c.partUntil = time.Now().Add(st.Dur)
					c.recordLocked(st.Kind, off, fmt.Sprintf("dur=%s", st.Dur))
				} else {
					c.partForever = true
					c.recordLocked(st.Kind, off, "")
				}
			case HeartbeatDelay:
				c.hbDelayLeft += st.Count
				c.hbDelayDur = st.Dur
				c.recordLocked(st.Kind, off, fmt.Sprintf("dur=%s n=%d", st.Dur, st.Count))
			}
		}
		c.armed = rest
		if len(c.armed) == 0 && c.sched.Loop > 0 && len(c.sched.Steps) > 0 {
			c.base += c.sched.Loop
			c.armed = append(c.armed[:0], c.sched.Steps...)
			// Re-armed steps may already be due (a large transfer can cross
			// several loop periods at once); fire them in the same call.
			for _, st := range c.armed {
				if st.Kind.readSide() == readSide && c.base+st.At <= off {
					goto again
				}
			}
		}
		return
	again:
	}
}

// sleep waits d, returning early with an error when the conn closes.
func (c *Conn) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.done:
		return net.ErrClosed
	}
}

// Write implements net.Conn: the scheduled write-side faults apply, then the
// bytes (possibly corrupted) reach the underlying conn — unless they were
// lost or the link disconnected.
func (c *Conn) Write(p []byte) (int, error) {
	select {
	case <-c.done:
		return 0, net.ErrClosed
	default:
	}
	c.mu.Lock()
	if c.disconnected {
		c.mu.Unlock()
		return 0, ErrInjected
	}
	eff := writeEffects{corruptPos: -1}
	c.fireLocked(false, c.writeOff, &eff)
	c.writeOff += int64(len(p))
	var hook func()
	if eff.crash {
		hook = c.nodeHook
	}
	if eff.disconnect {
		c.disconnected = true
	} else if c.partitionedLocked() {
		// Blackholed: the write "succeeds" locally, nothing crosses.
		eff.drop = true
	} else if c.lossLeft > 0 {
		c.lossLeft--
		eff.drop = true
	} else {
		if c.hbDelayLeft > 0 {
			c.hbDelayLeft--
			eff.stall += c.hbDelayDur
		}
		if c.corruptLeft > 0 && len(p) > 0 {
			c.corruptLeft--
			eff.corruptPos = c.rng.Intn(len(p))
			c.recordLocked(Corrupt, c.writeOff-int64(len(p)), fmt.Sprintf("pos=%d", eff.corruptPos))
		}
		eff.latency = c.latency
		if c.rate > 0 {
			// Serialize at the bottleneck: each write occupies the link for
			// len/rate.
			tx := time.Duration(float64(len(p)) / c.rate * float64(time.Second))
			now := time.Now()
			if c.sendAt.Before(now) {
				c.sendAt = now
			}
			c.sendAt = c.sendAt.Add(tx)
			eff.paceUntil = c.sendAt
		}
	}
	c.mu.Unlock()

	switch {
	case eff.disconnect:
		if hook != nil {
			go hook()
		}
		c.inner.Close()
		return 0, ErrInjected
	case eff.drop:
		// Burst loss: the write "succeeds" but nothing crosses the link.
		return len(p), nil
	}
	if err := c.sleep(eff.stall); err != nil {
		return 0, err
	}
	if err := c.sleep(eff.latency); err != nil {
		return 0, err
	}
	if !eff.paceUntil.IsZero() {
		if err := c.sleep(time.Until(eff.paceUntil)); err != nil {
			return 0, err
		}
	}
	if eff.corruptPos >= 0 {
		corrupted := make([]byte, len(p))
		copy(corrupted, p)
		corrupted[eff.corruptPos] ^= 0xFF
		p = corrupted
	}
	return c.inner.Write(p)
}

// Read implements net.Conn with read-side faults: a stall delivers nothing
// until it ends — a read whose deadline comes first times out and leaves the
// stall in place — and a half-open partition blocks until the read deadline
// (if any) or Close.
func (c *Conn) Read(p []byte) (int, error) {
	select {
	case <-c.done:
		return 0, net.ErrClosed
	default:
	}
	c.mu.Lock()
	c.fireLocked(true, c.readOff, nil)
	stall := time.Until(c.stallUntil)
	halfOpen := c.halfOpen
	deadline := c.readDeadline
	partForever := c.partForever
	partUntil := c.partUntil
	c.mu.Unlock()

	if stall > 0 {
		if !deadline.IsZero() && time.Now().Add(stall).After(deadline) {
			if err := c.sleep(time.Until(deadline)); err != nil {
				return 0, err
			}
			return 0, os.ErrDeadlineExceeded
		}
		if err := c.sleep(stall); err != nil {
			return 0, err
		}
	}
	if halfOpen || partForever {
		// The peer's bytes never arrive: block until the deadline or Close.
		if deadline.IsZero() {
			<-c.done
			return 0, net.ErrClosed
		}
		if err := c.sleep(time.Until(deadline)); err != nil {
			return 0, err
		}
		return 0, os.ErrDeadlineExceeded
	}
	if !partUntil.IsZero() && time.Now().Before(partUntil) {
		// A healing partition: nothing is delivered until it heals, the
		// deadline fires, or the conn closes.
		if !deadline.IsZero() && deadline.Before(partUntil) {
			if err := c.sleep(time.Until(deadline)); err != nil {
				return 0, err
			}
			return 0, os.ErrDeadlineExceeded
		}
		if err := c.sleep(time.Until(partUntil)); err != nil {
			return 0, err
		}
	}
	n, err := c.inner.Read(p)
	c.mu.Lock()
	c.readOff += int64(n)
	c.mu.Unlock()
	return n, err
}

// Close releases any blocked fault waits and closes the underlying conn.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return c.inner.Close()
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.inner.SetDeadline(t)
}

// SetReadDeadline implements net.Conn; the deadline also bounds half-open
// and stalled reads, so deadline-based liveness checks still fire under
// partitions.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.inner.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	return c.inner.SetWriteDeadline(t)
}
