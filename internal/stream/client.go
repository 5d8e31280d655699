package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"odr/internal/codec"
	"odr/internal/metrics"
)

// streamConn is the connection surface the client needs; *net.TCPConn,
// net.Pipe ends and the chaos wrapper all satisfy it.
type streamConn = interface {
	Read([]byte) (int, error)
	Write([]byte) (int, error)
	Close() error
}

// ReconnectPolicy bounds how a reconnecting client chases a flaky server:
// exponential backoff with jitter, a consecutive-failure budget, and an idle
// timeout that catches half-open connections (reads that would otherwise
// block forever on a peer that silently vanished).
type ReconnectPolicy struct {
	// MaxAttempts is the consecutive failed session budget before Run gives
	// up (default 5). The count resets whenever a session makes frame
	// progress, so a long-lived flaky stream never exhausts it.
	MaxAttempts int
	// BaseDelay is the first backoff delay (default 25ms); it doubles per
	// consecutive failure up to MaxDelay (default 1s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter spreads each delay by ±Jitter fraction (default 0.2) so a herd
	// of clients does not reconnect in lockstep.
	Jitter float64
	// IdleTimeout, when > 0, is the per-read deadline: a session that
	// receives nothing for this long is declared dead and redialed.
	IdleTimeout time.Duration
	// Seed drives the jitter RNG, keeping soak runs reproducible.
	Seed int64
	// RedialOnBye makes an orderly msgBye redial (through the dial func)
	// instead of ending Run. A cluster client sets it so a worker's drain —
	// which says goodbye to every session — sends the client back to the
	// master for re-placement rather than terminating it.
	RedialOnBye bool
}

// Redirector is implemented by connections whose dial was re-resolved to a
// different endpoint than the previous session's — a master-issued redirect.
// The reconnecting client treats a redirected dial as progress and resets its
// consecutive-failure budget: the control plane moved the session, so the
// failures that led here belong to the old placement, not the new one.
type Redirector interface {
	Redirected() bool
}

// withDefaults fills zero fields.
func (p ReconnectPolicy) withDefaults() ReconnectPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Client decodes and displays a stream, sends user inputs, and measures the
// client-side QoS: decode FPS and motion-to-photon latency (both ends of the
// measurement are on the client clock, so no clock synchronization is
// needed — the input timestamp travels to the server and comes back embedded
// in the responding frame).
//
// A client built with NewReconnectingClient additionally survives the
// network: when its session dies it redials with exponential backoff and
// resumes via the keyframe resync path, within the ReconnectPolicy budget.
type Client struct {
	dial func() (net.Conn, error) // nil for single-conn clients
	pol  ReconnectPolicy

	connMu sync.Mutex // guards the conn pointer only — never held across I/O
	conn   streamConn

	dec *codec.Decoder

	start time.Time

	nextInput uint64
	writeMu   sync.Mutex

	mu           sync.Mutex
	frames       int64
	bytes        int64
	latencies    metrics.Dist
	interDispSum float64 // inter-display gaps, ms: Report needs only
	interDispN   int     // their mean, so the gaps themselves are not kept
	lastDisplay  time.Duration
	resyncs      int64
	reconnects   int64
	redirects    int64
	firstFrame   time.Duration
	lastFrame    time.Duration
	onFrame      func(seq uint64, pix []byte)

	// Delta-chain state (receive goroutine only): lastSeq is the last frame
	// this client decoded, and pendingResync means a keyframe request is in
	// flight — non-keyframes are skipped (not decoded) until it lands.
	haveSeq       bool
	lastSeq       uint64
	pendingResync bool

	stopped  atomic.Bool
	stopCh   chan struct{}
	stopOnce sync.Once
}

// NewClient wraps a single connection to a stream server. When the
// connection dies the client stops; use NewReconnectingClient for a client
// that redials.
func NewClient(conn streamConn) *Client {
	return &Client{conn: conn, dec: newDecoder(), start: time.Now(), stopCh: make(chan struct{})}
}

// newDecoder returns the decoder a client displays from: tile-parallel on
// the shared worker pool, the pool the hub renders and encodes on. The
// pixels are those of a serial decode at any worker count.
func newDecoder() *codec.Decoder {
	d := codec.NewDecoder()
	d.SetPool(nil, 0)
	return d
}

// NewReconnectingClient returns a client that obtains connections from dial
// and, when a session dies mid-stream, redials under pol and resumes via the
// keyframe resync path. Run performs the initial dial.
func NewReconnectingClient(dial func() (net.Conn, error), pol ReconnectPolicy) *Client {
	return &Client{
		dial:   dial,
		pol:    pol.withDefaults(),
		dec:    newDecoder(),
		start:  time.Now(),
		stopCh: make(chan struct{}),
	}
}

// OnFrame installs a callback invoked (on the receive goroutine) with each
// decoded frame. The pixel slice is only valid during the call.
func (c *Client) OnFrame(fn func(seq uint64, pix []byte)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onFrame = fn
}

// now returns the client-clock offset.
func (c *Client) now() time.Duration { return time.Since(c.start) }

// currentConn returns the active connection (nil before the first dial).
func (c *Client) currentConn() streamConn {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.conn
}

// setConn swaps the active connection.
func (c *Client) setConn(conn streamConn) {
	c.connMu.Lock()
	c.conn = conn
	c.connMu.Unlock()
}

var errNoConn = errors.New("stream: client not connected")

// sendKeyReq asks the server for a keyframe (decoder resync).
func (c *Client) sendKeyReq() error {
	conn := c.currentConn()
	if conn == nil {
		return errNoConn
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return writeMsg(conn, msgKeyReq, nil)
}

// SendInput sends one user input (step 1 of Fig. 2) and returns its id.
func (c *Client) SendInput() (uint64, error) {
	id := atomic.AddUint64(&c.nextInput, 1)
	payload := inputMsg(id, int64(c.now()))
	conn := c.currentConn()
	if conn == nil {
		return id, errNoConn
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return id, writeMsg(conn, msgInput, payload)
}

// beginResync starts (or continues) a keyframe resync: one keyframe request
// per outage, then skip frames until the keyframe arrives. Receive-goroutine
// only.
func (c *Client) beginResync() error {
	if c.pendingResync {
		return nil
	}
	c.pendingResync = true
	c.mu.Lock()
	c.resyncs++
	c.mu.Unlock()
	return c.sendKeyReq()
}

// errBye distinguishes an orderly msgBye shutdown from a dead session.
var errBye = errors.New("stream: bye")

// runSession receives, decodes and accounts frames on one connection. It
// returns errBye on orderly shutdown and the transport/protocol error
// otherwise.
func (c *Client) runSession(conn streamConn) error {
	deadliner, hasDeadline := conn.(interface{ SetReadDeadline(time.Time) error })
	var buf []byte
	for {
		if c.pol.IdleTimeout > 0 && hasDeadline {
			if err := deadliner.SetReadDeadline(time.Now().Add(c.pol.IdleTimeout)); err != nil {
				return err
			}
		}
		typ, payload, err := readMsg(conn, buf)
		if err != nil {
			return err
		}
		buf = payload[:cap(payload)]
		switch typ {
		case msgFrame:
			m, bs, err := parseFrameMsg(payload)
			if errors.Is(err, errFrameChecksum) {
				// Corrupt bitstream: never decode it — resync instead.
				if kerr := c.beginResync(); kerr != nil {
					return kerr
				}
				continue
			}
			if err != nil {
				return err
			}
			isKey := m.parentSeq == 0 && codec.IsKeyframe(bs)
			if c.pendingResync && !isKey {
				continue // waiting for the requested keyframe
			}
			if !isKey && (!c.haveSeq || m.parentSeq != c.lastSeq) {
				// Broken delta chain: a frame this delta builds on never
				// reached us (lost, or dropped server-side after encode).
				// Decoding it would show wrong pixels with no error.
				if kerr := c.beginResync(); kerr != nil {
					return kerr
				}
				continue
			}
			pix, err := c.dec.Decode(bs)
			if errors.Is(err, codec.ErrNoKeyframe) {
				// Joined mid-stream: ask for a keyframe and skip until it
				// arrives.
				if kerr := c.beginResync(); kerr != nil {
					return kerr
				}
				continue
			}
			partial := errors.Is(err, codec.ErrTileCRC)
			if err != nil && !partial {
				return err
			}
			if partial {
				// Corrupt tiles in an otherwise valid frame: the intact
				// tiles were applied, so show what arrived — but the
				// reconstruction no longer matches the encoder, so treat the
				// delta chain as broken until a keyframe lands.
				c.haveSeq = false
				if isKey {
					// The awaited keyframe itself was damaged; ask again.
					c.pendingResync = false
				}
				if kerr := c.beginResync(); kerr != nil {
					return kerr
				}
			} else {
				c.haveSeq, c.lastSeq, c.pendingResync = true, m.seq, false
			}
			display := c.now()
			c.mu.Lock()
			c.frames++
			c.bytes += int64(len(bs))
			if c.firstFrame == 0 {
				c.firstFrame = display
			}
			c.lastFrame = display
			c.markDisplayLocked(display)
			if m.inputID != 0 {
				c.latencies.Add(float64(display-time.Duration(m.inputNanos)) / float64(time.Millisecond))
			}
			fn := c.onFrame
			c.mu.Unlock()
			if fn != nil {
				fn(m.seq, pix)
			}
		case msgBye:
			return errBye
		case msgInput, msgKeyReq:
			return fmt.Errorf("stream: unexpected client-bound message type %d", typ)
		default:
			return fmt.Errorf("stream: unknown message type %d", typ)
		}
	}
}

// markDisplayLocked folds one display instant into the inter-display mean
// (c.mu held).
func (c *Client) markDisplayLocked(display time.Duration) {
	if c.lastDisplay > 0 {
		c.interDispSum += float64(display-c.lastDisplay) / float64(time.Millisecond)
		c.interDispN++
	}
	c.lastDisplay = display
}

// isClosedErr reports whether err is an orderly-shutdown artifact.
func isClosedErr(err error) bool {
	if err == nil || errors.Is(err, net.ErrClosed) {
		return true
	}
	s := err.Error()
	return s == "EOF" || s == "io: read/write on closed pipe"
}

// Run receives, decodes and accounts frames until the stream ends. A nil
// return means orderly shutdown. A reconnecting client redials dead sessions
// under its policy; Run returns the last session error once MaxAttempts
// consecutive sessions fail without frame progress.
func (c *Client) Run() error {
	if c.dial == nil {
		err := c.runSession(c.currentConn())
		if errors.Is(err, errBye) || c.stopped.Load() || isClosedErr(err) {
			return nil
		}
		return err
	}
	rng := rand.New(rand.NewSource(c.pol.Seed))
	attempts, sessions := 0, 0
	for {
		if c.stopped.Load() {
			return nil
		}
		conn, err := c.dial()
		if err == nil {
			if r, ok := conn.(Redirector); ok && r.Redirected() {
				// A master-issued re-placement: the failures spent reaching it
				// belong to the old endpoint, so the budget starts over.
				attempts = 0
				c.mu.Lock()
				c.redirects++
				c.mu.Unlock()
			}
			c.setConn(conn)
			// Stop may have raced the dial: its conn.Close targeted whatever
			// currentConn held before the swap, which misses this one. After
			// the swap, either this load sees the stop flag (close here), or
			// the flag was set later and Stop's close runs after the swap and
			// hits the new conn — both orders leave it closed, so runSession
			// can never sit on a live stream past Stop.
			if c.stopped.Load() {
				conn.Close()
				return nil
			}
			if sessions > 0 {
				c.mu.Lock()
				c.reconnects++
				c.mu.Unlock()
			}
			sessions++
			// A fresh connection means fresh framing and a fresh decoder,
			// with the whole keyframe-chain state reset alongside it: the
			// first delta of the new session must be rejected and trigger a
			// resync, never matched against a stale lastSeq.
			c.dec = newDecoder()
			c.haveSeq, c.lastSeq, c.pendingResync = false, 0, false
			before := c.frameCount()
			err = c.runSession(conn)
			conn.Close()
			if c.stopped.Load() {
				return nil
			}
			if errors.Is(err, errBye) {
				if !c.pol.RedialOnBye {
					return nil
				}
				// A drain's goodbye: redial (the dial func re-resolves the
				// endpoint) instead of ending the run.
			}
			if c.frameCount() > before {
				attempts = 0 // the session made progress; reset the budget
			}
		}
		attempts++
		if attempts >= c.pol.MaxAttempts {
			return fmt.Errorf("stream: retry budget exhausted after %d attempts: %w", attempts, err)
		}
		delay := c.pol.BaseDelay << (attempts - 1)
		if delay > c.pol.MaxDelay || delay <= 0 {
			delay = c.pol.MaxDelay
		}
		delay += time.Duration((rng.Float64()*2 - 1) * c.pol.Jitter * float64(delay))
		// Stop/drain safety: the backoff sleep must not outlive Stop. stopCh
		// is closed exactly once (stopOnce), so this select wakes immediately
		// however the close interleaves with NewTimer, and the timer is
		// stopped on that path — a cancelled backoff leaves no timer, no
		// goroutine and no connection behind.
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-c.stopCh:
			t.Stop()
			return nil
		}
	}
}

// frameCount returns the frames decoded so far.
func (c *Client) frameCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames
}

// Stop closes the connection, ending Run (including a reconnect backoff
// sleep in progress).
func (c *Client) Stop() {
	c.stopped.Store(true)
	c.stopOnce.Do(func() { close(c.stopCh) })
	if conn := c.currentConn(); conn != nil {
		conn.Close()
	}
}

// Report summarizes the client-side measurements.
type Report struct {
	Frames         int64
	Bytes          int64
	FPS            float64 // frames over the active span
	MeanLatency    float64 // ms, motion-to-photon
	P99Latency     float64 // ms
	LatencySamples int
	MeanInterMs    float64
	Resyncs        int64 // keyframe resyncs (mid-stream joins, chain breaks, corruption)
	Reconnects     int64 // sessions redialed after a mid-stream death
	Redirects      int64 // dials the resolver re-placed onto a new endpoint
	RetryBudget    int   // consecutive-failure budget (0 for single-conn clients)
}

// Report returns the current measurements.
func (c *Client) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Report{
		Frames:         c.frames,
		Bytes:          c.bytes,
		MeanLatency:    c.latencies.Mean(),
		P99Latency:     c.latencies.Percentile(99),
		LatencySamples: c.latencies.N(),
		Resyncs:        c.resyncs,
		Reconnects:     c.reconnects,
		Redirects:      c.redirects,
	}
	if c.interDispN > 0 {
		r.MeanInterMs = c.interDispSum / float64(c.interDispN)
	}
	if c.dial != nil {
		r.RetryBudget = c.pol.MaxAttempts
	}
	if span := c.lastFrame - c.firstFrame; span > 0 && c.frames > 1 {
		r.FPS = float64(c.frames-1) / span.Seconds()
	}
	return r
}
