package stream

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"odr/internal/codec"
	"odr/internal/core"
	"odr/internal/frame"
	"odr/internal/obs"
	"odr/internal/realrt"
)

// PolicyKind selects the server's FPS regulation strategy.
type PolicyKind int

// The regulation strategies of the real-time stack.
const (
	// NoRegulation renders as fast as possible; the newest frame wins and
	// encoded frames queue (deeply) toward the network.
	NoRegulation PolicyKind = iota
	// IntervalRegulation starts each render on a fixed interval grid.
	IntervalRegulation
	// ODRRegulation is OnDemand Rendering: Mul-Buf1/Mul-Buf2 backpressure,
	// the Algorithm 1 pacer, and PriorityFrame.
	ODRRegulation
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

// ServerConfig configures Serve.
type ServerConfig struct {
	// Width and Height are the stream resolution (defaults 320×180).
	Width, Height int
	// Policy selects the regulation strategy.
	Policy PolicyKind
	// TargetFPS is the QoS goal for Interval and ODR (0 = maximize).
	TargetFPS float64
	// Codec configures the encoder.
	Codec codec.Options
	// RenderCost, when set, is sampled per frame to emulate a heavier GPU
	// (slept inside the render step).
	RenderCost func() time.Duration
	// QueueFrames is the send-queue depth for the push policies
	// (default 256, emulating deep socket buffers).
	QueueFrames int
	// AdaptiveQuality lets the server coarsen quantization when the
	// connection backpressures (sender blocked on writes) and restore it
	// when the path has headroom — bitrate adaptation in the spirit of the
	// §2-cited encoding-adaptation work, orthogonal to FPS regulation.
	AdaptiveQuality bool
	// WriteTimeout, when > 0, bounds each frame write: a client that cannot
	// drain its socket for this long is evicted (the session ends with an
	// eviction error) instead of stalling the stream forever. Frames already
	// queue latest-wins (drop-oldest), so eviction is the last resort after
	// dropping has failed to keep up. 0 disables the deadline.
	WriteTimeout time.Duration
	// ReadTimeout, when > 0, bounds each read on the input path; it doubles
	// as a liveness check that catches half-open connections (a peer that
	// vanished without closing). 0 disables it — an idle but healthy client
	// sends nothing, so only set this when inputs (or keepalives) flow.
	ReadTimeout time.Duration
	// Trace, when non-nil, records the frame lifecycle (render, copy,
	// encode, tx spans; input/display instants; mulbuf-drop and
	// priority-frame events) against this server's wall clock — the same
	// vocabulary as the simulator, exportable as a Perfetto timeline of a
	// real stream. Nil disables tracing at nil-check cost.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives live counters and histograms under
	// the obs.FrameInstruments names (shared with the simulator), for the
	// -debug-addr /debug/odr endpoint. Nil disables it at nil-check cost.
	Metrics *obs.Registry
	// SessionLabel names this session in the labeled live series
	// (odr_session_fps{session=...} and friends). Empty picks "default".
	SessionLabel string
}

func (c *ServerConfig) applyDefaults() {
	if c.Width == 0 {
		c.Width = 320
	}
	if c.Height == 0 {
		c.Height = 180
	}
	if c.QueueFrames == 0 {
		c.QueueFrames = 256
	}
}

// ServerStats counts server-side events; all fields are atomics.
type ServerStats struct {
	Rendered int64
	Encoded  int64
	Sent     int64
	Dropped  int64
	Priority int64
	Inputs   int64
	KeyReqs  int64
	Evicted  int64
}

// snapshotInt64 reads one counter.
func load(v *int64) int64 { return atomic.LoadInt64(v) }

// Snapshot returns a copy of the counters.
func (s *ServerStats) Snapshot() ServerStats {
	return ServerStats{
		Rendered: load(&s.Rendered),
		Encoded:  load(&s.Encoded),
		Sent:     load(&s.Sent),
		Dropped:  load(&s.Dropped),
		Priority: load(&s.Priority),
		Inputs:   load(&s.Inputs),
		KeyReqs:  load(&s.KeyReqs),
		Evicted:  load(&s.Evicted),
	}
}

// Server streams the synthetic game to one client connection.
type Server struct {
	cfg   ServerConfig
	conn  net.Conn
	dom   *realrt.Domain
	game  *Game
	box   *core.InputBox
	buf1  *core.MultiBuffer
	buf2  *core.MultiBuffer // ODR only
	sendq chan *frame.Frame // push policies only
	pacer *core.Pacer
	enc   *codec.Encoder

	stats ServerStats

	stopOnce sync.Once
	stopping chan struct{}
	wg       sync.WaitGroup

	// Drain sequencing: Drain closes draining; the app loop renders one
	// final frame and retires; the pipeline flushes; the send loop writes
	// msgBye and closes drained on exit.
	drainOnce sync.Once
	draining  chan struct{}
	drained   chan struct{}

	// evictCtr counts slow-client evictions in the metrics registry
	// (nil-safe no-op without one).
	evictCtr *obs.Counter

	// wantKey is set by a client keyframe request (decoder resync after
	// joining mid-stream or recovering from loss) and consumed by the
	// encode loop.
	wantKey atomic.Bool

	// sendBlockedNs accumulates time the sender spent blocked in writes;
	// quantShift mirrors the encoder's current setting (adaptive quality).
	sendBlockedNs int64
	quantShift    int64

	// carried holds input stamps whose frames were dropped before being
	// sent; they attach to the next frame that can answer them — one
	// rendered after the dropped frame — so motion-to-photon accounting
	// survives latest-wins and queue-full drops (same mechanism as the
	// simulator's pipeline). Taken by the render loop for every new frame,
	// and by the push policies' encode loop for the next frame it admits.
	carriedMu sync.Mutex
	carried   []carriedStamp

	// pool recycles raw frame buffers between render and encode.
	pool sync.Pool
	// payloadFree recycles encoded frame payloads (frame header +
	// bitstream in one buffer) between the sender and the encoder. A
	// plain channel free list avoids sync.Pool's interface boxing on the
	// per-frame path; when it runs dry the encoder allocates.
	payloadFree chan []byte

	// Observability (nil-safe; see ServerConfig.Trace/Metrics).
	tr    *obs.Tracer
	ins   obs.FrameInstruments
	probe *sessionProbe
}

// carriedStamp is an input stamp waiting for a frame to ride on, with the
// seq of the dropped frame it came from: only a later frame shows the
// game's response to it.
type carriedStamp struct {
	from uint64
	frame.InputStamp
}

// NewServer prepares a server for conn; call Run to start streaming.
func NewServer(conn net.Conn, cfg ServerConfig) *Server {
	cfg.applyDefaults()
	if cfg.SessionLabel == "" {
		cfg.SessionLabel = "default"
	}
	dom := realrt.NewDomain()
	s := &Server{
		cfg:      cfg,
		conn:     conn,
		dom:      dom,
		game:     NewGame(cfg.Width, cfg.Height),
		box:      core.NewInputBox(dom),
		buf1:     core.NewMultiBuffer(dom),
		pacer:    core.NewPacer(cfg.TargetFPS),
		enc:      codec.NewEncoder(cfg.Width, cfg.Height, cfg.Codec),
		stopping: make(chan struct{}),
		draining: make(chan struct{}),
		drained:  make(chan struct{}),
		tr:       cfg.Trace,
		ins:      obs.NewFrameInstruments(cfg.Metrics),
		evictCtr: cfg.Metrics.Counter(obs.NameSessionsEvicted),
	}
	s.probe = newSessionProbe(cfg.Metrics, cfg.SessionLabel)
	recordSessionStart(cfg.Metrics, cfg.Policy.String())
	s.game.ExtraCost = cfg.RenderCost
	s.quantShift = int64(cfg.Codec.QuantShift)
	size := s.game.FrameBytes()
	s.pool.New = func() any { return make([]byte, size) }
	s.payloadFree = make(chan []byte, 16)
	if cfg.Policy == ODRRegulation {
		s.buf2 = core.NewMultiBuffer(dom)
		// PriorityFrame: input arrivals cancel the Mul-Buf1 wait.
		s.box.Subscribe(s.buf1.Changed())
	} else {
		s.sendq = make(chan *frame.Frame, cfg.QueueFrames)
	}
	if s.tr != nil || cfg.Metrics != nil {
		// MulBuf drops and pacer delays surface through the core hooks so
		// the event stream matches the simulator's.
		onDrop := func(n int, at uint64) {
			s.tr.Instant(obs.TrackRender, "mulbuf-drop", at, s.dom.Now())
			s.ins.Dropped.Add(int64(n))
		}
		s.buf1.OnDrop = onDrop
		if s.buf2 != nil {
			s.buf2.OnDrop = onDrop
		}
		s.pacer.OnDelay = func(end, d time.Duration) {
			s.tr.Span(obs.TrackPacer, "pace", 0, end, end+d)
		}
	}
	return s
}

// Stats returns the server's counters (atomically readable while running).
func (s *Server) Stats() *ServerStats { return &s.stats }

// DebugSnapshot returns the /debug/odr JSON view of this session: the
// regulation configuration, the live counters and the MulBuf drop state.
// It is safe to call from any goroutine while the server is streaming.
func (s *Server) DebugSnapshot() map[string]any {
	st := s.stats.Snapshot()
	snap := map[string]any{
		"policy":            s.cfg.Policy.String(),
		"target_fps":        s.cfg.TargetFPS,
		"pacer_interval_ms": float64(s.pacer.Interval()) / float64(time.Millisecond),
		"rendered":          st.Rendered,
		"encoded":           st.Encoded,
		"sent":              st.Sent,
		"dropped":           st.Dropped,
		"priority":          st.Priority,
		"inputs":            st.Inputs,
		"key_requests":      st.KeyReqs,
		"quant_shift":       s.CurrentQuantShift(),
		"mulbuf1_drops":     s.buf1.Drops(),
	}
	if s.buf2 != nil {
		snap["mulbuf2_drops"] = s.buf2.Drops()
	}
	return snap
}

// Game exposes the synthetic application (for tests).
func (s *Server) Game() *Game { return s.game }

// Run streams until the connection closes or Stop is called. It returns the
// first connection error (io.EOF/closed-connection errors are normal
// shutdown and reported as nil).
func (s *Server) Run() error {
	errCh := make(chan error, 4)
	s.wg.Add(4)
	go s.appLoop()
	go s.encodeLoop(errCh)
	go s.sendLoop(errCh)
	go s.inputLoop(errCh)
	err := <-errCh
	s.Stop()
	s.wg.Wait()
	s.probe.close(s.dom.Now(), false)
	if err != nil && !isClosedErr(err) {
		return err
	}
	return nil
}

// Stop shuts the server down and closes the connection.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopping)
		s.buf1.Close()
		if s.buf2 != nil {
			s.buf2.Close()
		}
		s.conn.Close()
	})
}

func (s *Server) stopped() bool {
	select {
	case <-s.stopping:
		return true
	default:
		return false
	}
}

// ErrDrainTimeout is returned by Drain when the pipeline could not flush the
// final frame within the allotted time; the session is stopped regardless.
var ErrDrainTimeout = errors.New("stream: drain timed out")

// Drain ends the stream gracefully: the application renders one last frame,
// the pipeline flushes everything already queued, the client receives that
// final frame followed by an orderly msgBye, and only then does the
// connection close. It returns ErrDrainTimeout if the flush did not finish
// in time (slow or dead client); either way the server is stopped when Drain
// returns.
func (s *Server) Drain(timeout time.Duration) error {
	s.drainOnce.Do(func() { close(s.draining) })
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-s.drained:
		s.Stop()
		return nil
	case <-s.stopping:
		return nil
	case <-t.C:
		s.Stop()
		return ErrDrainTimeout
	}
}

func (s *Server) drainRequested() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// evict records a slow-client eviction and returns the error Run reports.
func (s *Server) evict(op string, err error) error {
	atomic.AddInt64(&s.stats.Evicted, 1)
	s.evictCtr.Inc()
	s.tr.Instant(obs.TrackNetwork, "evict", 0, s.dom.Now())
	return fmt.Errorf("stream: session evicted (%s stalled beyond deadline): %w", op, err)
}

// isTimeoutErr reports a deadline-exceeded I/O error.
func isTimeoutErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// appLoop is the 3D application: gate (per policy), consume inputs, render,
// submit.
func (s *Server) appLoop() {
	defer s.wg.Done()
	w := realrt.NewWaiter(s.dom)
	interval := time.Duration(0)
	if s.cfg.Policy == IntervalRegulation && s.cfg.TargetFPS > 0 {
		interval = time.Duration(float64(time.Second) / s.cfg.TargetFPS)
	}
	nextTick := s.dom.Now()
	var seq uint64
	for !s.stopped() {
		// Gate.
		switch s.cfg.Policy {
		case ODRRegulation:
			s.buf1.WaitBackFree(w, s.box.PendingLocked)
		case IntervalRegulation:
			if interval > 0 {
				now := s.dom.Now()
				if nextTick <= now {
					nextTick += ((now-nextTick)/interval + 1) * interval
				}
				w.Sleep(nextTick - now)
				nextTick += interval
			}
		}
		if s.stopped() {
			return
		}
		if s.drainRequested() {
			// Final frame: render once more, jump the queue (replacing
			// anything not yet encoding), then retire the producer. Closing
			// buf1 lets the encoder drain what's buffered and shut the
			// pipeline down stage by stage toward the msgBye.
			seq++
			s.renderFinalFrame(seq)
			s.buf1.Close()
			return
		}
		// Render.
		stamps := s.box.ConsumePending()
		for range stamps {
			s.game.OnInput()
		}
		seq++
		stamps = append(s.takeCarried(seq), stamps...)
		pix := s.pool.Get().([]byte)
		start := s.dom.Now()
		s.game.Render(pix)
		f := &frame.Frame{Seq: seq, Pixels: pix, RenderStart: start, RenderEnd: s.dom.Now()}
		core.Tag(f, stamps)
		s.tr.Span(obs.TrackRender, "render", f.Seq, f.RenderStart, f.RenderEnd)
		s.ins.Rendered.Inc()
		s.ins.Render.ObserveDuration(f.RenderEnd - f.RenderStart)
		s.probe.onRender(f.RenderEnd - f.RenderStart)
		if f.Priority {
			atomic.AddInt64(&s.stats.Priority, 1)
			s.tr.Instant(obs.TrackRender, "priority-frame", f.Seq, f.RenderStart)
			s.ins.Priority.Inc()
		}
		atomic.AddInt64(&s.stats.Rendered, 1)
		// Submit.
		if s.cfg.Policy == ODRRegulation && !f.Priority {
			s.buf1.Put(w, f)
			continue
		}
		// Priority frames and the push policies' latest-wins slot both use
		// PutPriority: replace anything not yet being encoded.
		for _, d := range s.buf1.PutPriority(f) {
			s.addCarried(d)
			s.recycle(d)
			atomic.AddInt64(&s.stats.Dropped, 1)
		}
	}
}

// renderFinalFrame renders the drain frame and queues it ahead of any
// not-yet-encoding frame.
func (s *Server) renderFinalFrame(seq uint64) {
	stamps := s.box.ConsumePending()
	for range stamps {
		s.game.OnInput()
	}
	stamps = append(s.takeCarried(seq), stamps...)
	pix := s.pool.Get().([]byte)
	start := s.dom.Now()
	s.game.Render(pix)
	f := &frame.Frame{Seq: seq, Pixels: pix, RenderStart: start, RenderEnd: s.dom.Now()}
	core.Tag(f, stamps)
	s.tr.Span(obs.TrackRender, "render", f.Seq, f.RenderStart, f.RenderEnd)
	s.ins.Rendered.Inc()
	s.probe.onRender(f.RenderEnd - f.RenderStart)
	atomic.AddInt64(&s.stats.Rendered, 1)
	for _, d := range s.buf1.PutPriority(f) {
		s.addCarried(d)
		s.recycle(d)
		atomic.AddInt64(&s.stats.Dropped, 1)
	}
}

// addCarried stores the input stamps of dropped frame d.
func (s *Server) addCarried(d *frame.Frame) {
	if len(d.Inputs) == 0 {
		return
	}
	s.carriedMu.Lock()
	for _, st := range d.Inputs {
		s.carried = append(s.carried, carriedStamp{from: d.Seq, InputStamp: st})
	}
	s.carriedMu.Unlock()
}

// takeCarried drains the stamps carried from frames older than seq — the
// ones a frame numbered seq was rendered late enough to answer.
func (s *Server) takeCarried(seq uint64) []frame.InputStamp {
	s.carriedMu.Lock()
	defer s.carriedMu.Unlock()
	var out []frame.InputStamp
	keep := s.carried[:0]
	for _, c := range s.carried {
		if c.from < seq {
			out = append(out, c.InputStamp)
		} else {
			keep = append(keep, c)
		}
	}
	s.carried = keep
	return out
}

// admitPush is the push policies' (NoReg, Interval) queue-full drop, taken
// before any encoding work: the encoder is the send queue's only producer,
// so room now is room when the encoded frame arrives, and every frame that
// is encoded is sent. Dropping after the encode instead would break the
// delta chain — the client skips every frame until a keyframe round trip
// completes, and the input stamps riding on the skipped frames are never
// sampled (on a fast host that was all of them). A refused frame's stamps
// wait for the next admitted one.
func (s *Server) admitPush(f *frame.Frame) bool {
	if len(s.sendq) < cap(s.sendq) {
		return true
	}
	s.addCarried(f)
	s.recycle(f)
	atomic.AddInt64(&s.stats.Dropped, 1) // tail-drop: queue full
	s.tr.Instant(obs.TrackNetwork, "tail-drop", f.Seq, s.dom.Now())
	s.ins.Dropped.Inc()
	return false
}

// claimCarried moves the stamps carried from frames older than f onto f,
// ahead of f's own (they were issued earlier): the oldest one becomes the
// frame's motion-to-photon reference.
func (s *Server) claimCarried(f *frame.Frame) {
	stamps := s.takeCarried(f.Seq)
	if len(stamps) == 0 {
		return
	}
	stamps = append(stamps, f.Inputs...)
	f.Inputs = nil
	core.Tag(f, stamps)
}

// recycle returns a frame's raw buffer to the pool.
func (s *Server) recycle(f *frame.Frame) {
	if f.Pixels != nil && len(f.Pixels) == s.game.FrameBytes() {
		s.pool.Put(f.Pixels)
		f.Pixels = nil
	}
}

// getPayload returns a recycled payload buffer sized for the frame header,
// allocating a fresh one when the free list is empty.
func (s *Server) getPayload() []byte {
	select {
	case b := <-s.payloadFree:
		return b[:frameHeaderLen]
	default:
		return make([]byte, frameHeaderLen, frameHeaderLen+s.game.FrameBytes()/8)
	}
}

// putPayload returns an encoded payload to the free list (dropping it to the
// GC when the list is full) and clears the frame's reference to it.
func (s *Server) putPayload(f *frame.Frame) {
	b := f.Pixels
	f.Pixels = nil
	if b == nil {
		return
	}
	select {
	case s.payloadFree <- b:
	default:
	}
}

// adaptQuality adjusts the encoder's quantization from the sender's
// observed write-blocking: a saturated path coarsens, a clear path refines
// back toward the configured base. Called from the encode loop (the
// encoder's owner) roughly twice a second.
func (s *Server) adaptQuality(lastCheck *time.Time, blockedAt *int64) {
	const window = 500 * time.Millisecond
	if time.Since(*lastCheck) < window {
		return
	}
	blocked := atomic.LoadInt64(&s.sendBlockedNs)
	frac := float64(blocked-*blockedAt) / float64(window)
	*blockedAt = blocked
	*lastCheck = time.Now()
	q := atomic.LoadInt64(&s.quantShift)
	switch {
	case frac > 0.5 && q < 6:
		q++
	case frac < 0.1 && q > int64(s.cfg.Codec.QuantShift):
		q--
	default:
		return
	}
	atomic.StoreInt64(&s.quantShift, q)
	s.enc.SetQuantShift(uint(q))
}

// CurrentQuantShift reports the encoder's quantization (adaptive quality).
func (s *Server) CurrentQuantShift() uint {
	return uint(atomic.LoadInt64(&s.quantShift))
}

// encodeState is the encode loop's private state across frames.
type encodeState struct {
	scratch     []byte // the proxy's framebuffer copy
	lastCheck   time.Time
	blockedAt   int64
	lastEncoded uint64 // parent-chain tag: seq of the last encoded frame
}

// encodeOne runs the proxy's steps for one frame — framebuffer copy, encode,
// frame header — and leaves header+bitstream in f.Pixels for the sender.
func (s *Server) encodeOne(f *frame.Frame, st *encodeState) error {
	start := s.dom.Now()
	if s.cfg.AdaptiveQuality {
		s.adaptQuality(&st.lastCheck, &st.blockedAt)
	}
	if s.wantKey.Swap(false) {
		s.enc.ForceKeyframe()
	}
	// Step 4: the framebuffer copy is a real copy.
	copy(st.scratch, f.Pixels)
	s.recycle(f)
	f.CopyEnd = s.dom.Now()
	// Step 5: encode straight after a recycled frame-header prefix, so
	// the sender can write header+bitstream without assembling a new
	// payload per frame.
	payload, err := s.enc.EncodeAppend(s.getPayload(), st.scratch)
	if err != nil {
		return fmt.Errorf("stream: encode: %w", err)
	}
	bs := payload[frameHeaderLen:]
	var parent uint64
	if !codec.IsKeyframe(bs) {
		parent = st.lastEncoded
	}
	st.lastEncoded = f.Seq
	putFrameHeader(payload, frameMeta{
		seq:         f.Seq,
		parentSeq:   parent,
		inputID:     uint64(f.Input),
		inputNanos:  int64(f.InputTime),
		renderNanos: int64(f.RenderEnd),
	}, bs)
	f.EncodeStart = f.CopyEnd
	f.EncodeEnd = s.dom.Now()
	f.Bytes = len(payload) - frameHeaderLen
	f.Pixels = payload // carries header+bitstream to the sender
	atomic.AddInt64(&s.stats.Encoded, 1)
	s.tr.Span(obs.TrackProxy, "copy", f.Seq, start, f.CopyEnd)
	s.tr.Span(obs.TrackProxy, "encode", f.Seq, f.EncodeStart, f.EncodeEnd)
	s.ins.Encoded.Inc()
	s.ins.Copy.ObserveDuration(f.CopyEnd - start)
	s.ins.Encode.ObserveDuration(f.EncodeEnd - f.EncodeStart)
	s.probe.onEncode(f.EncodeEnd - start)
	tiles, dirty := s.enc.TileStats()
	s.ins.TilesCoded.Add(int64(tiles))
	s.ins.TilesDirty.Add(int64(dirty))
	s.ins.DirtyRatio.Set(float64(dirty) / float64(tiles))
	s.probe.onTiles(tiles, dirty)
	return nil
}

// encodeLoop is the server proxy: copy + encode + (for ODR) pace.
func (s *Server) encodeLoop(errCh chan<- error) {
	defer s.wg.Done()
	w := realrt.NewWaiter(s.dom)
	st := &encodeState{scratch: make([]byte, s.game.FrameBytes()), lastCheck: time.Now()}
	for {
		f := s.buf1.Acquire(w)
		if f == nil {
			// Producer retired (Stop or Drain): pass the shutdown down the
			// pipeline so the sender flushes everything already encoded —
			// the sender, not this loop, reports completion on errCh.
			if s.sendq != nil {
				close(s.sendq)
			} else {
				s.buf2.Close()
			}
			return
		}
		if s.cfg.Policy != ODRRegulation {
			if !s.admitPush(f) {
				s.buf1.Release()
				continue
			}
			s.claimCarried(f)
		}
		start := s.dom.Now()
		if err := s.encodeOne(f, st); err != nil {
			errCh <- err
			return
		}

		if s.cfg.Policy == ODRRegulation {
			if f.Priority {
				for _, d := range s.buf2.PutPriority(f) {
					s.addCarried(d)
					s.putPayload(d)
					atomic.AddInt64(&s.stats.Dropped, 1)
				}
				s.pacer.SkipFrame()
			} else {
				if !s.buf2.Put(w, f) {
					errCh <- nil
					return
				}
				if d := s.pacer.PaceAfterObserved(start, s.dom.Now()); d > 0 {
					w.Sleep(d)
				}
			}
			s.buf1.Release()
			continue
		}
		s.buf1.Release()
		s.sendq <- f // admitPush saw the room, and only this loop fills it
	}
}

// sendLoop transmits encoded frames. Each write runs under the configured
// WriteTimeout; a client that cannot drain the socket is evicted. When the
// queue ends because of a Drain, the flushed stream is sealed with msgBye.
func (s *Server) sendLoop(errCh chan<- error) {
	defer s.wg.Done()
	defer close(s.drained)
	w := realrt.NewWaiter(s.dom)
	send := func(f *frame.Frame) error {
		// f.Pixels already holds header+bitstream (built at encode time).
		start := time.Now()
		txStart := s.dom.Now()
		if s.cfg.WriteTimeout > 0 {
			s.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		if err := writeMsg(s.conn, msgFrame, f.Pixels); err != nil {
			if isTimeoutErr(err) {
				return s.evict("frame write", err)
			}
			return err
		}
		atomic.AddInt64(&s.sendBlockedNs, int64(time.Since(start)))
		atomic.AddInt64(&s.stats.Sent, 1)
		txEnd := s.dom.Now()
		s.tr.Span(obs.TrackNetwork, "tx", f.Seq, txStart, txEnd)
		s.ins.Displayed.Inc()
		s.ins.Tx.ObserveDuration(txEnd - txStart)
		var mtpUs int64
		if f.Input != 0 {
			mtpUs = s.probe.mtpEstimate(txEnd)
			if mtpUs > 0 {
				s.ins.MtP.Observe(mtpUs)
			}
		}
		s.probe.onSend(txEnd, f.Bytes, txEnd-txStart, mtpUs)
		s.putPayload(f)
		return nil
	}
	finish := func() {
		if s.drainRequested() {
			if s.cfg.WriteTimeout > 0 {
				s.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			}
			writeMsg(s.conn, msgBye, nil)
		}
		errCh <- nil
	}
	if s.cfg.Policy == ODRRegulation {
		for {
			f := s.buf2.Acquire(w)
			if f == nil {
				finish()
				return
			}
			err := send(f)
			s.buf2.Release()
			if err != nil {
				errCh <- err
				return
			}
		}
	}
	for f := range s.sendq {
		if err := send(f); err != nil {
			errCh <- err
			return
		}
	}
	finish()
}

// inputLoop receives user inputs (step 2 of Fig. 2: the proxy captures the
// input and forwards it to the 3D application).
func (s *Server) inputLoop(errCh chan<- error) {
	defer s.wg.Done()
	var buf []byte
	for {
		if s.cfg.ReadTimeout > 0 {
			s.conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		typ, payload, err := readMsg(s.conn, buf)
		if err != nil {
			if isTimeoutErr(err) {
				err = s.evict("input read", err)
			}
			errCh <- err
			return
		}
		buf = payload[:cap(payload)]
		switch typ {
		case msgInput:
			id, nanos, err := parseInputMsg(payload)
			if err != nil {
				errCh <- err
				return
			}
			atomic.AddInt64(&s.stats.Inputs, 1)
			s.tr.Instant(obs.TrackInput, "input", id, s.dom.Now())
			s.ins.Inputs.Inc()
			s.probe.onInput(s.dom.Now())
			s.box.OnInput(frame.InputID(id), time.Duration(nanos))
		case msgKeyReq:
			atomic.AddInt64(&s.stats.KeyReqs, 1)
			s.wantKey.Store(true)
		case msgBye:
			errCh <- nil
			return
		default:
			errCh <- fmt.Errorf("stream: unexpected message type %d", typ)
			return
		}
	}
}

// isClosedErr reports whether err is an orderly-shutdown artifact.
func isClosedErr(err error) bool {
	if err == nil {
		return true
	}
	if errors.Is(err, net.ErrClosed) {
		return true
	}
	s := err.Error()
	return s == "EOF" || s == "io: read/write on closed pipe"
}
