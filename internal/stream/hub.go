package stream

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"odr/internal/codec"
	"odr/internal/core"
	"odr/internal/frame"
	"odr/internal/obs"
	"odr/internal/realrt"
	"odr/internal/timerwheel"
)

// Hub streams one game to its clients — one viewer or many, in the "render
// once, view many" shape of spectating and co-streaming. It is the stack's
// only serving path, under any regulation policy (HubConfig.Policy). Under
// ODR the shared game renders on demand under one core.RenderClock: at the
// rate the fastest attached viewer can consume (never above the hub target),
// not at all while nobody is attached, and with one extra frame per input
// (PriorityFrame style) that leaves the regular cadence where it was; each
// frame is then encoded once per resolution lane and the resulting artifact
// fans out to every viewer on the lane; the renderer waits for each viewed
// lane's back buffer (Mul-Buf1), so every viewed lane encodes each regular
// frame. Every client keeps its own two-slot buffer and its own pacer, and
// the lane never waits on one, so a slow or slower-paced client never stalls
// the game or its peers — its obsolete artifacts are simply dropped before
// transmission, which is ODR's on-demand principle applied per viewer.
// A viewer whose delta chain skipped frames is repaired by splicing
// intra-coded tiles out of the shared encoder's state, never by forcing a
// keyframe on everyone; see encLane and codec.AppendSplice. A late joiner or
// a keyframe request does not wait for the next render either: it is served
// at once a key spliced from the newest frame already rendered (see
// Hub.newest and hubSession.sendArtifact).
type Hub struct {
	cfg   HubConfig
	dom   *realrt.Domain
	epoch time.Time // shared epoch; session domains align to it
	game  *Game
	box   *core.InputBox
	clock *core.RenderClock

	// rates counts attached sessions by the frame rate they can consume
	// (ClientFPS capped at the hub target); its largest key is the render
	// clock's demand. demandMu also orders the SetDemand calls, so the last
	// one published matches the final membership.
	demandMu sync.Mutex
	rates    map[float64]int

	// Lanes (one shared encoder per downscale divisor) are created lazily
	// under laneMu and published copy-on-write (never a nil pointer); the
	// render loop and the input readers read the slice lock-free.
	laneMu sync.Mutex
	lanes  atomic.Pointer[[]*encLane]
	laneWG sync.WaitGroup

	// newest is the last frame rendered, kept by one reference (newestRefs
	// counts every holder of its pixels) so that an attach can offer it to
	// a lane that has not seen it: a new lane, or one emptied while the
	// others kept rendering. offerMu orders every offer — the render loop's
	// and an attach's — so a lane sees seqs in order and each seq once.
	offerMu    sync.Mutex
	newest     *frame.Frame
	newestRefs *atomic.Int32

	nextID atomic.Uint32

	stopOnce sync.Once
	stopping chan struct{}
	// runMu orders Run's renderWG.Add against the Wait in Stop and Drain: Run
	// registers under it unless the hub is already ending, and both enders
	// stop the clock under it after closing their channel.
	runMu    sync.Mutex
	renderWG sync.WaitGroup

	// Drain sequencing: Drain closes draining; the renderer retires, each
	// lane flushes its queued frame, every session flushes its queued
	// artifacts and seals with msgBye, then the hub stops.
	drainOnce sync.Once
	draining  chan struct{}

	// pixFree recycles render pixel buffers, returned by frame retirement
	// once every lane is done with a frame.
	pixMu   sync.Mutex
	pixFree [][]byte

	// sendErr, when non-nil, is consulted by every session before sending
	// (test hook: fault injection on the send path without breaking conns).
	sendErr atomic.Pointer[func(sessionID uint32) error]

	// tileCache is the content-addressed encoded-tile cache every lane
	// encoder shares: a tile's payload is a pure function of its content
	// bytes, so one cache serves frame payloads, stripe refreshes and splice
	// cuts across all lanes without affecting any bitstream byte.
	tileCache *codec.TileCache

	// Cache stat publication: TileCache keeps its own totals; the hub mirrors
	// them into the registry as deltas after every encode and every splice,
	// so a post-drain scrape is exact. cachePubMu orders concurrent
	// publishers (lane loops, session send loops).
	cachePubMu                       sync.Mutex
	pubHits, pubMisses, pubEvictions int64

	// Observability. The registry is the hub's only counter store, and ins
	// its one bundle of instruments: Snapshot, Rendered, Evicted and
	// SenderBatchStats read it back. The hub-level probe carries the shared
	// renderer's and shared encoders' energy under session="shared";
	// per-viewer probes live on each hubSession. The tracer is nil-safe (see
	// HubConfig.Trace).
	tr    *obs.Tracer
	ins   *instruments
	probe *sessionProbe

	// eng is the event-driven session engine: a fixed sender worker pool, a
	// pacing timer wheel, and a shared input-reader pool serve every
	// session, so the hub's goroutines do not grow with its viewers (see
	// engine.go).
	eng *hubEngine

	// paceHook, when non-nil, observes every per-session pacing decision
	// (test hook: the differential pacing test shadows the engine's
	// arithmetic against a reference pacer). Set before Run; read by sender
	// workers.
	paceHook func(id uint32, start, end, d time.Duration)
}

// HubConfig configures a Hub.
type HubConfig struct {
	// Width and Height are the stream resolution (defaults 320×180).
	Width, Height int
	// Policy is the render rule the shared renderer starts frames by
	// (default core.RuleODR: paced slots plus one extra frame per input).
	// It also picks the buffers: under ODR the renderer waits for each lane's
	// back buffer (Mul-Buf1) and each session keeps a core.MultiBuffer
	// (Mul-Buf2, see hubSession.put); under RuleInterval and RuleNoReg, the
	// push rules, lanes are latest-wins and each session queues encoded
	// frames in a bounded FIFO. Its String labels
	// odr_sessions_started_total and /debug/odr. NewHub panics on any other
	// rule, RuleRVS included (see CheckRule).
	Policy core.RenderRule
	// TargetFPS paces the shared renderer (default 60).
	TargetFPS float64
	// Codec configures the shared per-lane encoders.
	Codec codec.Options
	// Trace, when non-nil, records the shared game's frame lifecycle and
	// per-viewer events against the hub's wall clock (the simulator's
	// vocabulary; export with Trace.WriteChromeTrace).
	Trace *obs.Tracer
	// Metrics receives live hub telemetry under this package's Name*
	// families (see RegisterLiveMetrics). It is the hub's only
	// counter store; nil gives the hub a registry of its own, so Snapshot and
	// the counters work either way.
	Metrics *obs.Registry
	// WriteTimeout, when > 0, bounds each per-session frame write; a viewer
	// that cannot drain its socket for this long is evicted. Each session's
	// buffer already shields the hub from slow viewers, so eviction only
	// fires when even single-frame writes stall. 0 disables it.
	WriteTimeout time.Duration
	// ReadTimeout, when > 0, evicts a session that has sent no input byte
	// for this long, catching half-open and stalled viewer connections. 0
	// disables it — idle viewers send nothing, so only set this when inputs
	// (or keepalives) flow.
	ReadTimeout time.Duration
	// Logf, when non-nil, receives the final stats summary from Stop (and
	// nothing else); typically log.Printf. Headless runs set it so every
	// hub leaves evidence of what it did.
	Logf func(format string, args ...any)
}

func (c *HubConfig) applyDefaults() {
	if c.Width == 0 {
		c.Width = 320
	}
	if c.Height == 0 {
		c.Height = 180
	}
	if c.TargetFPS == 0 {
		c.TargetFPS = 60
	}
}

// hubSession is one attached client.
type hubSession struct {
	id   uint32
	hub  *Hub
	lane *encLane
	conn net.Conn

	// dom is the session's own wait domain (hub-epoch aligned), so a
	// blocked viewer never contends on a lock shared with the renderer,
	// the lane, or any other viewer.
	dom *realrt.Domain
	buf sessionQueue

	pace      *core.Pacer
	rate      float64 // key in Hub.rates
	downscale int     // 1 = full resolution; n = 1/n width and height
	w, h      int     // this session's output dimensions

	// Verbatim-chain state (send-loop goroutine only): the shared seq and
	// encoder index of the last frame this viewer displayed. An artifact
	// whose parentSeq matches lastSentSeq forwards verbatim; anything else
	// is bridged with a spliced catch-up frame.
	lastSentSeq uint64
	lastEncIdx  int64

	// Engine scheduling state (see engine.go): wk pins the session to one
	// sender stripe so its writes stay ordered; sched is the parked/queued/
	// pacing state machine; timer carries its ODR pacing deadline on the
	// hub's wheel. sendMu excludes teardown's buffer drain from a send pass
	// (same-stripe serialization covers worker-vs-worker already).
	wk       int
	sched    atomic.Int32
	timer    timerwheel.Timer
	paceDue  time.Duration // when the armed pacing delay ends; 0 = none (sender worker only)
	detached atomic.Bool
	sendMu   sync.Mutex

	// rdbuf is the session's input read buffer and lastRead the hub-domain
	// time its last input byte arrived (attach time before the first), both
	// owned by its reader stripe.
	rdbuf    []byte
	lastRead time.Duration

	detachOnce sync.Once
	detachCb   func(SessionStats)

	sent    int64
	dropped int64

	// wantKey is set by the reader stripe on msgKeyReq and consumed by the send
	// loop before the next transmit.
	wantKey atomic.Bool

	// carried holds the input stamps of artifacts this session dropped or
	// skipped before sending; the next frame it sends that was rendered after
	// them answers them, so the issuing client still gets its MtP sample.
	carried carriedStamps

	// probe publishes this viewer's live QoE/energy series.
	probe *sessionProbe

	closeOnce sync.Once
}

// NewHub returns a hub ready to Run. It panics on a render rule CheckRule
// refuses.
func NewHub(cfg HubConfig) *Hub {
	if err := CheckRule(cfg.Policy); err != nil {
		panic("stream: " + err.Error())
	}
	cfg.applyDefaults()
	// Every lane encoder shares one content-addressed tile cache and rotates
	// intra refreshes across frames instead of emitting periodic full keys
	// (joiners still get spliced keys on demand). Both are
	// bitstream-deterministic, so hub streams stay byte-identical across lane
	// membership and worker counts.
	if cfg.Codec.Cache == nil {
		cfg.Codec.Cache = codec.NewTileCache(0)
	}
	cfg.Codec.StripeKeyframes = true
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	ins := newInstruments(cfg.Metrics)
	ins.started = ins.sessionsStarted.With1(cfg.Policy.String())
	epoch := time.Now()
	dom := realrt.NewDomainAt(epoch)
	h := &Hub{
		cfg:      cfg,
		dom:      dom,
		epoch:    epoch,
		game:     NewGame(cfg.Width, cfg.Height),
		box:      core.NewInputBox(dom),
		rates:    make(map[float64]int),
		stopping: make(chan struct{}),
		draining: make(chan struct{}),
		tr:       cfg.Trace,
		ins:      ins,
		probe:    newSessionProbe(ins, "shared"),
	}
	h.lanes.Store(new([]*encLane))
	h.tileCache = cfg.Codec.Cache
	h.eng = newHubEngine(h)
	pace := core.NewPacer(0) // the clock sets the target
	if h.tr != nil {
		pace.OnDelay = func(end, d time.Duration) {
			h.tr.Span(obs.TrackPacer, "pace", 0, end, end+d)
		}
	}
	h.clock = core.NewRenderClock(dom, h.box, pace, cfg.Policy)
	h.clock.OnTarget = func(fps float64) {
		if fps == 0 {
			h.probe.flushIdle(h.dom.Now())
		}
		h.ins.renderTarget.Set(fps) // last: a scrape that reads 0 here finds the idle flush done
	}
	return h
}

// demandChange adds (n = +1) or removes (n = -1) one session consuming rate
// frames a second and republishes the render clock's demand: the fastest
// attached viewer's rate, 0 with nobody attached.
func (h *Hub) demandChange(rate float64, n int) {
	h.demandMu.Lock()
	defer h.demandMu.Unlock()
	if h.rates[rate] += n; h.rates[rate] == 0 {
		delete(h.rates, rate)
	}
	var fastest float64
	for r := range h.rates {
		if r > fastest {
			fastest = r
		}
	}
	h.clock.SetDemand(fastest)
}

// deadlineAfter converts a timeout into an absolute conn deadline on the
// hub's own clock domain: epoch + domain-now + d. Every hub deadline (read,
// write, drain seal) routes through here so they all live on the one
// epoch-aligned timeline instead of sampling the wall clock ad hoc.
func (h *Hub) deadlineAfter(d time.Duration) time.Time {
	return h.epoch.Add(h.dom.Now() + d)
}

// Clients returns the number of attached clients.
func (h *Hub) Clients() int {
	n := 0
	for _, ln := range *h.lanes.Load() {
		n += len(ln.viewers())
	}
	return n
}

// Rendered returns the number of frames the shared game has rendered.
func (h *Hub) Rendered() int64 { return h.ins.Rendered.Value() }

// hubPixFreeCap bounds the render-buffer free list: the frame being
// rendered, the newest one the renderer keeps for joiners and one in-flight
// frame per lane is the realistic ceiling.
const hubPixFreeCap = 4

// pixGet takes a recycled render buffer or allocates the first few.
func (h *Hub) pixGet() []byte {
	h.pixMu.Lock()
	if n := len(h.pixFree); n > 0 {
		b := h.pixFree[n-1]
		h.pixFree = h.pixFree[:n-1]
		h.pixMu.Unlock()
		return b
	}
	h.pixMu.Unlock()
	return make([]byte, h.game.FrameBytes())
}

func (h *Hub) pixPut(b []byte) {
	h.pixMu.Lock()
	if len(h.pixFree) < hubPixFreeCap {
		h.pixFree = append(h.pixFree, b)
	}
	h.pixMu.Unlock()
}

// Run renders the shared game until Stop or Drain; it drives all attached
// sessions. The render clock says when each frame starts (and parks the loop
// while nobody is attached).
func (h *Hub) Run() {
	h.runMu.Lock()
	select {
	case <-h.stopping:
		h.runMu.Unlock()
		return
	case <-h.draining:
		h.runMu.Unlock()
		return
	default:
	}
	h.renderWG.Add(1)
	h.runMu.Unlock()
	defer h.renderWG.Done()
	w := realrt.NewWaiter(h.dom)
	var seq uint64
	for h.clock.Begin(w) {
		if !h.push() {
			// Mul-Buf1, as in regulator.ODR.RenderGate: wait for every viewed
			// lane's back buffer; a pending input cuts the wait.
			for _, ln := range *h.lanes.Load() {
				if len(ln.viewers()) > 0 {
					ln.buf.WaitBackFree(w, h.box.PendingLocked)
				}
			}
		}
		start := h.dom.Now()
		stamps := h.box.ConsumePending()
		for range stamps {
			h.game.OnInput()
		}
		pix := h.pixGet()
		h.game.Render(pix)
		seq++
		f := &frame.Frame{Seq: seq, Pixels: pix, RenderStart: start, RenderEnd: h.dom.Now()}
		core.Tag(f, stamps)
		h.tr.Span(obs.TrackRender, "render", f.Seq, f.RenderStart, f.RenderEnd)
		h.ins.Render.ObserveDuration(f.RenderEnd - f.RenderStart)
		h.probe.onRender(h.game.Busy())
		h.probe.maybeFlush(h.dom.Now())
		if f.Priority {
			h.tr.Instant(obs.TrackRender, "priority-frame", f.Seq, f.RenderStart)
			h.ins.Priority.Inc()
		}
		h.publish(f)
		h.clock.End()
	}
	h.publish(nil)
}

// publish makes f the newest rendered frame and offers it to every lane that
// has a viewer: each encodes it once and fans the artifact out (see
// encLane.offer for what drops). The pixel buffer recycles once the last
// lane retires the frame; the renderer holds one reference of its own while
// the frame is the newest, for joiners, and publish(nil) drops it when the
// renderer retires.
func (h *Hub) publish(f *frame.Frame) {
	var refs *atomic.Int32
	if f != nil {
		refs = new(atomic.Int32)
		refs.Store(1)
		pix := f.Pixels
		f.Retire = func() {
			if refs.Add(-1) == 0 {
				h.pixPut(pix)
			}
		}
	}
	// The frame counts as rendered once it is the newest, so an attach that
	// follows a read of Rendered is served this frame or a later one.
	h.offerMu.Lock()
	prev := h.newest
	h.newest, h.newestRefs = f, refs
	if f != nil {
		h.ins.Rendered.Inc()
		for _, ln := range *h.lanes.Load() {
			if len(ln.viewers()) > 0 {
				refs.Add(1)
				ln.offered.Store(f.Seq)
				ln.offer(f)
			}
		}
	}
	h.offerMu.Unlock()
	if prev != nil {
		prev.Retire()
	}
}

// stopClock retires the renderer wherever it is waiting (a delay, a park, or
// not yet started); renderWG.Wait may follow.
func (h *Hub) stopClock() {
	h.runMu.Lock()
	h.clock.Stop()
	h.runMu.Unlock()
}

// allSessions snapshots every attached session across lanes. It takes each
// lane's viewMu, so a sweep that closed the lanes' buffers first sees every
// attach that found them open (see AttachWithOptions).
func (h *Hub) allSessions() []*hubSession {
	var sessions []*hubSession
	for _, ln := range *h.lanes.Load() {
		ln.viewMu.Lock()
		sessions = append(sessions, ln.viewers()...)
		ln.viewMu.Unlock()
	}
	return sessions
}

// Stop shuts down the hub and detaches every client. If HubConfig.Logf is
// set, Stop logs a final stats summary once the renderer has quiesced.
func (h *Hub) Stop() {
	h.stopOnce.Do(func() {
		close(h.stopping)
		h.stopClock()
		// Taking laneMu orders this sweep after any in-flight lane creation;
		// Attach checks the lane's buffer under the lane's viewMu, so a racing
		// attach either lands in this sweep or refuses itself.
		h.laneMu.Lock()
		for _, ln := range *h.lanes.Load() {
			ln.buf.Close()
		}
		h.laneMu.Unlock()
		// Close every session and kick it so a sender worker observes the
		// closed buffer and tears it down; engine shutdown below drains those
		// kicks and sweeps any pacing stragglers whose wheel timers it drops.
		for _, s := range h.allSessions() {
			s.close()
			h.eng.kick(s)
		}
		h.renderWG.Wait()
		h.laneWG.Wait()
		h.eng.shutdown()
		if h.cfg.Logf != nil {
			snap := h.Snapshot()
			h.cfg.Logf("hub stopped: rendered=%v inputs=%v sessions_served=%v sent=%v dropped=%v",
				snap["rendered"], snap["inputs"], snap["sessions_served"], snap["sent"], snap["dropped"])
		}
	})
}

// ErrDrainTimeout is returned by Drain when sessions were still flushing when
// the timeout passed; the hub is stopped regardless.
var ErrDrainTimeout = errors.New("stream: drain timed out")

// Drain ends the hub gracefully: the renderer retires, each lane encodes the
// frame it already has queued, every attached session flushes its queued
// artifacts and receives an orderly msgBye before its connection closes.
// Drain returns nil once all sessions have detached, or ErrDrainTimeout if
// some were still attached when the timeout passed; either way the hub is
// stopped when it returns.
func (h *Hub) Drain(timeout time.Duration) error {
	h.drainOnce.Do(func() { close(h.draining) })
	h.stopClock()
	h.renderWG.Wait()
	// Renderer gone: close lane buffers so each lane flushes its final
	// queued frame and exits. lane() refuses creation once draining is
	// closed, and takes laneMu to publish, so this sweep under laneMu sees
	// every lane that will ever exist.
	h.laneMu.Lock()
	for _, ln := range *h.lanes.Load() {
		ln.buf.Close()
	}
	h.laneMu.Unlock()
	h.laneWG.Wait()
	deadline := time.Now().Add(timeout)
	for {
		// Close session buffers (not conns): each kicked session drains what
		// is buffered on a sender worker, writes msgBye, then tears down.
		// Re-closing and re-kicking every poll round covers sessions that
		// raced Attach; sessions mid-pacing requeue when their timer fires.
		sessions := h.allSessions()
		if len(sessions) == 0 {
			h.Stop()
			return nil
		}
		for _, s := range sessions {
			s.buf.Close()
			h.eng.kick(s)
		}
		if time.Now().After(deadline) {
			h.Stop()
			return ErrDrainTimeout
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (h *Hub) drainRequested() bool {
	select {
	case <-h.draining:
		return true
	default:
		return false
	}
}

// publishCacheStats mirrors the shared tile cache's running totals into the
// registry counters as deltas. Callers invoke it right after any operation
// that did cache lookups (a lane encode, a splice), so once the hub drains
// the scraped counters equal the cache's totals exactly — that equality is
// the soak's conservation invariant.
func (h *Hub) publishCacheStats() {
	hits, misses, evs := h.tileCache.Stats()
	h.cachePubMu.Lock()
	dh, dm, de := hits-h.pubHits, misses-h.pubMisses, evs-h.pubEvictions
	h.pubHits, h.pubMisses, h.pubEvictions = hits, misses, evs
	h.cachePubMu.Unlock()
	h.ins.cacheHits.Add(dh)
	h.ins.cacheMisses.Add(dm)
	h.ins.cacheEvictions.Add(de)
}

// Evicted returns how many sessions were cut for blowing a deadline.
func (h *Hub) Evicted() int64 { return h.ins.evicted.Value() }

// evictSession records one deadline eviction.
func (h *Hub) evictSession() {
	h.ins.evicted.Inc()
	h.tr.Instant(obs.TrackNetwork, "evict", 0, h.dom.Now())
}

// Snapshot reports the hub's live state for /debug/odr: lifetime totals and
// the per-session counters of every client still attached. Every total is
// read from the registry, so it equals its /metrics counter: rendered
// (odr_frames_rendered_total), inputs (odr_inputs_received_total), sent
// (odr_frames_displayed_total), dropped (odr_frames_dropped_total: lane drops
// by input frames or a push rule, push-rule drops before encode, and
// per-session skips),
// evicted (odr_sessions_evicted_total) and sessions_served
// (odr_sessions_started_total for this hub's policy). Hubs that share a
// registry share these totals. Safe to call concurrently with Run.
func (h *Hub) Snapshot() map[string]any {
	sessions := h.allSessions()
	live := make([]map[string]any, 0, len(sessions))
	for _, s := range sessions {
		live = append(live, map[string]any{
			"id":        s.id,
			"sent":      atomic.LoadInt64(&s.sent),
			"dropped":   atomic.LoadInt64(&s.dropped),
			"downscale": s.downscale,
			"width":     s.w,
			"height":    s.h,
		})
	}
	return map[string]any{
		"policy":          h.cfg.Policy.String(),
		"target_fps":      h.cfg.TargetFPS,
		"rendered":        h.ins.Rendered.Value(),
		"inputs":          h.ins.Inputs.Value(),
		"sessions_served": h.ins.started.Value(),
		"sent":            h.ins.Displayed.Value(),
		"dropped":         h.ins.Dropped.Value(),
		"evicted":         h.ins.evicted.Value(),
		"clients":         live,
	}
}

// SessionStats reports one attached client's counters.
type SessionStats struct {
	Sent    int64
	Dropped int64
}

// AttachOptions configures one viewer session.
type AttachOptions struct {
	// ClientFPS paces this viewer (0 = the hub's full rate).
	ClientFPS float64
	// Downscale divides the stream resolution for this viewer (0 or 1 =
	// full resolution; 2 = quarter-area thumbnail, and so on). The hub
	// renders once at full resolution; each distinct divisor gets one
	// shared lane encoder that box-filters before encoding, so thumbnails
	// cost a fraction of the encode work and bandwidth.
	Downscale int
	// Detach is invoked with the session's counters when it ends.
	Detach func(SessionStats)
}

// Attach adds a client connection to the hub with its own pacing target
// (0 = the hub's rate). It returns immediately; the session runs until the
// connection fails or the hub stops. detach is invoked when the session
// ends.
func (h *Hub) Attach(conn net.Conn, clientFPS float64, detach func(SessionStats)) {
	h.AttachWithOptions(conn, AttachOptions{ClientFPS: clientFPS, Detach: detach})
}

// allocID returns the next session id, skipping 0 on wrap (0 is the "no
// session" sentinel in packed input ids).
func (h *Hub) allocID() uint32 {
	for {
		if id := h.nextID.Add(1); id != 0 {
			return id
		}
	}
}

// AttachWithOptions is Attach with per-viewer resolution control.
func (h *Hub) AttachWithOptions(conn net.Conn, opts AttachOptions) {
	refuse := func() {
		conn.Close()
		if opts.Detach != nil {
			opts.Detach(SessionStats{})
		}
	}
	select {
	case <-h.stopping:
		refuse()
		return
	case <-h.draining:
		refuse()
		return
	default:
	}
	div := opts.Downscale
	if div < 1 {
		div = 1
	}
	ln := h.lane(div)
	if ln == nil {
		// Raced a Stop or Drain past the check above.
		refuse()
		return
	}
	id := h.allocID()
	// What this viewer can consume: its own pace, or the hub's when unpaced
	// (or paced faster than the hub renders).
	rate := h.cfg.TargetFPS
	if opts.ClientFPS > 0 && opts.ClientFPS < rate {
		rate = opts.ClientFPS
	}
	s := &hubSession{
		id:        id,
		hub:       h,
		lane:      ln,
		conn:      conn,
		dom:       realrt.NewDomainAt(h.epoch),
		pace:      core.NewPacer(opts.ClientFPS),
		rate:      rate,
		downscale: div,
		w:         ln.w,
		h:         ln.h,
		wk:        int(id),
		detachCb:  opts.Detach,
		lastRead:  h.dom.Now(),
	}
	s.buf = h.sessionBuf(s.dom)
	// The timer's job is only to requeue the session once its pacing delay
	// elapses; a Submit refused by a closing pool is fine — shutdown's
	// straggler sweep tears the session down instead.
	s.timer.Fn = func() {
		if s.sched.CompareAndSwap(schedPacing, schedQueued) {
			if !h.eng.senders.Submit(s.wk, s) {
				s.sched.Store(schedParked)
			}
		}
	}
	// Everything a sender worker reads must be in place before the lane
	// publishes the session: fan-out can hand it a frame the moment it is
	// in the list.
	s.probe = newSessionProbe(h.ins, "h"+strconv.FormatUint(uint64(id), 10))
	h.eng.start()
	ln.viewMu.Lock()
	if ln.buf.Closed() {
		// Stop, Drain and a lane failure close the lane's buffer before they
		// sweep its sessions; registering now would leak this one past that
		// sweep. Refuse instead — under the same lock the sweep takes.
		ln.viewMu.Unlock()
		s.probe.close(s.dom.Now(), true)
		refuse()
		return
	}
	ln.addLocked(s)
	// Demand rises while viewMu still keeps teardown out, so the matching
	// decrement always comes second; the wake-up finds the session already
	// published, and the frame it starts reaches this lane.
	h.demandChange(rate, +1)
	h.ins.started.Inc()
	ln.viewMu.Unlock()
	// A lane that has not been offered the newest frame (it is new, or it
	// emptied while the others kept rendering) is offered it now, so its
	// encode reaches this session. It takes only a free back buffer: a lane
	// still busy with older frames fans those out to this session first.
	// Nothing rendered yet: the render the demand above starts serves it.
	h.offerMu.Lock()
	if nf := h.newest; nf != nil && ln.offered.Load() < nf.Seq {
		h.newestRefs.Add(1)
		if ln.buf.TryPut(nf) {
			ln.offered.Store(nf.Seq)
			ln.joinSeq = nf.Seq
		} else {
			h.newestRefs.Add(-1)
		}
	}
	h.offerMu.Unlock()
	// No per-session goroutines: the engine's reader pool serves the input
	// path and lane fan-out kicks the sender pool when artifacts arrive. The
	// initial kick runs the session's first send pass, which serves the
	// joiner at once when the lane encoder holds the newest frame.
	h.eng.wakeReader(id)
	h.eng.kick(s)
}

// close tears the session down.
func (s *hubSession) close() {
	s.closeOnce.Do(func() {
		s.buf.Close()
		s.conn.Close()
	})
}

// sealOnDrain writes the orderly msgBye when the hub is draining, so the
// client sees a graceful end instead of an abrupt close. hubEngine.process
// calls it after every send pass that ends the session — a drained, closed
// buffer or a send error alike — because a client that still has a working
// read half deserves the bye even if the last frame write failed.
func (s *hubSession) sealOnDrain() {
	if !s.hub.drainRequested() {
		return
	}
	if wt := s.hub.cfg.WriteTimeout; wt > 0 {
		// The hub's clock domain supplies the deadline (not time.Now): every
		// hub deadline lives on the same epoch-aligned timeline.
		s.conn.SetWriteDeadline(s.hub.deadlineAfter(wt))
	}
	writeMsg(s.conn, msgBye, nil)
}

// sendArtifact delivers one shared encode to this viewer: verbatim when the
// viewer's chain is intact (its private header + the shared bitstream, zero
// copies), spliced from the lane encoder's state when the chain skipped
// frames, the viewer just joined, or it requested a keyframe. Either way the
// frame leaves through writeFrame.
// With no artifact (f and art nil) it serves a joiner or a keyframe request
// at once, by a key spliced from the lane encoder when that holds the newest
// frame offered to the lane, and otherwise sends nothing: that frame's encode
// fans out to the session. It runs on a sender worker with that worker's
// scratch buffers; sent reports whether a frame actually shipped, and delay
// carries the session's ODR pacing delay for the engine to put on the timer
// wheel.
func (s *hubSession) sendArtifact(scr *senderScratch, f *frame.Frame, art *encArtifact) (sent bool, delay time.Duration, err error) {
	h := s.hub
	if art == nil && !s.lane.holdsNewest() {
		return false, 0, nil
	}
	if hk := h.sendErr.Load(); hk != nil {
		if err := (*hk)(s.id); err != nil {
			return false, 0, err
		}
	}
	var inputs []frame.InputStamp
	if art != nil {
		if art.seq <= s.lastSentSeq {
			// Stale artifact (the viewer already advanced past it via a
			// splice): carry its stamps so their MtP samples still answer.
			s.carried.add(art.seq, f.Inputs)
			return false, 0, nil
		}
		inputs = f.Inputs
	}
	start := h.dom.Now()
	// A send its pacing timer released is paced from the deadline, not from
	// the wheel's late tick: uncharged, that lag stretches every period, and a
	// viewer paced at the render rate falls a whole frame behind (a drop and
	// a spliced catch-up) every few dozen frames.
	paceFrom := start
	if s.paceDue != 0 {
		paceFrom, s.paceDue = s.paceDue, 0
	}
	wantKey := s.wantKey.Swap(false)
	verbatim := art != nil && (art.key ||
		(!wantKey && s.lastSentSeq != 0 && art.parentSeq == s.lastSentSeq))

	var meta frameMeta
	var bs []byte
	var crc uint32
	var encIdx int64
	if verbatim {
		meta = frameMeta{seq: art.seq, renderNanos: art.renderNanos}
		if !art.key {
			meta.parentSeq = art.parentSeq
		}
		bs, crc, encIdx = art.bs, art.crc, art.encIdx
	} else {
		// Chain broken (drops), fresh joiner, or keyframe request: splice a
		// catch-up frame from the lane encoder's current state. parent = 0
		// cuts a full key; otherwise only tiles changed since the viewer's
		// last displayed encode ship, intra-coded.
		ln := s.lane
		var parent int64
		if !wantKey && s.lastSentSeq != 0 {
			parent = s.lastEncIdx
		}
		ln.encMu.Lock()
		spliceFrom := h.dom.Now()
		spliced, err := ln.enc.AppendSplice(scr.splice[:0], parent)
		meta.seq = ln.lastSeq
		meta.renderNanos = ln.lastRenderNanos
		encIdx = ln.enc.Frames()
		spliceTiles := ln.enc.LastSpliceTiles()
		ln.encMu.Unlock()
		h.publishCacheStats()
		if err != nil {
			// The shared encoder cannot produce this viewer's frame; the
			// error ends the session like a buffer close, so a draining hub
			// still seals with msgBye.
			return false, 0, err
		}
		// Counted whether or not the write below lands: the cache lookups
		// happened at splice time, and the conservation invariant
		// (hits+misses == dirty+spliced tiles) must stay exact.
		ln.splicedTiles.Add(int64(spliceTiles))
		scr.splice = spliced
		// The splice is serial work and this viewer's; the wait for encMu
		// is the shared encode's, billed there.
		s.probe.onEncode(h.dom.Now() - spliceFrom)
		if parent > 0 {
			meta.parentSeq = s.lastSentSeq
		}
		bs, crc = spliced, crc32.ChecksumIEEE(spliced)
	}
	meta.inputID, meta.inputNanos = s.echo(meta.seq, inputs)
	txStart := h.dom.Now()
	if err := s.writeFrame(scr, meta, crc, bs); err != nil {
		return false, 0, err
	}
	if !verbatim {
		if meta.parentSeq != 0 {
			s.lane.splicedDeltas.Inc()
		} else {
			s.lane.splicedKeys.Inc()
		}
	}
	s.lastSentSeq = meta.seq
	s.lastEncIdx = encIdx

	atomic.AddInt64(&s.sent, 1)
	txEnd := h.dom.Now()
	h.tr.Span(obs.TrackNetwork, "tx", meta.seq, txStart, txEnd)
	h.ins.Displayed.Inc()
	h.ins.Tx.ObserveDuration(txEnd - txStart)
	var mtpUs int64
	if meta.inputID != 0 {
		mtpUs = s.probe.mtpEstimate(txEnd)
		if mtpUs > 0 {
			h.ins.MtP.Observe(mtpUs)
		}
	}
	s.probe.onSend(txEnd, frameHeaderLen+len(bs), txEnd-txStart, mtpUs)
	if meta.inputID == 0 {
		// A frame answering this viewer's own input skips its pacer
		// (PriorityFrame); anybody else's input frame is paced like any other.
		// The delay rides the timer wheel instead of blocking a goroutine.
		// The differential pacing test pins this call bit-for-bit against a
		// reference pacer.
		end := h.dom.Now()
		d := s.pace.PaceAfterObserved(paceFrom, end)
		if h.paceHook != nil {
			h.paceHook(s.id, paceFrom, end, d)
		}
		if d > 0 {
			delay = d
			s.paceDue = end + d
		}
	}
	return true, delay, nil
}

// writeFrame writes one frame message: its head (type, length and frame
// header) from the worker's scratch, then the bitstream, which is never
// copied, as one net.Buffers write. That is one writev on TCP and Unix
// sockets and two writes, [5+frameHeaderLen] and [len(bs)], on any other
// conn (pipes, wrappers). It is the hub's only writer of msgFrame.
func (s *hubSession) writeFrame(scr *senderScratch, m frameMeta, crc uint32, bs []byte) error {
	if wt := s.hub.cfg.WriteTimeout; wt > 0 {
		s.conn.SetWriteDeadline(s.hub.deadlineAfter(wt))
	}
	scr.head[0] = msgFrame
	binary.LittleEndian.PutUint32(scr.head[1:], uint32(frameHeaderLen+len(bs)))
	putFrameHeaderCRC(scr.head[5:], m, crc)
	scr.iov = append(scr.iovArr[:0], scr.head[:], bs)
	_, err := scr.iov.WriteTo(s.conn)
	return err
}

// echo picks the input stamp a frame numbered seq answers for this viewer,
// among the stamps the frame carries and those carried from frames it
// skipped: only the viewer's own stamp is echoed, because MtP is measured on
// the issuing client's clock.
func (s *hubSession) echo(seq uint64, inputs []frame.InputStamp) (inputID uint64, inputNanos int64) {
	for _, st := range append(s.carried.take(seq), inputs...) {
		if sessionOf(st.ID) == s.id {
			return uint64(st.ID), int64(st.Issued)
		}
	}
	return 0, 0
}

// carriedStamps holds the input stamps of frames that will not be sent (a
// lane's drops before the shared encode, a session's drops and skips), each
// with the seq of the frame it came from: only a frame rendered later shows
// the game's response to it. Under a push policy that is not simply the
// session's next send: the queue ahead of it holds older frames.
type carriedStamps struct {
	mu   sync.Mutex
	list []carriedStamp
}

type carriedStamp struct {
	from uint64
	frame.InputStamp
}

// add keeps the stamps of frame seq for a later frame.
func (c *carriedStamps) add(seq uint64, stamps []frame.InputStamp) {
	if len(stamps) == 0 {
		return
	}
	c.mu.Lock()
	for _, st := range stamps {
		c.list = append(c.list, carriedStamp{from: seq, InputStamp: st})
	}
	c.mu.Unlock()
}

// take removes and returns, oldest first, the stamps a frame numbered seq
// was rendered late enough to answer.
func (c *carriedStamps) take(seq uint64) []frame.InputStamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []frame.InputStamp
	keep := c.list[:0]
	for _, st := range c.list {
		if st.from < seq {
			out = append(out, st.InputStamp)
		} else {
			keep = append(keep, st)
		}
	}
	c.list = keep
	return out
}

// skip accounts an artifact this session will never send: a drop, whose
// stamps are carried to a later frame.
func (s *hubSession) skip(f *frame.Frame) {
	h := s.hub
	atomic.AddInt64(&s.dropped, 1)
	h.ins.Dropped.Inc()
	h.tr.Instant(obs.TrackProxy, "mulbuf-drop", f.Seq, h.dom.Now())
	s.carried.add(f.Seq, f.Inputs)
}

// put stores an artifact in the session's buffer without ever waiting. Under
// ODR a regular artifact takes a free back buffer rather than displace the
// unsent front, and never displaces an input frame the sender has not
// written yet: the regular artifact is skipped instead, so the input comes
// back on its own frame. Otherwise a full buffer, a pacing viewer and an
// input frame keep latest-wins, so the viewer sends the newest frame.
func (s *hubSession) put(f *frame.Frame) (stored bool, dropped []*frame.Frame) {
	mb, ok := s.buf.(*core.MultiBuffer)
	if !ok || f.Priority || s.sched.Load() == schedPacing {
		return s.buf.PutPriorityStored(f)
	}
	stored, dropped, refused := mb.PutRegular(f)
	if refused {
		s.skip(f)
	}
	return stored, dropped
}

// hasRoom reports whether the session can take another artifact without
// being refused: always under ODR, while its queue is short of full under a
// push policy.
func (s *hubSession) hasRoom() bool {
	q, ok := s.buf.(*pushQueue)
	return !ok || q.Occupancy() < pushQueueDepth
}

// packInput embeds the session id in the high 32 bits of a client-local
// input id so the responding frame is attributed to the right client. The
// local id is masked to 32 bits: clients allocate ids sequentially from 1,
// so the truncated id stays unique within any realistic in-flight window,
// and the hub only uses it as an opaque echo.
func packInput(session uint32, local uint64) frame.InputID {
	return frame.InputID(uint64(session)<<32 | (local & 0xFFFFFFFF))
}

// sessionOf extracts the session id from a packed input id.
func sessionOf(id frame.InputID) uint32 {
	return uint32(uint64(id) >> 32)
}

// downsample box-filters src (srcW wide RGBA) into dst (dstW×dstH RGBA) with
// the given integer divisor.
func downsample(src []byte, srcW int, dst []byte, dstW, dstH, div int) {
	area := div * div
	for y := 0; y < dstH; y++ {
		for x := 0; x < dstW; x++ {
			var r, g, b, a int
			for dy := 0; dy < div; dy++ {
				row := ((y*div + dy) * srcW) * 4
				for dx := 0; dx < div; dx++ {
					i := row + (x*div+dx)*4
					r += int(src[i])
					g += int(src[i+1])
					b += int(src[i+2])
					a += int(src[i+3])
				}
			}
			o := (y*dstW + x) * 4
			dst[o] = byte(r / area)
			dst[o+1] = byte(g / area)
			dst[o+2] = byte(b / area)
			dst[o+3] = byte(a / area)
		}
	}
}
