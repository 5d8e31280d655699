package stream

import (
	"sync/atomic"
	"time"

	"odr/internal/obs"
	"odr/internal/powermodel"
	"odr/internal/qoe"
)

// Canonical names of the hub's metric families: the aggregate frame-path
// counters, histograms and gauge, and the labeled QoE/energy and fan-out
// view the paper's evaluation reads per session and per lane. One /metrics
// scrape carries them all.
const (
	NameFramesRendered  = "odr_frames_rendered_total"
	NameFramesEncoded   = "odr_frames_encoded_total"
	NameFramesDisplayed = "odr_frames_displayed_total"
	NameFramesDropped   = "odr_frames_dropped_total"
	NameFramesPriority  = "odr_frames_priority_total"
	NameInputs          = "odr_inputs_received_total"
	NameTilesCoded      = "odr_tiles_coded_total"
	NameTilesDirty      = "odr_tiles_dirty_total"
	NameSessionsEvicted = "odr_sessions_evicted_total"

	NameRenderUs     = "odr_render_us"
	NameEncodeUs     = "odr_encode_us"
	NameTileEncodeUs = "odr_tile_encode_us"
	NameTxUs         = "odr_tx_us"
	NameMtPUs        = "odr_mtp_us"

	NameDirtyRatio = "odr_dirty_tile_ratio"

	// NameSessionFPS is the delivered frame rate over the live QoE window.
	NameSessionFPS = "odr_session_fps"
	// NameSessionMtPMs is the mean server-side motion-to-photon estimate.
	NameSessionMtPMs = "odr_session_mtp_ms"
	// NameSessionMtPP99Ms is the tail of the same estimate.
	NameSessionMtPP99Ms = "odr_session_mtp_p99_ms"
	// NameSessionSmoothness is 1−stutter over the window (1 = perfectly
	// even frame pacing).
	NameSessionSmoothness = "odr_session_smoothness"
	// NameSessionWatts is the session's estimated draw since the last flush.
	NameSessionWatts = "odr_session_watts"
	// NameSessionEnergy is cumulative estimated joules split by component
	// (render, encode, network).
	NameSessionEnergy = "odr_session_energy_joules"
	// NameTilesOutcome counts encoded tiles by outcome (dirty = coded,
	// clean = skipped by change detection).
	NameTilesOutcome = "odr_tiles_outcome_total"
	// NameSessionsStarted counts sessions by regulation policy.
	NameSessionsStarted = "odr_sessions_started_total"
	// NameHubSharedEncodes counts frames encoded once by a hub lane's shared
	// encoder and fanned out to every same-resolution viewer. With N viewers
	// it grows at the frame rate while frames_displayed grows at N× — the
	// encode-once invariant soak and CI assert.
	NameHubSharedEncodes = "odr_hub_shared_encodes_total"
	// NameHubSplicedKeyframes counts per-session keyframes spliced from a
	// shared encoder's state (late joiners and msgKeyReq resyncs).
	NameHubSplicedKeyframes = "odr_hub_spliced_keyframes_total"
	// NameHubSplicedDeltas counts per-session catch-up deltas spliced for
	// viewers whose verbatim chain skipped frames (latest-wins drops).
	NameHubSplicedDeltas = "odr_hub_spliced_deltas_total"
	// NameHubSplicedTiles counts the payload-carrying tiles of every spliced
	// frame (keys and deltas). Together with odr_tiles_outcome_total{dirty}
	// it closes the tile-cache conservation invariant: with a cache wired,
	// hits + misses == dirty tiles + spliced tiles, exactly.
	NameHubSplicedTiles = "odr_hub_spliced_tiles_total"
	// NameHubSenderQueueDepth gauges how many ready sessions sit queued for
	// the hub's sender worker pool: 0 means every flush pass drains faster
	// than fan-out feeds it; sustained depth means the pool is the
	// bottleneck.
	NameHubSenderQueueDepth = "odr_hub_sender_queue_depth"
	// NameHubTimerwheelLagUs gauges how late the hub's pacing timer wheel
	// fired its most recent deadline, in microseconds. ODR pacing delays ride
	// the wheel, so this is the scheduling error added on top of each
	// session's computed delay.
	NameHubTimerwheelLagUs = "odr_hub_timerwheel_lag_us"
	// NameHubRenderTargetFPS gauges the rate the hub's render clock is pacing
	// to: the fastest attached viewer's consumable rate, capped at the hub
	// target, and 0 while the hub is parked with nobody attached. Rendered
	// frames per second exceed it by exactly the input-triggered extras.
	NameHubRenderTargetFPS = "odr_hub_render_target_fps"
	// NameHubCoalescedWrites counts frames flushed in sender passes that
	// drained two or more sessions back-to-back — writes whose syscall cost
	// amortized across a batch instead of paying one wakeup each.
	NameHubCoalescedWrites = "odr_hub_coalesced_writes_total"
	// NameHubFlushPasses counts sender-pool passes that sent at least one
	// frame; odr_frames_displayed_total over it is the mean number of frames
	// a pass flushes.
	NameHubFlushPasses = "odr_hub_flush_passes_total"
	// NameCodecTileCacheHits counts encoded-tile cache lookups served from
	// the content-addressed cache (payload bytes reused, no coding pass).
	NameCodecTileCacheHits = "odr_codec_tile_cache_hits_total"
	// NameCodecTileCacheMisses counts lookups that had to encode.
	NameCodecTileCacheMisses = "odr_codec_tile_cache_misses_total"
	// NameCodecTileCacheEvictions counts entries the LRU budget pushed out.
	NameCodecTileCacheEvictions = "odr_codec_tile_cache_evictions_total"
)

// sessionFlushInterval paces gauge publication: the send loop records every
// frame into the window, but series only move at this cadence so the flush
// cost (sorting the window) stays off the per-frame path.
const sessionFlushInterval = 500 * time.Millisecond

// defaultGPUIntensity is the workload GPU power intensity assumed for live
// sessions; the synthetic game sits mid-field between a UI stream and a VR
// benchmark (the simulator varies this per workload, the live path cannot).
const defaultGPUIntensity = 0.5

// instruments is the hub's whole registry surface, resolved once per hub
// and handed to its lanes, engine and probes. Its exported fields are the
// frame path, and TestHubWritesEveryFrameInstrument holds a live hub to
// writing every one of them; the unexported rest are the labeled
// per-session and per-lane families and the engine's, the tile cache's and
// eviction's own.
type instruments struct {
	// Frame-path counters (events since start): drops count latest-wins
	// buffers and tail drops; TilesCoded counts the tiles of every encode
	// and TilesDirty those that carried a payload.
	Rendered, Encoded, Displayed, Dropped, Priority, Inputs *obs.Counter
	TilesCoded, TilesDirty                                  *obs.Counter

	// Per-step service time, microseconds (TileEncode is the per-tile slice
	// of Encode), and the last encoded frame's dirty-tile ratio.
	Render, Encode, TileEncode, Tx, MtP *obs.Histogram
	DirtyRatio                          *obs.Gauge

	fps, mtp, mtpP99, smooth, watts, energy *obs.GaugeVec
	outcome, sessionsStarted                *obs.CounterVec

	// started is this hub's series of sessionsStarted (NewHub sets it).
	started *obs.Counter
	evicted *obs.Counter

	// Hub fan-out families, labeled by lane (the downscale divisor).
	hubEncodes, hubSplicedKeys, hubSplicedDeltas, hubSplicedTiles *obs.CounterVec

	// Encoded-tile cache counters (unlabeled: one cache serves every lane).
	cacheHits, cacheMisses, cacheEvictions *obs.Counter

	// Sender-engine instruments (unlabeled: one engine per hub).
	senderQueueDepth *obs.Gauge
	timerwheelLag    *obs.Gauge
	coalescedWrites  *obs.Counter
	flushPasses      *obs.Counter
	renderTarget     *obs.Gauge
}

// newInstruments idempotently registers every family of the hub's surface
// in reg, with its help text, and resolves its instruments.
func newInstruments(reg *obs.Registry) *instruments {
	counter := func(name, help string) *obs.Counter {
		reg.SetHelp(name, help)
		return reg.Counter(name)
	}
	gauge := func(name, help string) *obs.Gauge {
		reg.SetHelp(name, help)
		return reg.Gauge(name)
	}
	hist := func(name, help string) *obs.Histogram {
		reg.SetHelp(name, help)
		return reg.Histogram(name)
	}
	return &instruments{
		Rendered:   counter(NameFramesRendered, "Frames rendered by the 3D application."),
		Encoded:    counter(NameFramesEncoded, "Frames encoded by the server proxy."),
		Displayed:  counter(NameFramesDisplayed, "Frames displayed (sent to the client, server side)."),
		Dropped:    counter(NameFramesDropped, "Frames dropped by latest-wins buffers or tail drop."),
		Priority:   counter(NameFramesPriority, "PriorityFrame promotions (input-triggered renders)."),
		Inputs:     counter(NameInputs, "User inputs received."),
		TilesCoded: counter(NameTilesCoded, "Tiles emitted by the tile codec (dirty or clean)."),
		TilesDirty: counter(NameTilesDirty, "Tiles that carried an encoded payload."),
		Render:     hist(NameRenderUs, "Render step service time, microseconds."),
		Encode:     hist(NameEncodeUs, "Encode step service time, microseconds."),
		TileEncode: hist(NameTileEncodeUs, "Per-tile slice of the encode step, microseconds."),
		Tx:         hist(NameTxUs, "Network transmit service time, microseconds."),
		MtP:        hist(NameMtPUs, "Motion-to-photon latency, microseconds."),
		DirtyRatio: gauge(NameDirtyRatio, "Dirty/total tile ratio of the last encoded frame."),

		evicted: counter(NameSessionsEvicted, "Sessions cut for blowing a read or write deadline."),
		cacheHits: counter(NameCodecTileCacheHits,
			"Encoded-tile cache lookups served from the content-addressed cache."),
		cacheMisses: counter(NameCodecTileCacheMisses,
			"Encoded-tile cache lookups that had to run the entropy coder."),
		cacheEvictions: counter(NameCodecTileCacheEvictions,
			"Encoded-tile cache entries evicted by the LRU byte budget."),
		senderQueueDepth: gauge(NameHubSenderQueueDepth,
			"Ready sessions queued for the hub's sender worker pool, awaiting a flush pass."),
		timerwheelLag: gauge(NameHubTimerwheelLagUs,
			"Lag of the most recent pacing timer-wheel fire past its deadline, microseconds."),
		coalescedWrites: counter(NameHubCoalescedWrites,
			"Frames flushed in sender passes that drained two or more sessions back-to-back."),
		flushPasses: counter(NameHubFlushPasses,
			"Sender-pool passes that flushed at least one frame."),
		renderTarget: gauge(NameHubRenderTargetFPS,
			"Rate the hub's render clock paces to: the fastest attached viewer's, capped at the hub target; 0 while parked with no viewer."),
		sessionsStarted: reg.CounterVec(NameSessionsStarted,
			"Streaming sessions started, by regulation policy.", "policy"),
		hubEncodes: reg.CounterVec(NameHubSharedEncodes,
			"Frames encoded once by a hub lane's shared encoder and fanned out to every viewer on the lane.", "lane"),
		hubSplicedKeys: reg.CounterVec(NameHubSplicedKeyframes,
			"Per-session keyframes spliced from a hub lane's shared encoder state (late joiners, keyframe requests).", "lane"),
		hubSplicedDeltas: reg.CounterVec(NameHubSplicedDeltas,
			"Per-session catch-up deltas spliced from a hub lane's shared encoder state after latest-wins drops.", "lane"),
		hubSplicedTiles: reg.CounterVec(NameHubSplicedTiles,
			"Payload-carrying tiles across all spliced frames (keys and catch-up deltas).", "lane"),
		fps: reg.GaugeVec(NameSessionFPS,
			"Delivered frames per second over the live QoE window.", "session"),
		mtp: reg.GaugeVec(NameSessionMtPMs,
			"Mean server-side motion-to-photon estimate over the window, ms (input arrival to frame tx-end; the client-clock MtP is measured client-side).", "session"),
		mtpP99: reg.GaugeVec(NameSessionMtPP99Ms,
			"p99 server-side motion-to-photon estimate over the window, ms.", "session"),
		smooth: reg.GaugeVec(NameSessionSmoothness,
			"Frame-pacing smoothness over the window (1 − stutter index; 1 = perfectly even).", "session"),
		watts: reg.GaugeVec(NameSessionWatts,
			"Estimated session power draw since the previous flush, watts.", "session"),
		energy: reg.GaugeVec(NameSessionEnergy,
			"Cumulative estimated session energy, joules, split by pipeline component.", "session", "component"),
		outcome: reg.CounterVec(NameTilesOutcome,
			"Tiles inspected by the encoder, by outcome (dirty = coded, clean = skipped unchanged).", "tile_outcome"),
	}
}

// RegisterLiveMetrics pre-registers the hub's whole metric surface in reg
// without creating any labeled series, so a lint (odrserver's startup
// obs.MustLint, TestRegisterLiveMetricsIsLintClean in make metrics-check)
// can validate every family a hub will ever export before the first client
// connects; TestRegisterLiveMetricsCoversLiveHub holds it to every family a
// serving hub writes. Nil-safe.
func RegisterLiveMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	newInstruments(reg)
}

// sessionProbe feeds one session's frame lifecycle into the live QoE window
// (internal/qoe) and the energy meter (internal/powermodel) and publishes
// the results as labeled gauges. The recording half (onRender/onEncode/
// onSend) is allocation-free; gauges move on the ~2 Hz flush.
//
// Ownership: onSend, maybeFlush and close belong to one goroutine (the
// session's send loop, or the renderer for a hub's shared probe). onRender,
// onEncode, onTiles and onInput may run on other loops — they only touch
// atomics and counter handles.
type sessionProbe struct {
	session string
	live    *qoe.LiveWindow
	meter   *powermodel.SessionMeter

	fps, mtp, mtpP99, smooth, watts *obs.Gauge
	energyRender                    *obs.Gauge
	energyEncode                    *obs.Gauge
	energyNetwork                   *obs.Gauge
	tilesDirty, tilesClean          *obs.Counter

	// vecs is kept for Delete on close (bounding series churn).
	vecs *instruments

	lastFlushAt time.Duration
	lastTotalJ  float64

	// lastInputAt is the session-clock arrival time of the most recent
	// client input (written by the input loop, read by the send loop for
	// the server-side MtP estimate).
	lastInputAt atomic.Int64
}

// newSessionProbe creates the live series for one session label.
func newSessionProbe(v *instruments, session string) *sessionProbe {
	p := &sessionProbe{
		session: session,
		live:    qoe.NewLiveWindow(0),
		meter:   powermodel.NewSessionMeter(powermodel.Config{}, defaultGPUIntensity),
		vecs:    v,
	}
	p.fps = v.fps.With1(session)
	p.mtp = v.mtp.With1(session)
	p.mtpP99 = v.mtpP99.With1(session)
	p.smooth = v.smooth.With1(session)
	p.watts = v.watts.With1(session)
	p.energyRender = v.energy.With2(session, "render")
	p.energyEncode = v.energy.With2(session, "encode")
	p.energyNetwork = v.energy.With2(session, "network")
	p.tilesDirty = v.outcome.With1("dirty")
	p.tilesClean = v.outcome.With1("clean")
	return p
}

// onRender bills GPU-busy render time: the bands' summed time
// (Game.Busy), not the render's wall time.
func (p *sessionProbe) onRender(busy time.Duration) {
	p.meter.AddRender(busy)
}

// onEncode bills CPU-busy copy+encode time (see poolBusy).
func (p *sessionProbe) onEncode(busy time.Duration) {
	p.meter.AddEncode(busy)
}

// poolBusy is the busy time of a stage that ran a tile Map on the worker
// pool: its wall time, lock waits excluded, with the Map's span (mapNanos)
// replaced by the tiles' summed durations. A Map on two workers does twice
// the work its span shows, and energy bills work. The serial remainder
// floors at zero on a domain clock that stands still while real time runs.
func poolBusy(wall time.Duration, mapNanos int64, tileNanos []int64) time.Duration {
	busy := wall - time.Duration(mapNanos)
	if busy < 0 {
		busy = 0
	}
	for _, ns := range tileNanos {
		busy += time.Duration(ns)
	}
	return busy
}

// onTiles counts one frame's tile outcomes.
func (p *sessionProbe) onTiles(tiles, dirty int) {
	if tiles <= 0 {
		return
	}
	p.tilesDirty.Add(int64(dirty))
	p.tilesClean.Add(int64(tiles - dirty))
}

// onInput stamps a client input's arrival on the session clock.
func (p *sessionProbe) onInput(now time.Duration) {
	p.lastInputAt.Store(int64(now))
}

// mtpEstimate returns the server-side motion-to-photon estimate in
// microseconds for a frame that answered an input and finished transmitting
// at txEnd: the delta from the latest input arrival. It under-reports when
// a newer input arrived while the answering frame was in flight — it is a
// live approximation; the authoritative MtP is measured on the client clock.
func (p *sessionProbe) mtpEstimate(txEnd time.Duration) int64 {
	arr := p.lastInputAt.Load()
	if arr <= 0 || int64(txEnd) <= arr {
		return 0
	}
	return (int64(txEnd) - arr) / 1e3
}

// onSend records one delivered frame (send-loop goroutine only): network
// energy, the QoE window event, and a gauge flush when due.
func (p *sessionProbe) onSend(at time.Duration, bytes int, busy time.Duration, mtpUs int64) {
	p.meter.AddSend(bytes, busy)
	p.live.OnSend(at, mtpUs)
	p.maybeFlush(at)
}

// maybeFlush publishes the gauges when a flush interval has elapsed
// (owner goroutine only).
func (p *sessionProbe) maybeFlush(now time.Duration) {
	if now-p.lastFlushAt < sessionFlushInterval {
		return
	}
	p.flush(now)
}

// flush publishes the window stats and energy split (owner goroutine only).
func (p *sessionProbe) flush(now time.Duration) {
	st := p.live.Stats(now)
	p.fps.Set(st.FPS)
	p.mtp.Set(st.MeanMtPMs)
	p.mtpP99.Set(st.P99MtPMs)
	smooth := 1 - st.Stutter
	if smooth < 0 {
		smooth = 0
	}
	p.smooth.Set(smooth)
	split := p.meter.Totals()
	p.energyRender.Set(split.RenderJ)
	p.energyEncode.Set(split.EncodeJ)
	p.energyNetwork.Set(split.NetworkJ)
	total := split.TotalJ()
	if dt := now - p.lastFlushAt; dt > 0 && p.lastFlushAt > 0 {
		p.watts.Set((total - p.lastTotalJ) / dt.Seconds())
	}
	p.lastFlushAt = now
	p.lastTotalJ = total
}

// flushIdle is the flush of a probe whose owner is about to stop working (the
// hub's renderer parking with nobody attached): the energy totals publish as
// they stand and the power gauge reads 0 until work resumes, instead of
// holding the last busy interval's watts (owner goroutine only).
func (p *sessionProbe) flushIdle(now time.Duration) {
	p.flush(now)
	p.watts.Set(0)
}

// EnergyTotals reads the probe's cumulative energy split.
func (p *sessionProbe) EnergyTotals() powermodel.EnergySplit {
	return p.meter.Totals()
}

// close publishes a final flush; when deleteSeries is set it also retires
// the session's label sets so a churning hub does not accumulate one set of
// series per viewer ever attached (the LRU bound is the backstop, this is
// the orderly path). Counter series (tile outcomes, session starts) are
// unlabeled by session and stay.
func (p *sessionProbe) close(now time.Duration, deleteSeries bool) {
	p.flush(now)
	if !deleteSeries {
		return
	}
	v := p.vecs
	v.fps.Delete(p.session)
	v.mtp.Delete(p.session)
	v.mtpP99.Delete(p.session)
	v.smooth.Delete(p.session)
	v.watts.Delete(p.session)
	v.energy.Delete(p.session, "render")
	v.energy.Delete(p.session, "encode")
	v.energy.Delete(p.session, "network")
}
