package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"odr/internal/obs/scrape"
)

// viewerKind is what a viewer does with the stream.
type viewerKind int

const (
	kindInteractive viewerKind = iota // decodes every frame and sends inputs; the measuring viewer
	kindSilent                        // decodes every frame, sends nothing
	kindPassive                       // blocks, discards and counts frames
	kindChurner                       // reconnects about once a second
)

type viewerGroup struct {
	kind  viewerKind
	class string // which listener it dials
	count int
}

// streamSpec is one stream workload: a hub configuration and the viewers
// pointed at it.
type streamSpec struct {
	name          string
	width, height int
	targetFPS     float64
	// regulated says the hub is expected to hold targetFPS (otherwise it is
	// uncapped and displayed FPS is what the pipeline can do).
	regulated bool
	classes   []viewerClass
	groups    []viewerGroup
}

const (
	inputPeriod  = 100 * time.Millisecond // 10 Hz, open loop
	inputTimeout = 500 * time.Millisecond // an input unanswered for this long failed
	pacedFPS     = 30.0
	// rssSampleEvery is how often the server's resident set is read during
	// the window.
	rssSampleEvery = 250 * time.Millisecond
	// uncappedFPS is the "no cap" target cmd/odrbench's hub suite uses.
	uncappedFPS = 100000
)

var (
	classFull  = viewerClass{Name: "full"}
	classPaced = viewerClass{Name: "paced30", ClientFPS: pacedFPS}
	classHalf  = viewerClass{Name: "half", Downscale: 2}
)

var streamSpecs = []streamSpec{
	{
		name: "solo_odr60", width: 320, height: 180, targetFPS: 60, regulated: true,
		classes: []viewerClass{classFull},
		groups:  []viewerGroup{{kindInteractive, "full", 1}},
	},
	{
		name: "solo_sat", width: 320, height: 180, targetFPS: uncappedFPS,
		classes: []viewerClass{classFull},
		groups:  []viewerGroup{{kindInteractive, "full", 1}},
	},
	{
		name: "fanout32_mixed", width: 128, height: 72, targetFPS: 60, regulated: true,
		classes: []viewerClass{classFull, classPaced, classHalf},
		groups: []viewerGroup{
			{kindInteractive, "full", 1},
			{kindSilent, "full", 1},
			{kindPassive, "full", 14},
			{kindPassive, "paced30", 8},
			{kindPassive, "half", 4},
			{kindChurner, "full", 4},
		},
	},
}

// viewers is how many connections the workload holds open.
func (s *streamSpec) viewers() int {
	n := 0
	for _, g := range s.groups {
		n += g.count
	}
	return n
}

func streamSpecByName(name string) *streamSpec {
	for i := range streamSpecs {
		if streamSpecs[i].name == name {
			return &streamSpecs[i]
		}
	}
	return nil
}

// topology is a running server child with every viewer attached.
type topology struct {
	child    *serverChild
	meas     *decodeViewer
	silent   *decodeViewer // nil when the workload has none
	passive  []*passiveViewer
	churners []*churner
	setup    time.Duration // child exec to ready, plus dial to every viewer showing its first frame
}

// bringUp starts the child and attaches every viewer, dialing in a seeded
// order, and returns once each has shown (or, for passive ones, received)
// its first frame.
//
// A regulated hub renders on a fixed cadence from the moment it starts, and a
// generator that dials the instant the child is ready always lands on the
// same phase of that cadence: whether the first frame is caught or the next
// one awaited then flips on a millisecond of scheduling and the set-up time
// is bimodal. So the dial is held back by a seeded share of one frame period,
// and set-up time is exec to ready plus dial to every first frame.
func bringUp(spec *streamSpec, rng *rand.Rand, trace bool) (*topology, error) {
	child, err := startChild(serveConfig{
		Width: spec.width, Height: spec.height, TargetFPS: spec.targetFPS,
		Trace: trace, TraceEvents: 1 << 18,
		Classes: spec.classes,
	})
	if err != nil {
		return nil, err
	}
	ready := time.Since(child.started)
	time.Sleep(time.Duration(rng.Float64() * float64(time.Second) / spec.targetFPS))
	dialing := time.Now()
	t := &topology{child: child}
	type slot struct {
		kind  viewerKind
		class string
	}
	var slots []slot
	hashing := false // pixels are hashed only when there is a second viewer to compare with
	for _, g := range spec.groups {
		hashing = hashing || g.kind == kindSilent
		for i := 0; i < g.count; i++ {
			slots = append(slots, slot{g.kind, g.class})
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	var firsts []<-chan struct{}
	for _, s := range slots {
		addr := child.ready.Listeners[s.class]
		switch s.kind {
		case kindInteractive, kindSilent:
			v, err := dialDecodeViewer(addr, hashing)
			if err != nil {
				t.tearDown()
				return nil, err
			}
			if s.kind == kindInteractive {
				t.meas = v
			} else {
				t.silent = v
			}
			firsts = append(firsts, v.first)
		case kindPassive:
			p, err := dialPassiveViewer(addr, s.class)
			if err != nil {
				t.tearDown()
				return nil, err
			}
			t.passive = append(t.passive, p)
			firsts = append(firsts, p.first)
		case kindChurner:
			c := startChurner(addr, rng.Int63())
			t.churners = append(t.churners, c)
			firsts = append(firsts, c.first)
		}
	}
	deadline := time.After(10 * time.Second)
	for _, f := range firsts {
		select {
		case <-f:
		case <-deadline:
			t.tearDown()
			return nil, errors.New("a viewer showed no frame within 10s of set-up")
		}
	}
	t.setup = ready + time.Since(dialing)
	return t, nil
}

// tearDown stops everything without wanting results (error paths and the
// repeated set-ups that only time set-up).
func (t *topology) tearDown() {
	for _, c := range t.churners {
		c.stop()
	}
	t.child.kill()
	t.stopViewers()
}

func (t *topology) stopViewers() {
	if t.meas != nil {
		t.meas.stop()
	}
	if t.silent != nil {
		t.silent.stop()
	}
	for _, p := range t.passive {
		p.stop()
	}
}

// streamOptions sizes one run.
type streamOptions struct {
	seed   int64
	warmup time.Duration
	window time.Duration
	trace  bool
	setups int // how many times to set up; the last one is measured
}

// streamRun is everything one run of a stream workload measured.
type streamRun struct {
	EndToEnd metricSet
	Counters metricSet // per-layer, from window counters
	Spans    metricSet // per-layer, from the traced join (traced runs only)
	Checks   []check
	// Attempted and Failed count operations: inputs, joins, displayed frames
	// and connections.
	Attempted, Failed int
	Invalid           []string // validity flags that tripped
	ServerCPUMsFrame  float64  // for the tracing overhead ratio
	ChildGOMAXPROCS   int
}

// check is one correctness check made inside the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runStream runs one stream workload once.
func runStream(spec *streamSpec, opt streamOptions) (*streamRun, error) {
	rng := rand.New(rand.NewSource(opt.seed))
	var setups []float64
	var t *topology
	for i := 0; i < max(opt.setups, 1); i++ {
		if t != nil {
			t.tearDown()
		}
		var err error
		if t, err = bringUp(spec, rng, opt.trace); err != nil {
			return nil, err
		}
		setups = append(setups, t.setup.Seconds())
	}
	stopInputs := make(chan struct{})
	inputsDone := make(chan struct{})
	inputRng := rand.New(rand.NewSource(rng.Int63()))
	go func() {
		t.meas.generateInputs(inputRng, time.Now().Add(inputPeriod), inputPeriod, stopInputs)
		close(inputsDone)
	}()
	fail := func(err error) (*streamRun, error) {
		close(stopInputs)
		<-inputsDone
		t.tearDown()
		return nil, err
	}

	warmStart := time.Now()
	time.Sleep(opt.warmup)
	warmed := time.Since(warmStart)

	// Window start, aligned to an energy flush so joules and frame counters
	// are read at one instant.
	sc0, err := t.child.scrapeAtEnergyFlush(-1)
	if err != nil {
		return fail(err)
	}
	s0, err := t.child.completeSample(sc0)
	if err != nil {
		return fail(err)
	}
	wire0 := t.meas.cl.Report()
	paced0 := t.pacedFrames()

	// Resident memory is sampled through the window and reported as the
	// median: a single reading (or the peak) lands anywhere in the garbage
	// collector's sawtooth.
	var rss []float64
	for end := s0.at.Add(opt.window); time.Now().Before(end); time.Sleep(min(rssSampleEvery, time.Until(end))) {
		if mb, err := readRSSMB(t.child.ready.PID); err == nil {
			rss = append(rss, mb)
		}
	}

	s1, err := t.child.takeSample()
	if err != nil {
		return fail(err)
	}
	wire1 := t.meas.cl.Report()
	paced1 := t.pacedFrames()
	// The energy reading for the window's end is the first flush after it.
	scE, err := t.child.scrapeAtEnergyFlush(sharedEnergy(s1.sc))
	if err != nil {
		return fail(err)
	}

	close(stopInputs)
	<-inputsDone
	t.waitForAnswers()
	var joins []joinRec
	for _, c := range t.churners {
		joins = append(joins, c.stop()...)
	}
	// An unexpected disconnect is one that happened before the run decided
	// to stop: look before stopping the child, which disconnects everybody.
	disconnects := t.disconnected()
	dump, err := t.child.stop()
	t.stopViewers()
	if err != nil {
		return nil, err
	}
	final, err := scrape.ParseBytes(dump.FinalMetrics)
	if err != nil {
		return nil, fmt.Errorf("final metrics: %w", err)
	}

	w := &windowData{
		spec: spec, s0: s0, s1: s1, scE: scE, final: final,
		wireBytes:   float64(wire1.Bytes - wire0.Bytes),
		wireFrames:  float64(wire1.Frames - wire0.Frames),
		connections: spec.viewers() - len(t.churners),
		joins:       joins,
		disconnects: disconnects,
		resyncs:     wire1.Resyncs,
		rss:         rss,
	}
	for i := range paced0 {
		w.pacedFrames = append(w.pacedFrames, float64(paced1[i]-paced0[i]))
	}
	w.recs, w.inputs = t.meas.recs, t.meas.inputs // the viewers have stopped
	w.seqErrors = t.meas.seqErrors
	if t.silent != nil {
		w.silentFrames = len(t.silent.recs)
		w.seqErrors += t.silent.seqErrors
		w.resyncs += t.silent.cl.Report().Resyncs
		w.hashMismatch, w.hashCompared = compareHashes(t.meas.hashes, t.silent.hashes)
	}
	run := w.analyse()
	// Set-up is everything before the measured window opens: bringing the
	// topology up (the median of the run's set-ups) and warming it. Bring-up
	// alone is 10-20 ms of host-speed-bound time, whose median moved 23 %
	// between two sets of runs 16 minutes apart; the driver's widest bound is
	// 25 %, so on its own it is reported, not gated.
	run.EndToEnd.putN("setup_s", median(setups)+warmed.Seconds(), "s", len(setups))
	run.Counters.putN("setup_first_frame_s", median(setups), "s", len(setups))
	run.ChildGOMAXPROCS = t.child.ready.GOMAXPROCS
	if opt.trace {
		run.Spans = joinTrace(dump, t.child.ready.EpochUnixNs, w)
		if e := run.Spans["trace.conservation_err"]; e.Value > maxConservationErr {
			run.Invalid = append(run.Invalid, fmt.Sprintf("trace.conservation_err %.3f > %.2f", e.Value, maxConservationErr))
		}
		if dump.TraceDropped > 0 {
			run.Invalid = append(run.Invalid, fmt.Sprintf("trace ring overwrote %d events", dump.TraceDropped))
		}
	}
	return run, nil
}

// pacedFrames reads the frame count of every viewer on the paced listener.
func (t *topology) pacedFrames() []int64 {
	var out []int64
	for _, p := range t.passive {
		if p.class == classPaced.Name {
			out = append(out, p.frames.Load())
		}
	}
	return out
}

// waitForAnswers gives the inputs sent last their full timeout to be
// answered.
func (t *topology) waitForAnswers() {
	deadline := time.Now().Add(inputTimeout)
	for time.Now().Before(deadline) {
		t.meas.mu.Lock()
		sent, answered := len(t.meas.inputs), 0
		for _, r := range t.meas.recs {
			if r.tagged {
				answered++
			}
		}
		t.meas.mu.Unlock()
		if answered >= sent {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// disconnected counts viewers whose connection has already ended.
func (t *topology) disconnected() int {
	n := 0
	ended := func(done <-chan struct{}) {
		select {
		case <-done:
			n++
		default:
		}
	}
	ended(t.meas.done)
	if t.silent != nil {
		ended(t.silent.done)
	}
	for _, p := range t.passive {
		ended(p.done)
	}
	return n
}

// compareHashes counts the seqs both viewers displayed and those whose pixels
// differ.
func compareHashes(a, b map[uint64][32]byte) (mismatch, compared int) {
	for seq, ha := range a {
		if hb, ok := b[seq]; ok {
			compared++
			if ha != hb {
				mismatch++
			}
		}
	}
	return mismatch, compared
}

// windowData is the raw material of one run's analysis.
type windowData struct {
	spec        *streamSpec
	s0, s1      *sample
	scE         *scrape.Scrape // first energy flush after s1
	final       *scrape.Scrape // after Hub.Stop
	recs        []displayRec
	inputs      []inputRec
	wireBytes   float64
	wireFrames  float64
	pacedFrames []float64 // frames each paced viewer received in the window
	connections int       // viewers expected to stay connected
	joins       []joinRec
	disconnects int
	resyncs     int64
	seqErrors   int
	rss         []float64 // server VmRSS samples through the window, MB

	silentFrames int
	hashMismatch int
	hashCompared int

	// answered is filled by matchInputs: every input with the display that
	// answered it.
	answered []answeredInput
}

// answeredInput pairs an input with the display that answered it.
type answeredInput struct {
	in       inputRec
	rec      int  // index into recs; -1 when unanswered
	combined bool // answered by the frame that echoed an older input
}

// inWindow reports whether unix-ns instant ts falls in the measured window.
func (w *windowData) inWindow(ts int64) bool {
	return ts >= w.s0.at.UnixNano() && ts < w.s1.at.UnixNano()
}

// matchInputs pairs every input with the display that answered it. The hub
// echoes one input stamp per frame, and the client's own latency sample for
// that frame (echoMs) dates the SendInput call it answers, so the pairing does
// not assume inputs are answered one by one in order.
//
// When several inputs are pending at render time the hub combines them into
// one frame (the paper's section 5.3) and echoes the oldest. The later ones
// never get an echo of their own; an input without one, written before the
// frame that echoed its predecessor was displayed, was answered by that frame.
func (w *windowData) matchInputs() {
	next, last := 0, -1 // next unpaired input; display that answered the previous one
	unechoed := func(k int) {
		in := w.inputs[k]
		if last >= 0 && w.recs[last].at >= in.written {
			w.answered = append(w.answered, answeredInput{in: in, rec: last, combined: true})
			return
		}
		w.answered = append(w.answered, answeredInput{in: in, rec: -1})
	}
	for i, r := range w.recs {
		if !r.tagged {
			continue
		}
		sentAt := r.at - int64(r.echoMs*1e6)
		best, bestDiff := -1, int64(inputPeriod/2)
		for k := next; k < len(w.inputs); k++ {
			d := w.inputs[k].written - sentAt
			if d < 0 {
				d = -d
			}
			if d < bestDiff {
				best, bestDiff = k, d
			}
			if w.inputs[k].written > r.at {
				break
			}
		}
		if best < 0 {
			continue
		}
		for k := next; k < best; k++ {
			unechoed(k)
		}
		w.answered = append(w.answered, answeredInput{in: w.inputs[best], rec: i})
		next, last = best+1, i
	}
	for k := next; k < len(w.inputs); k++ {
		unechoed(k)
	}
}

// delta is a counter's growth over the window.
func (w *windowData) delta(name string, want ...scrape.Label) float64 {
	return sumSeries(w.s1.sc, name, want...) - sumSeries(w.s0.sc, name, want...)
}

// sumSeries adds up every series of a family that carries the wanted labels.
func sumSeries(sc *scrape.Scrape, name string, want ...scrape.Label) float64 {
	var sum float64
next:
	for _, sm := range sc.Series(name) {
		for _, l := range want {
			if sm.Label(l.Name) != l.Value {
				continue next
			}
		}
		sum += sm.Value
	}
	return sum
}

// energyDelta is the joules the hub's power model billed between the two
// flush-aligned scrapes, by component, counting the shared probe and every
// session alive at both ends.
func energyDelta(a, b *scrape.Scrape) (total float64, byComponent map[string]float64) {
	type key struct{ session, component string }
	start := make(map[key]float64)
	for _, sm := range a.Series(energySeries) {
		start[key{sm.Label("session"), sm.Label("component")}] = sm.Value
	}
	byComponent = make(map[string]float64)
	for _, sm := range b.Series(energySeries) {
		k := key{sm.Label("session"), sm.Label("component")}
		if v0, ok := start[k]; ok {
			byComponent[k.component] += sm.Value - v0
			total += sm.Value - v0
		}
	}
	return total, byComponent
}

// maxTimeoutPercent is the share of inputs (or joins) that may time out
// before the run counts as incorrect. Every timeout is an operation failed
// and stays in the latency sample as over any limit; but a late answer is not
// a wrong output, and a half-second stall of the shared host takes out the
// five inputs due inside it (seen about once in thirty runs).
const maxTimeoutPercent = 5

// Limits of the validity flags.
const (
	maxGenCPUShare     = 0.5
	maxConservationErr = 0.05
	framePeriodMs      = 1000.0 / 60 // every workload's display rate is 60 Hz or uncapped
)

// analyse turns the window's raw data into metrics and checks.
func (w *windowData) analyse() *streamRun {
	run := &streamRun{EndToEnd: metricSet{}, Counters: metricSet{}}
	e2e, ctr := run.EndToEnd, run.Counters
	secs := w.s1.at.Sub(w.s0.at).Seconds()

	// Displays of the measuring viewer inside the window.
	var gaps []float64
	displayed := 0
	var prev int64
	for _, r := range w.recs {
		if !w.inWindow(r.at) {
			continue
		}
		displayed++
		if prev != 0 {
			gaps = append(gaps, float64(r.at-prev)/1e6)
		}
		prev = r.at
	}
	sort.Float64s(gaps)
	fps := float64(displayed) / secs

	// Motion-to-photon: input due to display of the frame tagged with it.
	w.matchInputs()
	var mtp, late []float64
	inputsAttempted, inputsFailed, inputsCombined := 0, 0, 0
	firstMiss := ""
	for _, a := range w.answered {
		if !w.inWindow(a.in.due) {
			continue
		}
		inputsAttempted++
		if a.combined {
			inputsCombined++
		}
		late = append(late, float64(a.in.written-a.in.due)/1e6)
		ms := math.Inf(1)
		if a.rec >= 0 {
			ms = float64(w.recs[a.rec].at-a.in.due) / 1e6
		}
		if ms > float64(inputTimeout/time.Millisecond) {
			inputsFailed++ // counts as over any limit: it stays in the sample as +Inf
			if firstMiss == "" {
				firstMiss = fmt.Sprintf("; first: due %.3fs into the window, written %.2fms late, answered=%v",
					float64(a.in.due-w.s0.at.UnixNano())/1e9, float64(a.in.written-a.in.due)/1e6, a.rec >= 0)
			}
		}
		mtp = append(mtp, ms)
	}
	sort.Float64s(mtp)
	sort.Float64s(late)

	rendered := w.delta("odr_frames_rendered_total")
	encoded := w.delta("odr_frames_encoded_total")
	delivered := w.delta("odr_frames_displayed_total")
	cpu := w.s1.proc.cpuSec() - w.s0.proc.cpuSec()
	joules, byComp := energyDelta(w.s0.sc, w.scE)
	deliveredE := sumSeries(w.scE, "odr_frames_displayed_total") - sumSeries(w.s0.sc, "odr_frames_displayed_total")

	e2e.put("renders_per_display", ratio(rendered, float64(displayed)), "ratio")
	e2e.putN("wire_kb_per_frame", ratio(w.wireBytes/1000, w.wireFrames), "KB", int(w.wireFrames))

	// End-to-end metrics that are reported but not gated, so they sit with
	// the layer counters: every time-valued one (on the builder's shared host
	// their run-to-run spread passes a tenth, and the issue demotes such a
	// metric instead of widening its bound), resident memory (fanout32_mixed's
	// tile cache grows through the window at a seed-dependent rate), and those
	// that are ~0 on some workloads or exist on one only.
	cpuMsFrame := ratio(cpu*1000, delivered)
	ctr.putN("displayed_fps", fps, "1/s", displayed)
	ctr.putN("server_cpu_ms_per_frame", cpuMsFrame, "ms", int(delivered))
	ctr.putN("joules_per_frame", ratio(joules, deliveredE), "J", int(deliveredE))
	ctr.putN("server_rss_mb", median(w.rss), "MB", len(w.rss))
	run.ServerCPUMsFrame = cpuMsFrame
	ctr.putN("mtp_p50_ms", percentile(mtp, 50), "ms", len(mtp))
	ctr.putN("mtp_p95_ms", percentile(mtp, 95), "ms", len(mtp))
	ctr.putN("frame_gap_p95_ms", percentile(gaps, 95), "ms", len(gaps))
	ctr.put("excess_render_ratio", ratio(rendered-float64(displayed), rendered), "ratio")
	if w.spec.regulated {
		ctr.put("fps_target_miss", math.Abs(fps-w.spec.targetFPS)/w.spec.targetFPS, "ratio")
	} else {
		ctr.put("fps_target_miss", 0, "ratio")
	}
	var joinMs []float64
	joinsAttempted, joinsFailed := 0, 0
	for _, j := range w.joins {
		if !w.inWindow(j.at) {
			continue
		}
		joinsAttempted++
		if j.ok {
			joinMs = append(joinMs, j.ms)
		} else {
			joinsFailed++
			joinMs = append(joinMs, math.Inf(1))
		}
	}
	sort.Float64s(joinMs)
	ctr.putN("join_p50_ms", percentile(joinMs, 50), "ms", len(joinMs))
	ctr.putN("join_p90_ms", percentile(joinMs, 90), "ms", len(joinMs))

	// Window counters, layer by layer.
	ctr.put("hub.rendered_per_s", rendered/secs, "1/s")
	ctr.put("hub.encoded_per_s", encoded/secs, "1/s")
	ctr.put("hub.sent_per_s", delivered/secs, "1/s")
	ctr.put("hub.dropped_per_s", w.delta("odr_frames_dropped_total")/secs, "1/s")
	ctr.put("hub.priority_per_s", w.delta("odr_frames_priority_total")/secs, "1/s")
	ctr.put("hub.sends_per_encode", ratio(delivered, encoded), "ratio")
	ctr.put("hub.spliced_keyframes_per_s", w.delta("odr_hub_spliced_keyframes_total")/secs, "1/s")
	ctr.put("hub.spliced_deltas_per_s", w.delta("odr_hub_spliced_deltas_total")/secs, "1/s")
	ctr.put("codec.dirty_tile_ratio", ratio(w.delta("odr_tiles_dirty_total"), w.delta("odr_tiles_coded_total")), "ratio")
	hits, misses := w.delta("odr_codec_tile_cache_hits_total"), w.delta("odr_codec_tile_cache_misses_total")
	ctr.put("codec.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	ctr.put("engine.frames_per_flush",
		ratio(float64(w.s1.snap.SenderFrames-w.s0.snap.SenderFrames), float64(w.s1.snap.SenderPasses-w.s0.snap.SenderPasses)), "ratio")
	ctr.put("engine.sender_queue_depth_max", w.s1.snap.QueueDepthMax, "count")
	ctr.put("engine.wheel_lag_us_max", w.s1.snap.WheelLagUsMax, "us")
	var pacedMiss []float64
	for _, frames := range w.pacedFrames {
		pacedMiss = append(pacedMiss, math.Abs(frames/secs-pacedFPS)/pacedFPS)
	}
	ctr.putN("engine.paced_fps_miss", median(pacedMiss), "ratio", len(pacedMiss))
	evicted := w.final.Number("odr_sessions_evicted_total")
	ctr.put("engine.evicted", evicted, "count")
	ctr.put("server.ctxsw_per_frame", ratio(float64(w.s1.proc.CtxSwitches-w.s0.proc.CtxSwitches), delivered), "count")
	ctr.put("server.sys_cpu_share", ratio(w.s1.proc.SysSec-w.s0.proc.SysSec, cpu), "ratio")
	ctr.put("server.rss_peak_mb", w.s1.proc.RSSPeakMB, "MB")
	ctr.put("server.goroutines", w.s1.sc.Number("go_goroutines"), "count")
	ctr.put("server.heap_mb", w.s1.sc.Number("go_memstats_heap_alloc_bytes")/1e6, "MB")
	ctr.put("server.allocs_per_frame", ratio(float64(w.s1.snap.Mallocs-w.s0.snap.Mallocs), delivered), "count")
	ctr.put("powermodel.render_j_share", ratio(byComp["render"], joules), "ratio")
	ctr.put("powermodel.encode_j_share", ratio(byComp["encode"], joules), "ratio")
	ctr.put("powermodel.network_j_share", ratio(byComp["network"], joules), "ratio")
	genLate := percentile(late, 95)
	genShare := (w.s1.genCPU - w.s0.genCPU) / secs / float64(runtime.NumCPU())
	ctr.putN("gen.input_late_p95_ms", genLate, "ms", len(late))
	ctr.put("gen.cpu_share", genShare, "ratio")

	// Correctness checks.
	add := func(name string, ok bool, format string, args ...any) {
		run.Checks = append(run.Checks, check{name, ok, fmt.Sprintf(format, args...)})
	}
	add("frames-decode-in-order", w.seqErrors == 0 && w.resyncs == 0 && displayed > 0,
		"%d displayed in the window, %d out-of-order seqs, %d resyncs (corrupt or undecodable frames)", displayed, w.seqErrors, w.resyncs)
	add("inputs-answered", inputsAttempted > 0 && inputsFailed*100 <= inputsAttempted*maxTimeoutPercent,
		"%d of %d inputs got no answering frame within %v (%d were combined into an older input's frame)%s",
		inputsFailed, inputsAttempted, inputTimeout, inputsCombined, firstMiss)
	if w.silentFrames > 0 {
		add("viewers-pixel-identical", w.hashMismatch == 0 && w.hashCompared > 0,
			"%d of %d seqs shown by both full-decode viewers differ in sha256", w.hashMismatch, w.hashCompared)
	}
	fr, fe := w.final.Number("odr_frames_rendered_total"), w.final.Number("odr_frames_encoded_total")
	lanes := float64(len(w.final.Series("odr_hub_shared_encodes_total")))
	add("encoded-le-rendered", fe > 0 && fe <= fr*math.Max(lanes, 1),
		"encoded %.0f <= rendered %.0f x %.0f lanes", fe, fr, lanes)
	fh := w.final.Number("odr_codec_tile_cache_hits_total")
	fm := w.final.Number("odr_codec_tile_cache_misses_total")
	fd := w.final.Number("odr_tiles_outcome_total", scrape.Label{Name: "tile_outcome", Value: "dirty"})
	fs := sumSeries(w.final, "odr_hub_spliced_tiles_total")
	add("tile-cache-identity", fh+fm > 0 && fh+fm == fd+fs,
		"hits %.0f + misses %.0f = %.0f, dirty %.0f + spliced %.0f = %.0f", fh, fm, fh+fm, fd, fs, fd+fs)
	add("no-disconnects-or-evictions", w.disconnects == 0 && evicted == 0,
		"%d viewers disconnected before the run ended, %.0f evicted", w.disconnects, evicted)
	if len(w.joins) > 0 {
		add("joins-show-a-frame", joinsAttempted > 0 && joinsFailed*100 <= joinsAttempted*maxTimeoutPercent,
			"%d of %d joins showed no frame within %v", joinsFailed, joinsAttempted, joinTimeout)
	}

	run.Attempted = inputsAttempted + joinsAttempted + displayed + w.hashCompared + w.connections
	run.Failed = inputsFailed + joinsFailed + w.seqErrors + int(w.resyncs) + w.hashMismatch + w.disconnects + int(evicted)

	if genShare > maxGenCPUShare {
		run.Invalid = append(run.Invalid, fmt.Sprintf("gen.cpu_share %.2f > %.2f: the load generator, not the server, may be the limit", genShare, maxGenCPUShare))
	}
	if genLate > framePeriodMs {
		run.Invalid = append(run.Invalid, fmt.Sprintf("gen.input_late_p95_ms %.2f exceeds one frame period (%.2f ms)", genLate, framePeriodMs))
	}
	return run
}
