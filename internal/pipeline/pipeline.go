// Package pipeline composes the substrates into the full cloud-3D pipeline
// of the paper's Fig. 2 and runs it in the discrete-event simulator:
//
//	client input ──uplink──▶ [3D app / renderer] ─▶ [server proxy: copy+encode]
//	     ▲                                                      │
//	     └── display ◀─ decode ◀──downlink◀── [network: tx queue]
//
// Each stage is a simulation process; the chosen regulation Policy supplies
// the buffering and gating between the stages. A monitor process feeds the
// DRAM-contention model (whose CPU/GPU slowdowns feed back into stage
// service times) and the power model, and collects the windowed statistics
// that the paper reports: FPS per 200 ms window, FPS gaps, motion-to-photon
// latency, memory behaviour and wall power.
package pipeline

import (
	"time"

	"odr/internal/core"
	"odr/internal/frame"
	"odr/internal/memmodel"
	"odr/internal/metrics"
	"odr/internal/netsim"
	"odr/internal/obs"
	"odr/internal/powermodel"
	"odr/internal/regulator"
	"odr/internal/sim"
	"odr/internal/simrt"
	"odr/internal/workload"
)

// PolicyFactory builds the regulation policy once the pipeline has created
// the simulation context.
type PolicyFactory func(*regulator.Ctx) regulator.Policy

// Config describes one simulated run. The DRAM model takes its IPC peak
// from Workload.CPUIPC and the power model its defaults; the run's numbers
// are its Result, and Trace is the one live instrument it writes. Its JSON
// form, every field but Policy, Source and Trace, keys the experiment
// runner's result cache (sched.CellKey).
type Config struct {
	// Label tags the run in results: a paper configuration's
	// core.Policy.String, or a variant's own name.
	Label string
	// Workload is the benchmark model and Scale the platform/resolution
	// scaling.
	Workload workload.Params
	Scale    workload.Scale
	// Source, when non-nil, overrides the stochastic sampler as the
	// frame-cost supplier (e.g. a workload.TraceSampler replaying a
	// recorded trace). Workload is still consulted for GPUShare/CPUIPC.
	Source workload.Source `json:"-"`
	// Net is the network path model.
	Net netsim.Params
	// Policy builds the regulation policy.
	Policy PolicyFactory `json:"-"`
	// Duration is the measured run length (default 60 s); the warmup
	// before it is excluded from all statistics.
	Duration time.Duration
	// Seed makes the run reproducible.
	Seed int64
	// DisableContention freezes the DRAM model at its uncontended point
	// (ablation: isolates the §6.3 FPS gain that comes from the
	// contention feedback).
	DisableContention bool
	// CollectFrames, when positive, stores copies of the first N displayed
	// frames (after warmup) in Result.FrameTrace for timeline plots
	// (Fig. 4b, Fig. 5).
	CollectFrames int
	// VRRMinHz/VRRMaxHz, when set, give the client a variable-refresh-rate
	// display (FreeSync/G-Sync): frames are displayed on arrival inside the
	// [1/max, 1/min] window, removing tearing without RVS's vblank waits.
	// This is the client-side optimization §5.2 leaves as future work.
	VRRMinHz float64
	VRRMaxHz float64
	// Trace, when non-nil, records every frame's lifecycle against the
	// virtual clock: render/copy/encode/tx/decode spans, input arrivals,
	// display instants, and the ODR events (mulbuf-drop, priority-frame,
	// pace). Export with Trace.WriteChromeTrace for a Fig. 5-style
	// Perfetto timeline. Nil disables tracing at nil-check cost.
	Trace *obs.Tracer `json:"-"`
}

// warmup is simulated before every run's measured Duration and excluded
// from all statistics.
const warmup = 2 * time.Second

// rawFrameBytes is the uncompressed frame size (pixels × 4) that drives
// the DRAM traffic model: 720p scaled by Scale.Pixels, 720p when unscaled.
func (c *Config) rawFrameBytes() int {
	if b := int(1280 * 720 * 4 * c.Scale.Pixels); b != 0 {
		return b
	}
	return 1280 * 720 * 4
}

// Result carries everything the experiments need from one run.
type Result struct {
	Label     string
	Benchmark string

	// Long-run average rates (frames/second).
	RenderFPS float64
	EncodeFPS float64
	ClientFPS float64
	// ExtraFPS is the part of ClientFPS made of extra frames: frames ODR's
	// render clock started before their slot for an input (frame.Extra).
	// ClientFPS − ExtraFPS is the regular cadence, the rate to hold
	// against a target.
	ExtraFPS float64

	// Windowed (200 ms) rate distributions, for box plots and tails.
	ClientRates metrics.Dist
	RenderRates metrics.Dist

	// FPS gap (render − client) over 500 ms windows.
	GapMean float64
	GapMax  float64

	// Motion-to-photon latency (ms).
	MtP metrics.Dist

	// Per-step processing-time distributions (ms), for Fig. 4.
	RenderTimes metrics.Dist
	EncodeTimes metrics.Dist
	TransTimes  metrics.Dist

	// Inter-display gap distribution (ms) for stutter/tearing analysis.
	InterDisplay metrics.Dist

	// Memory behaviour (time-weighted window averages).
	MissRate   float64
	ReadTimeNs float64
	IPC        float64

	// Power (W, run average) and energy (J).
	PowerWatts   float64
	EnergyJoules float64

	// Frame accounting.
	FramesRendered  int64
	FramesDisplayed int64
	FramesDropped   int64
	PriorityFrames  int64

	// Network.
	BandwidthMbps float64
	MaxQueueBytes int

	// VSynced reports whether the client displayed on vblanks (RVS).
	VSynced bool
	// VRR reports whether the client used a variable-refresh display.
	VRR bool

	// FrameTrace holds the first Config.CollectFrames displayed frames.
	FrameTrace []frame.Frame
}

// pipelineState is the mutable state shared by the stage processes.
type pipelineState struct {
	cfg     Config
	env     *sim.Env
	dom     *simrt.Domain
	sampler workload.Source
	link    *netsim.Link
	policy  regulator.Policy
	inputs  *core.InputBox
	mem     *memmodel.Model
	power   *powermodel.Model

	memSnap memmodel.Snapshot

	deliver *sim.Queue[*frame.Frame]

	// carried holds input stamps whose frames were dropped; they attach to
	// the next rendered frame (the first later frame that reaches the
	// display answers those inputs).
	carried []frame.InputStamp

	// Cumulative busy-time accounting for utilization windows. Busy is
	// wall time consumed (stretched by time-sharing); demand is the raw
	// service time required at current DRAM contention, used by RunGroup
	// to compute oversubscription without the stretch feeding back.
	gpuBusy   time.Duration
	cpuBusy   time.Duration
	gpuDemand time.Duration
	cpuDemand time.Duration

	// Counters (monotone; the monitor takes deltas).
	rendered  int64
	encoded   int64
	displayed int64
	dropped   int64
	priority  int64

	extraDisplayed int64 // displayed extra frames, counted while collecting

	collecting bool // true once warmup has passed

	// extGPU/extCPU are slowdowns imposed by co-located sessions (set by
	// the group monitor in RunGroup; 1.0 in single-session runs).
	extGPU float64
	extCPU float64

	// Instruments (guarded by collecting).
	renderCounter *metrics.RateCounter
	encodeCounter *metrics.RateCounter
	clientCounter *metrics.RateCounter
	gap           metrics.GapStat
	mtp           metrics.LatencyRecorder
	renderTimes   metrics.Dist
	encodeTimes   metrics.Dist
	transTimes    metrics.Dist
	interDisplay  metrics.Dist
	lastDisplay   time.Duration

	memMiss metrics.Dist
	memRead metrics.Dist
	memIPC  metrics.Dist

	frameTrace []frame.Frame

	startBytes int64 // link bytes at collection start

	tr *obs.Tracer // nil-safe: a disabled tracer costs a nil check
}

// sourceFor picks the configured Source or builds the stochastic sampler.
func sourceFor(cfg Config) workload.Source {
	if cfg.Source != nil {
		return cfg.Source
	}
	return workload.NewSampler(cfg.Workload, cfg.Scale, cfg.Seed)
}

// build constructs a pipeline state inside env without spawning processes.
func build(cfg Config, env *sim.Env) *pipelineState {
	if cfg.Duration == 0 {
		cfg.Duration = 60 * time.Second
	}
	dom := simrt.NewDomain(env)
	st := &pipelineState{
		cfg:           cfg,
		env:           env,
		dom:           dom,
		sampler:       sourceFor(cfg),
		link:          netsim.NewLink(cfg.Net, cfg.Seed+1),
		inputs:        core.NewInputBox(dom),
		mem:           memmodel.New(cfg.Workload.CPUIPC),
		power:         powermodel.New(powermodel.Config{}),
		deliver:       sim.NewQueue[*frame.Frame](env, 0),
		renderCounter: metrics.NewRateCounter(200 * time.Millisecond),
		encodeCounter: metrics.NewRateCounter(200 * time.Millisecond),
		clientCounter: metrics.NewRateCounter(200 * time.Millisecond),
		extGPU:        1,
		extCPU:        1,
		tr:            cfg.Trace,
	}
	st.memSnap = st.mem.Current()

	ctx := &regulator.Ctx{
		Env:    env,
		Dom:    dom,
		Link:   st.link,
		Inputs: st.inputs,
		Buffer: cfg.Net.BufferBytes,
		OnDrop: st.onDrop,
	}
	st.policy = cfg.Policy(ctx)
	// Pacer-delay spans: the regulator's pacer reports every delay its
	// render clock grants; [end, end+d) is when the renderer waits for its
	// next slot (an input may start an extra frame inside it).
	if st.tr != nil {
		if pp, ok := st.policy.(interface{ Pacer() *core.Pacer }); ok {
			tr := st.tr
			pp.Pacer().OnDelay = func(end, d time.Duration) {
				tr.Span(obs.TrackPacer, "pace", 0, end, end+d)
			}
		}
	}
	return st
}

// spawnStages starts the five pipeline stage processes (not the monitor).
func (st *pipelineState) spawnStages() {
	st.env.Spawn("renderer", st.rendererProc)
	st.env.Spawn("proxy", st.proxyProc)
	st.env.Spawn("network", st.networkProc)
	st.env.Spawn("client", st.clientProc)
	st.env.Spawn("input", st.inputProc)
}

// Run executes one configured simulation and returns its result.
func Run(cfg Config) *Result {
	env := sim.NewEnv()
	st := build(cfg, env)
	st.spawnStages()
	env.Spawn("monitor", st.monitorProc)

	total := warmup + st.cfg.Duration
	env.Run(total)
	st.policy.Close()
	env.Shutdown()

	return st.result(total)
}

// onDrop records a dropped frame and carries its inputs forward.
func (st *pipelineState) onDrop(f *frame.Frame) {
	st.dropped++
	st.tr.Instant(obs.TrackRender, "mulbuf-drop", f.Seq, st.dom.Now())
	if len(f.Inputs) > 0 {
		st.carried = append(st.carried, f.Inputs...)
	}
}

func (st *pipelineState) result(end time.Duration) *Result {
	st.renderCounter.Flush(end)
	st.encodeCounter.Flush(end)
	st.clientCounter.Flush(end)
	span := st.cfg.Duration
	r := &Result{
		Label:           st.cfg.Label,
		Benchmark:       st.cfg.Workload.Name,
		RenderFPS:       float64(st.renderCounter.Total()) / span.Seconds(),
		EncodeFPS:       float64(st.encodeCounter.Total()) / span.Seconds(),
		ClientFPS:       float64(st.clientCounter.Total()) / span.Seconds(),
		ExtraFPS:        float64(st.extraDisplayed) / span.Seconds(),
		ClientRates:     *st.clientCounter.Rates(),
		RenderRates:     *st.renderCounter.Rates(),
		GapMean:         st.gap.Mean(),
		GapMax:          st.gap.Max(),
		MtP:             *st.mtp.Dist(),
		RenderTimes:     st.renderTimes,
		EncodeTimes:     st.encodeTimes,
		TransTimes:      st.transTimes,
		InterDisplay:    st.interDisplay,
		MissRate:        st.memMiss.Mean(),
		ReadTimeNs:      st.memRead.Mean(),
		IPC:             st.memIPC.Mean(),
		PowerWatts:      st.power.AverageWatts(),
		EnergyJoules:    st.power.EnergyJoules(),
		FramesRendered:  st.rendered,
		FramesDisplayed: st.displayed,
		FramesDropped:   st.dropped,
		PriorityFrames:  st.priority,
		BandwidthMbps:   float64(st.link.SentBytes()-st.startBytes) * 8 / 1e6 / span.Seconds(),
		FrameTrace:      st.frameTrace,
	}
	if _, ok := st.policy.(*regulator.RVS); ok {
		r.VSynced = true
	}
	if b, ok := st.policy.(regulator.MaxBacklogger); ok {
		r.MaxQueueBytes = b.MaxBacklogBytes()
	}
	if st.cfg.VRRMaxHz > 0 {
		r.VRR = true
	}
	return r
}
