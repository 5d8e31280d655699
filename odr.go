// Package odr is the public API of the OnDemand Rendering (ODR)
// reproduction — the cloud-3D FPS-regulation system of "Improving Resource
// and Energy Efficiency for Cloud 3D through Excessive Rendering Reduction"
// (EuroSys 2024).
//
// The package offers three entry points:
//
//   - Simulate runs the discrete-event cloud-3D pipeline under a chosen
//     regulation policy and benchmark/platform configuration and returns the
//     paper's metrics (FPS, FPS gap, motion-to-photon latency, DRAM
//     behaviour, power).
//
//   - NewHub / NewStreamClient build the real-time streaming stack: a hub
//     that renders a synthetic game, regulates it with ODR (or a baseline,
//     HubConfig.Policy), encodes frames with a real codec and streams them to
//     one or many viewers over any net.Conn; and a measuring client.
//
//   - The re-exported core types (MultiBuffer, Pacer, InputBox) are the
//     paper's mechanisms themselves, usable in other pipelines via the
//     small Domain/Waiter runtime abstraction.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-versus-measured results.
package odr

import (
	"fmt"
	"net"
	"time"

	"odr/internal/chaos"
	"odr/internal/cluster"
	"odr/internal/codec"
	"odr/internal/core"
	"odr/internal/obs"
	"odr/internal/pipeline"
	"odr/internal/realrt"
	"odr/internal/simrun"
	"odr/internal/stream"
)

// Core mechanism re-exports: these are the §5 components.
type (
	// MultiBuffer is ODR's stage-synchronizing front/back frame buffer
	// (§5.1).
	MultiBuffer = core.MultiBuffer
	// Pacer is the accumulated-delay FPS regulator of Algorithm 1 (§5.2).
	Pacer = core.Pacer
	// InputBox implements PriorityFrame's input observation and
	// interruptible render delay (§5.3).
	InputBox = core.InputBox
	// Domain and Waiter are the runtime abstraction the components run on
	// (virtual time in the simulator, wall clock in the stream stack).
	Domain = core.Domain
	Waiter = core.Waiter
)

// NewMultiBuffer returns an empty multi-buffer in dom.
func NewMultiBuffer(dom Domain) *MultiBuffer { return core.NewMultiBuffer(dom) }

// NewPacer returns an Algorithm 1 pacer targeting targetFPS (0 disables
// pacing).
func NewPacer(targetFPS float64) *Pacer { return core.NewPacer(targetFPS) }

// NewInputBox returns an empty input box in dom.
func NewInputBox(dom Domain) *InputBox { return core.NewInputBox(dom) }

// NewRealtimeDomain returns a wall-clock Domain (with NewRealtimeWaiter for
// its goroutines), for using the core components outside the provided
// stacks.
func NewRealtimeDomain() Domain { return realrt.NewDomain() }

// NewRealtimeWaiter returns a Waiter for dom, which must have been created
// by NewRealtimeDomain.
func NewRealtimeWaiter(dom Domain) Waiter { return realrt.NewWaiter(dom.(*realrt.Domain)) }

// Policy names a regulation policy for Simulate.
type Policy string

// The available regulation policies.
const (
	PolicyNoReg    Policy = "noreg" // no regulation (the §4 baseline)
	PolicyInterval Policy = "int"   // interval-based regulation (§2)
	PolicyRVS      Policy = "rvs"   // Remote VSync (§2, [49])
	PolicyODR      Policy = "odr"   // OnDemand Rendering (§5)
)

// SimConfig configures one Simulate run. Zero values pick the defaults
// shown on each field.
type SimConfig struct {
	// Benchmark is one of STK, 0AD, RE, D2, IM (default), ITP.
	Benchmark string
	// Platform is "priv" (default) or "gce".
	Platform string
	// Resolution is "720p" (default) or "1080p".
	Resolution string
	// Policy selects the regulator (default PolicyODR).
	Policy Policy
	// TargetFPS is the QoS goal: 0 maximizes FPS; for PolicyRVS it is the
	// client display refresh rate.
	TargetFPS float64
	// Duration is the measured simulated time (default 60s).
	Duration time.Duration
	// Seed makes the run reproducible (default 1).
	Seed int64
	// Trace, when non-nil, records the frame lifecycle of the run as spans
	// and instants on the virtual clock; export it afterwards with
	// Trace.WriteChromeTrace or Trace.WriteCSV. The run's numbers are
	// its SimResult; a simulation writes no MetricsRegistry.
	Trace *Tracer
	// TraceCSVPath, when set, replays a recorded frame-cost trace (the
	// format of `odrsim frames`) instead of the stochastic benchmark
	// model. Benchmark still selects input rate and power/DRAM character.
	TraceCSVPath string
}

// SimResult is the subset of pipeline metrics exposed publicly.
type SimResult struct {
	Label          string
	RenderFPS      float64
	EncodeFPS      float64
	ClientFPS      float64
	FPSGapMean     float64
	FPSGapMax      float64
	MtPMeanMs      float64
	MtPP99Ms       float64
	DRAMMissRate   float64
	DRAMReadNs     float64
	IPC            float64
	PowerWatts     float64
	BandwidthMbps  float64
	FramesRendered int64
	FramesDropped  int64
	PriorityFrames int64
}

// Simulate runs the cloud-3D pipeline simulator once.
func Simulate(cfg SimConfig) (*SimResult, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	pc, err := simrun.Config(simrun.Spec{
		Benchmark:  cfg.Benchmark,
		Platform:   cfg.Platform,
		Resolution: cfg.Resolution,
		Policy:     string(cfg.Policy),
		FPS:        cfg.TargetFPS,
		Duration:   cfg.Duration,
		Seed:       seed,
		Replay:     cfg.TraceCSVPath,
	})
	if err != nil {
		return nil, fmt.Errorf("odr: %w", err)
	}
	pc.Trace = cfg.Trace
	r := pipeline.Run(pc)
	return &SimResult{
		Label:          r.Label,
		RenderFPS:      r.RenderFPS,
		EncodeFPS:      r.EncodeFPS,
		ClientFPS:      r.ClientFPS,
		FPSGapMean:     r.GapMean,
		FPSGapMax:      r.GapMax,
		MtPMeanMs:      r.MtP.Mean(),
		MtPP99Ms:       r.MtP.Percentile(99),
		DRAMMissRate:   r.MissRate,
		DRAMReadNs:     r.ReadTimeNs,
		IPC:            r.IPC,
		PowerWatts:     r.PowerWatts,
		BandwidthMbps:  r.BandwidthMbps,
		FramesRendered: r.FramesRendered,
		FramesDropped:  r.FramesDropped,
		PriorityFrames: r.PriorityFrames,
	}, nil
}

// Streaming stack re-exports.
type (
	// StreamClient decodes a stream and measures client-side QoS.
	StreamClient = stream.Client
	// StreamPolicy is the render rule a hub regulates by (HubConfig.Policy):
	// core's RenderRule, whose String names the hub's policy in its metrics.
	// A hub runs StreamODR, StreamInterval and StreamNoReg; NewHub panics on
	// any other rule.
	StreamPolicy = core.RenderRule
	// ClientReport summarizes client-side measurements.
	ClientReport = stream.Report
	// CodecOptions configures the frame codec (quantization, keyframe
	// interval and striping, tile height, encode workers, tile cache).
	CodecOptions = codec.Options
	// TileCache is the content-addressed encoded-tile cache encoders can
	// share (CodecOptions.Cache): a tile's payload is a pure function of its
	// content bytes, so sharing one cache across encoders, lanes and worker
	// counts never changes any bitstream byte.
	TileCache = codec.TileCache
)

// NewTileCache returns a bounded shared tile cache (maxBytes <= 0 selects
// the default budget).
func NewTileCache(maxBytes int64) *TileCache { return codec.NewTileCache(maxBytes) }

// The streaming regulation policies; StreamODR is the zero value.
const (
	StreamODR      = core.RuleODR
	StreamInterval = core.RuleInterval
	StreamNoReg    = core.RuleNoReg
)

// NewStreamClient wraps conn as a measuring stream client.
func NewStreamClient(conn net.Conn) *StreamClient { return stream.NewClient(conn) }

// Resilience: reconnecting clients, graceful drain, and deterministic fault
// injection for testing the stack under network failure.
type (
	// ReconnectPolicy bounds how a reconnecting client chases a flaky
	// server: exponential backoff with jitter, a consecutive-failure budget,
	// and an idle timeout that catches half-open connections.
	ReconnectPolicy = stream.ReconnectPolicy
	// ChaosSchedule scripts byte-offset-anchored faults (latency, loss,
	// corruption, stalls, disconnects) onto a connection; same schedule +
	// seed + traffic always yields the same fault sequence.
	ChaosSchedule = chaos.Schedule
	// ChaosConn is a net.Conn executing a ChaosSchedule; EventLog returns
	// every fault it injected.
	ChaosConn = chaos.Conn
)

// ErrStreamDrainTimeout is returned by Hub.Drain when the graceful flush did
// not finish in time.
var ErrStreamDrainTimeout = stream.ErrDrainTimeout

// NewReconnectingStreamClient returns a stream client that obtains
// connections from dial and, when a session dies mid-stream, redials under
// pol and resumes via the keyframe resync path.
func NewReconnectingStreamClient(dial func() (net.Conn, error), pol ReconnectPolicy) *StreamClient {
	return stream.NewReconnectingClient(dial, pol)
}

// ParseChaosSchedule parses a fault schedule spec like
// "latency@0:2ms,loss@49152x2,disc@147456".
func ParseChaosSchedule(spec string) (ChaosSchedule, error) { return chaos.Parse(spec) }

// NamedChaosSchedule returns a predefined schedule (clean, flaky, lossy,
// degraded, partition).
func NamedChaosSchedule(name string) (ChaosSchedule, error) { return chaos.Named(name) }

// ChaosSchedules lists the predefined schedule names.
func ChaosSchedules() []string { return chaos.NamedSchedules() }

// WrapChaos wraps conn so it executes sched with the given RNG seed.
func WrapChaos(conn net.Conn, sched ChaosSchedule, seed int64) *ChaosConn {
	return chaos.Wrap(conn, sched, seed)
}

// Hub streams one shared game to one or many clients ("render once, encode
// once, view many") under a regulation policy: sessions at the same
// resolution share a lane encoder, each frame is encoded once per lane and
// fanned out, and late joiners are served catch-up keyframes spliced from
// shared encoder state. Pacing and session buffering stay per-session; see
// stream.Hub.
type (
	Hub          = stream.Hub
	HubConfig    = stream.HubConfig
	SessionStats = stream.SessionStats
	// HubAttachOptions configures one viewer (pacing, downscaling).
	HubAttachOptions = stream.AttachOptions
)

// NewHub returns a multi-client streaming hub.
func NewHub(cfg HubConfig) *Hub { return stream.NewHub(cfg) }

// Hub fan-out metric names, exported by a hub's registry as counters labeled
// by lane (downscale divisor).
const (
	// NameHubSharedEncodes counts frames encoded once on a shared lane
	// encoder, however many viewers the artifact fanned out to.
	NameHubSharedEncodes = stream.NameHubSharedEncodes
	// NameHubSplicedKeyframes counts catch-up keyframes spliced from shared
	// encoder state for late joiners and resyncing viewers.
	NameHubSplicedKeyframes = stream.NameHubSplicedKeyframes
	// NameHubSplicedDeltas counts catch-up deltas spliced for viewers a few
	// frames behind the shared stream.
	NameHubSplicedDeltas = stream.NameHubSplicedDeltas
	// NameHubSplicedTiles counts payload-carrying tiles across all spliced
	// frames; with the tile cache wired it closes the conservation identity
	// cache hits + misses == dirty tiles + spliced tiles.
	NameHubSplicedTiles = stream.NameHubSplicedTiles
)

// Hub sender-engine metric names (unlabeled; one engine per hub): the sender
// worker pool's queue depth, the pacing timer wheel's firing lag, and the
// frames whose socket flushes coalesced onto shared worker wakeups.
const (
	NameHubSenderQueueDepth = stream.NameHubSenderQueueDepth
	NameHubTimerwheelLagUs  = stream.NameHubTimerwheelLagUs
	NameHubCoalescedWrites  = stream.NameHubCoalescedWrites
	// NameHubRenderTargetFPS gauges the rate the hub's render clock paces to:
	// the fastest attached viewer's, 0 while parked with nobody attached.
	NameHubRenderTargetFPS = stream.NameHubRenderTargetFPS
)

// Encoded-tile cache metric names (unlabeled counters; one cache serves
// every lane of a hub).
const (
	NameCodecTileCacheHits      = stream.NameCodecTileCacheHits
	NameCodecTileCacheMisses    = stream.NameCodecTileCacheMisses
	NameCodecTileCacheEvictions = stream.NameCodecTileCacheEvictions
)

// Observability re-exports: the frame-lifecycle tracer, the telemetry
// registry, and the live debug endpoint. A nil *Tracer turns every recording
// call into a no-op; the simulator and the hub share the tracer. The
// registry belongs to the hub, which always counts: built without a
// MetricsRegistry it keeps its counts in a registry of its own, which
// Hub.Snapshot reads.
type (
	// Tracer records frame-lifecycle spans and instants into a fixed-size
	// lock-free ring; export with WriteChromeTrace (chrome://tracing /
	// Perfetto) or WriteCSV.
	Tracer = obs.Tracer
	// TraceEvent is one recorded tracer event.
	TraceEvent = obs.Event
	// MetricsRegistry holds named counters, gauges and log-bucketed latency
	// histograms, read out as the Prometheus text exposition.
	MetricsRegistry = obs.Registry
	// DebugServer is the live observability HTTP endpoint started by
	// ServeDebugWithMetrics.
	DebugServer = obs.DebugServer
)

// NewTracer returns a tracer keeping the most recent events (capacity is
// rounded up to a power of two; 0 picks the default).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewMetricsRegistry returns an empty telemetry registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ServeDebugWithMetrics starts an HTTP listener on addr serving /debug/odr
// (the given snapshot as JSON; nil serves an empty object), /debug/vars
// (expvar), /debug/pprof/ and, when reg is non-nil, /metrics: reg's
// instruments (labeled series included, plus Go runtime stats and
// odr_build_info) in text exposition format 0.0.4 — scrapeable by
// Prometheus, cmd/odrtop and the internal/obs/scrape harness. Close the
// returned server to stop it.
func ServeDebugWithMetrics(addr string, reg *MetricsRegistry, snapshot func() any) (*DebugServer, error) {
	return obs.ServeDebugRegistry(addr, reg, snapshot)
}

// Distributed control plane re-exports: a master that places sessions on
// registered workers by load score and drains or migrates them on failure
// and scale-down. Migration reuses the stream layer's own machinery — the
// handoff is "drain, redirect, reconnect, keyreq". See internal/cluster.
type (
	// ClusterMaster owns the worker registry, heartbeat deadlines and
	// placement; serve its Handler and run its deadline reaper.
	ClusterMaster = cluster.Master
	// ClusterMasterConfig configures a ClusterMaster.
	ClusterMasterConfig = cluster.MasterConfig
	// ClusterWorker is the worker-side agent: register, heartbeat with load
	// reports, obey drain orders.
	ClusterWorker = cluster.Worker
	// ClusterWorkerConfig configures a ClusterWorker.
	ClusterWorkerConfig = cluster.WorkerConfig
	// ClusterResolver dials the data plane through a master placement query;
	// plug its Dial into NewReconnectingStreamClient.
	ClusterResolver = cluster.Resolver
	// ClusterLoadReport is a worker's self-reported placement load.
	ClusterLoadReport = cluster.LoadReport
	// ClusterWorkerInfo is the master's view of one registered worker.
	ClusterWorkerInfo = cluster.WorkerInfo
)

// ErrClusterNoWorkers is returned by ClusterMaster.Place when no alive
// worker is registered.
var ErrClusterNoWorkers = cluster.ErrNoWorkers

// NewClusterMaster returns a cluster master; start its heartbeat-deadline
// reaper with go m.Run() and serve m.Handler() on the control address.
func NewClusterMaster(cfg ClusterMasterConfig) *ClusterMaster { return cluster.NewMaster(cfg) }

// NewClusterWorker returns a worker agent; drive it with Run.
func NewClusterWorker(cfg ClusterWorkerConfig) *ClusterWorker { return cluster.NewWorker(cfg) }

// NewClusterResolver returns a placement resolver against the given master
// control URL.
func NewClusterResolver(masterURL string) *ClusterResolver { return cluster.NewResolver(masterURL) }

// RegisterClusterMetrics pre-registers the odr_cluster_* metric surface in
// reg (for lint gates and dashboards that want the families present before
// the first worker registers).
func RegisterClusterMetrics(reg *MetricsRegistry) { cluster.RegisterClusterMetrics(reg) }
