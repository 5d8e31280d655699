// Package memmodel is the analytic stand-in for the paper's hardware PMU
// measurements (§4.3, §6.5): it maps the pipeline's concurrent
// memory-intensive activity (frame rendering, copying, encoding — each
// moving megabytes per frame) to a DRAM row-buffer miss rate, a DRAM read
// access time, and an achieved IPC.
//
// Mechanism reproduced: the processing steps run pipelined in their own
// threads, so higher frame rates raise the probability that several steps
// access DRAM simultaneously; simultaneous access causes row-buffer
// conflicts, which lengthen reads and depress IPC (§6.5). Lower IPC in turn
// slows the CPU-side steps (copy, encode) — the feedback that lets ODR's
// regulation *increase* client FPS by 5.5 % over NoReg (§6.3).
//
// Calibration anchors (paper values, InMind / 720p private cloud averages):
// NoReg miss rate ≈ 75 %, read ≈ 68 ns, regulated miss ≈ 66 %, read ≈ 47 ns;
// fleet-average IPC 0.66 (NoReg) → 0.71 (ODRMax) → 0.80 (ODR60).
package memmodel

import (
	"math"
	"time"
)

// The calibrated constants (Skylake-X-era DDR4, matching the i7-7820x
// testbed). They are typed so that every expression over them rounds as
// float64 arithmetic does.
const (
	// defaultIPCPeak is the uncontended instructions-per-cycle New uses
	// when given 0.
	defaultIPCPeak = 0.80
	// hitTimeNs is the DRAM read time when the row buffer hits.
	hitTimeNs float64 = 22
	// missPenaltyNs is the added read time on a row-buffer miss (precharge
	// + activate), before queueing.
	missPenaltyNs float64 = 42
	// baseMissRate is the row-buffer miss rate with a single active stream.
	baseMissRate float64 = 0.45
	// maxMissRate bounds the miss rate under full contention.
	maxMissRate float64 = 0.93
	// saturationGBs is the activity level (GB/s of frame traffic) at which
	// contention saturates.
	saturationGBs float64 = 2.2
	// memSensitivity scales how strongly read latency depresses IPC.
	memSensitivity float64 = 0.55
	// slowdownRefNs is the read latency at which the CPU slowdown factor
	// is 1.0 (the workload medians are calibrated at regulated-pipeline
	// contention, so the reference sits at that operating point).
	slowdownRefNs float64 = 53
	// slowdownGain scales how strongly reads beyond the reference slow the
	// CPU-side pipeline steps.
	slowdownGain float64 = 0.40
)

// Activity summarizes one observation window of pipeline behaviour.
type Activity struct {
	// Rates of the memory-intensive steps, frames/second.
	RenderFPS float64
	CopyFPS   float64
	EncodeFPS float64
	// RawFrameBytes is the uncompressed frame size (pixels × 4).
	RawFrameBytes int
}

// TrafficGBs returns the modeled DRAM traffic of the window in GB/s.
// Rendering writes the framebuffer (and reads textures), copying reads and
// writes it, encoding reads it (and writes the much smaller bitstream).
func (a Activity) TrafficGBs() float64 {
	per := float64(a.RawFrameBytes) / 1e9
	return per * (1.6*a.RenderFPS + 2.0*a.CopyFPS + 1.3*a.EncodeFPS)
}

// Snapshot is the model's output for one window.
type Snapshot struct {
	MissRate   float64       // row-buffer miss rate, 0..1
	ReadTime   time.Duration // average DRAM read access time
	IPC        float64       // achieved instructions per cycle
	CPUFactor  float64       // CPU-step slowdown multiplier (>= 1)
	GPUFactor  float64       // GPU-step slowdown multiplier (>= 1)
	TrafficGBs float64       // modeled DRAM traffic
}

// Model maps windowed activity to DRAM behaviour. It keeps an exponentially
// weighted view so single windows do not cause discontinuities, mirroring
// how real row-buffer locality reacts over tens of milliseconds.
type Model struct {
	ipcPeak float64 // the benchmark's uncontended instructions-per-cycle
	ewma    float64 // smoothed traffic GB/s
	inited  bool
	last    Snapshot
}

// New returns a model for a benchmark whose uncontended IPC is ipcPeak
// (0 means 0.80).
func New(ipcPeak float64) *Model {
	if ipcPeak == 0 {
		ipcPeak = defaultIPCPeak
	}
	m := &Model{ipcPeak: ipcPeak}
	m.last = m.compute(0)
	return m
}

// Update ingests one window's activity and returns the new snapshot.
func (m *Model) Update(a Activity) Snapshot {
	t := a.TrafficGBs()
	if !m.inited {
		m.ewma = t
		m.inited = true
	} else {
		m.ewma = 0.7*m.ewma + 0.3*t
	}
	m.last = m.compute(m.ewma)
	return m.last
}

// Current returns the latest snapshot.
func (m *Model) Current() Snapshot { return m.last }

func (m *Model) compute(trafficGBs float64) Snapshot {
	// Contention index in [0, 1): probability-like measure of overlapping
	// streams, saturating with traffic.
	idx := 1 - math.Exp(-trafficGBs/saturationGBs)
	miss := baseMissRate + (maxMissRate-baseMissRate)*idx
	// Read time: hit/miss mix plus a queueing term that grows sharply with
	// contention (bank conflicts queue behind one another).
	queueNs := 70 * idx * idx * idx
	readNs := hitTimeNs + miss*missPenaltyNs + queueNs
	// IPC: a simple memory-stall CPI model anchored at ~50 ns reads.
	const ipcRefNs = 50.0
	ipc := m.ipcPeak / (1 + memSensitivity*math.Max(0, readNs-ipcRefNs)/ipcRefNs)
	if ipc > m.ipcPeak {
		ipc = m.ipcPeak
	}
	// CPU-side pipeline slowdown, referenced to the regulated operating
	// point (service-time medians are calibrated there).
	cpuFactor := 1 + slowdownGain*math.Max(0, readNs-slowdownRefNs)/slowdownRefNs
	// GPU work has its own memory but shares the PCIe/host path for copies;
	// it feels a fraction of the contention.
	gpuFactor := 1 + 0.15*(cpuFactor-1)
	return Snapshot{
		MissRate:   miss,
		ReadTime:   time.Duration(readNs * float64(time.Nanosecond)),
		IPC:        ipc,
		CPUFactor:  cpuFactor,
		GPUFactor:  gpuFactor,
		TrafficGBs: trafficGBs,
	}
}
