package stream

import (
	"net"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/obs"
)

func TestRegisterLiveMetricsIsLintClean(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterLiveMetrics(reg)
	if errs := obs.Lint(reg); len(errs) != 0 {
		t.Fatalf("full metric surface fails lint: %v", errs)
	}
	RegisterLiveMetrics(nil) // nil-safe
}

// TestRegisterLiveMetricsCoversLiveHub holds pre-registration to what a hub
// really writes: every family of a hub that served two lanes, a paced
// viewer, an input and an eviction must already be registered by
// RegisterLiveMetrics alone, which is all odrserver's startup lint sees.
func TestRegisterLiveMetricsCoversLiveHub(t *testing.T) {
	pre := obs.NewRegistry()
	RegisterLiveMetrics(pre)
	registered := make(map[string]bool)
	for _, name := range pre.Families() {
		registered[name] = true
	}

	reg := obs.NewRegistry()
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 60, Metrics: reg,
		WriteTimeout: 50 * time.Millisecond})
	cli, _, clean := attachClient(t, h, 0)
	defer attachDiscarding(h, AttachOptions{ClientFPS: 10, Downscale: 2})()
	stuck, peer := net.Pipe()
	defer peer.Close()
	h.Attach(stuck, 0, nil)
	waitFrames(t, cli, 10, 10*time.Second)
	if _, err := cli.SendInput(); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 10*time.Second, "an input and an eviction", func() bool {
		return h.ins.Inputs.Value() > 0 && h.Evicted() > 0
	})
	clean()
	stop()
	for _, name := range reg.Families() {
		if !registered[name] {
			t.Errorf("a serving hub writes %s, which RegisterLiveMetrics does not register", name)
		}
	}
}

// TestRecordSessionStart pins session-start accounting: every attach counts
// in odr_sessions_started_total under its hub's policy, and Snapshot's
// sessions_served reads that series back.
func TestRecordSessionStart(t *testing.T) {
	reg := obs.NewRegistry()
	odrHub, stopODR := startHub(t, HubConfig{Width: 16, Height: 16, TargetFPS: 10, Metrics: reg})
	defer stopODR()
	intHub, stopInt := startHub(t, HubConfig{Width: 16, Height: 16, TargetFPS: 10, Policy: core.RuleInterval, Metrics: reg})
	defer stopInt()
	for _, h := range []*Hub{odrHub, odrHub, intHub} {
		defer attachDiscarding(h, AttachOptions{})()
	}
	v := reg.CounterVec(NameSessionsStarted, "", "policy")
	if got := v.With1("ODR").Value(); got != 2 {
		t.Errorf("ODR starts = %d, want 2", got)
	}
	if got := v.With1("Interval").Value(); got != 1 {
		t.Errorf("Interval starts = %d, want 1", got)
	}
	if got := odrHub.Snapshot()["sessions_served"].(int64); got != 2 {
		t.Errorf("ODR hub sessions_served = %d, want 2", got)
	}
	if got := intHub.Snapshot()["sessions_served"].(int64); got != 1 {
		t.Errorf("Interval hub sessions_served = %d, want 1", got)
	}
}

func TestSessionProbeLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	p := newSessionProbe(newInstruments(reg), "s1")
	now := time.Duration(0)

	// Simulate ~1 s of a 50 FPS session answering an input every frame.
	for i := 0; i < 50; i++ {
		now += 20 * time.Millisecond
		p.onRender(5 * time.Millisecond)
		p.onEncode(2 * time.Millisecond)
		p.onTiles(3, 2)
		p.onInput(now - 15*time.Millisecond)
		mtp := p.mtpEstimate(now)
		if mtp <= 0 {
			t.Fatalf("frame %d: mtpEstimate = %d", i, mtp)
		}
		p.onSend(now, 10_000, time.Millisecond, mtp)
	}
	p.close(now, false)

	fps := reg.GaugeVec(NameSessionFPS, "", "session").With1("s1").Value()
	if fps < 45 || fps > 55 {
		t.Errorf("fps gauge = %v, want ~50", fps)
	}
	mtp := reg.GaugeVec(NameSessionMtPMs, "", "session").With1("s1").Value()
	if mtp < 14 || mtp > 16 {
		t.Errorf("mtp gauge = %v ms, want ~15", mtp)
	}
	smooth := reg.GaugeVec(NameSessionSmoothness, "", "session").With1("s1").Value()
	if smooth < 0.9 || smooth > 1 {
		t.Errorf("smoothness = %v for even pacing", smooth)
	}
	ev := reg.GaugeVec(NameSessionEnergy, "", "session", "component")
	render := ev.With2("s1", "render").Value()
	encode := ev.With2("s1", "encode").Value()
	network := ev.With2("s1", "network").Value()
	if render <= 0 || encode <= 0 || network <= 0 {
		t.Errorf("energy split = %v/%v/%v, want all positive", render, encode, network)
	}
	// 50 frames x 5 ms GPU-busy at defaultGPUIntensity^3 * GPUMaxWatts.
	split := p.EnergyTotals()
	if split.RenderJ != render || split.EncodeJ != encode || split.NetworkJ != network {
		t.Errorf("EnergyTotals %+v disagrees with gauges %v/%v/%v", split, render, encode, network)
	}
	ov := reg.CounterVec(NameTilesOutcome, "", "tile_outcome")
	if d, c := ov.With1("dirty").Value(), ov.With1("clean").Value(); d != 100 || c != 50 {
		t.Errorf("tile outcomes = %d dirty / %d clean, want 100/50", d, c)
	}
}

// TestSessionProbeMtPEstimate pins the estimate semantics: no input seen
// means no sample, and a frame finishing before the input cannot sample.
func TestSessionProbeMtPEstimate(t *testing.T) {
	reg := obs.NewRegistry()
	p := newSessionProbe(newInstruments(reg), "s1")
	if got := p.mtpEstimate(time.Second); got != 0 {
		t.Errorf("estimate before any input = %d", got)
	}
	p.onInput(2 * time.Second)
	if got := p.mtpEstimate(time.Second); got != 0 {
		t.Errorf("tx-end before input arrival = %d", got)
	}
	if got := p.mtpEstimate(2*time.Second + 30*time.Millisecond); got != 30_000 {
		t.Errorf("estimate = %d us, want 30000", got)
	}
}

func TestSessionProbeCloseDeletesSeries(t *testing.T) {
	reg := obs.NewRegistry()
	p := newSessionProbe(newInstruments(reg), "h7")
	p.onSend(sessionFlushInterval+time.Millisecond, 1000, time.Millisecond, 0)

	fpsVec := reg.GaugeVec(NameSessionFPS, "", "session")
	if fpsVec.Len() != 1 {
		t.Fatalf("series before close = %d", fpsVec.Len())
	}
	p.close(time.Second, true)
	if fpsVec.Len() != 0 {
		t.Errorf("fps series survived close: %d", fpsVec.Len())
	}
	if got := reg.GaugeVec(NameSessionEnergy, "", "session", "component").Len(); got != 0 {
		t.Errorf("energy series survived close: %d", got)
	}
	if got := reg.DroppedLabelSets().Value(); got != 0 {
		t.Errorf("orderly close counted as cardinality drop: %d", got)
	}
}

// TestSessionProbeRecordingAllocFree pins the hot-path contract: recording
// a frame through the probe (the per-frame half, not the flush) must not
// allocate.
func TestSessionProbeRecordingAllocFree(t *testing.T) {
	reg := obs.NewRegistry()
	p := newSessionProbe(newInstruments(reg), "s1")
	at := time.Duration(0)
	if n := testing.AllocsPerRun(1000, func() {
		at += time.Millisecond // stay inside one flush interval per run
		p.onRender(time.Millisecond)
		p.onEncode(time.Millisecond)
		p.onTiles(3, 1)
		p.onInput(at)
		p.onSend(at, 1000, time.Microsecond, p.mtpEstimate(at))
	}); n > 0.1 {
		t.Errorf("probe recording allocates %.2f/op, want 0", n)
	}
}

// TestPoolBusyBillsWork pins the billing rule for a stage that ran a tile
// Map: the Map's span is replaced by the tiles' summed durations, so two
// workers that each coded 6 ms of tiles in a 6 ms span bill 12 ms, plus the
// serial remainder; a domain clock that stood still bills the tiles alone.
func TestPoolBusyBillsWork(t *testing.T) {
	ms := int64(time.Millisecond)
	tiles := []int64{5 * ms, 1 * ms, 4 * ms, 2 * ms}
	if got, want := poolBusy(10*time.Millisecond, 6*ms, tiles), 16*time.Millisecond; got != want {
		t.Errorf("poolBusy = %v, want %v (4 ms serial + 12 ms of tiles)", got, want)
	}
	if got, want := poolBusy(0, 6*ms, tiles), 12*time.Millisecond; got != want {
		t.Errorf("poolBusy on a still clock = %v, want %v", got, want)
	}
	if got, want := poolBusy(3*time.Millisecond, 0, nil), 3*time.Millisecond; got != want {
		t.Errorf("poolBusy without a Map = %v, want %v", got, want)
	}
}
