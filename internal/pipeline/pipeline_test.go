package pipeline

import (
	"testing"
	"time"

	"odr/internal/pictor"
	"odr/internal/regulator"
)

// stdConfig builds a run config for a benchmark/platform/resolution.
func stdConfig(b pictor.Benchmark, plat pictor.Platform, res pictor.Resolution, pol PolicyFactory, seed int64) Config {
	return Config{
		Workload: b.Params(),
		Scale:    pictor.Scale(plat, res),
		Net:      pictor.Network(plat),
		Policy:   pol,
		Duration: 30 * time.Second,
		Seed:     seed,
	}
}

func noReg(ctx *regulator.Ctx) regulator.Policy { return regulator.NewNoReg(ctx) }

func odr(fps float64) PolicyFactory {
	return func(ctx *regulator.Ctx) regulator.Policy {
		return regulator.NewODR(ctx, regulator.ODROptions{TargetFPS: fps})
	}
}

func TestNoRegHasLargeFPSGap(t *testing.T) {
	r := Run(stdConfig(pictor.IM, pictor.PrivateCloud, pictor.R720p, noReg, 1))
	if r.RenderFPS < 120 {
		t.Fatalf("NoReg render FPS = %.1f, want >120 (unthrottled)", r.RenderFPS)
	}
	if r.GapMean < 30 {
		t.Fatalf("NoReg mean FPS gap = %.1f, want >30", r.GapMean)
	}
	if r.ClientFPS < 60 {
		t.Fatalf("NoReg client FPS = %.1f, want >60", r.ClientFPS)
	}
	if r.FramesDropped == 0 {
		t.Fatal("NoReg must drop excess frames")
	}
}

func TestODR60MeetsTargetAndClosesGap(t *testing.T) {
	r := Run(stdConfig(pictor.IM, pictor.PrivateCloud, pictor.R720p, odr(60), 1))
	if r.ClientFPS < 59 || r.ClientFPS > 66 {
		t.Fatalf("ODR60 client FPS = %.1f, want ~60", r.ClientFPS)
	}
	if r.GapMean > 6 {
		t.Fatalf("ODR60 mean gap = %.1f, want < 6", r.GapMean)
	}
	if r.RenderFPS > 70 {
		t.Fatalf("ODR60 render FPS = %.1f: excessive rendering not removed", r.RenderFPS)
	}
}

func TestODRMaxBeatsNoRegLatency(t *testing.T) {
	nr := Run(stdConfig(pictor.IM, pictor.PrivateCloud, pictor.R720p, noReg, 1))
	om := Run(stdConfig(pictor.IM, pictor.PrivateCloud, pictor.R720p, odr(0), 1))
	if om.MtP.Mean() >= nr.MtP.Mean() {
		t.Fatalf("ODRMax MtP %.1fms not below NoReg %.1fms", om.MtP.Mean(), nr.MtP.Mean())
	}
	if om.GapMean > 6 {
		t.Fatalf("ODRMax gap = %.1f, want < 6", om.GapMean)
	}
	if om.ClientFPS < nr.ClientFPS*0.97 {
		t.Fatalf("ODRMax client FPS %.1f fell well below NoReg %.1f", om.ClientFPS, nr.ClientFPS)
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := stdConfig(pictor.RE, pictor.PrivateCloud, pictor.R720p, odr(60), 42)
	cfg.Duration = 10 * time.Second
	a := Run(cfg)
	b := Run(cfg)
	if a.ClientFPS != b.ClientFPS || a.MtP.Mean() != b.MtP.Mean() ||
		a.FramesRendered != b.FramesRendered || a.PowerWatts != b.PowerWatts {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfgA := stdConfig(pictor.RE, pictor.PrivateCloud, pictor.R720p, noReg, 1)
	cfgA.Duration = 10 * time.Second
	cfgB := cfgA
	cfgB.Seed = 2
	a, b := Run(cfgA), Run(cfgB)
	if a.FramesRendered == b.FramesRendered && a.MtP.Mean() == b.MtP.Mean() {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestCalibrationProbe prints the key §4/§6 numbers for manual calibration.
// Run with: go test ./internal/pipeline -run Calibration -v
func TestCalibrationProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	show := func(name string, plat pictor.Platform, res pictor.Resolution, pol PolicyFactory) {
		cfg := stdConfig(pictor.IM, plat, res, pol, 7)
		r := Run(cfg)
		t.Logf("%-10s %s/%s: render=%.0f encode=%.0f client=%.0f gap=%.1f/%.1f mtp=%.0f/%.0fms p99=%.0f drops=%d pow=%.0fW ipc=%.2f miss=%.0f%% read=%.0fns bw=%.1fMbps pri=%d",
			name, plat, res, r.RenderFPS, r.EncodeFPS, r.ClientFPS, r.GapMean, r.GapMax,
			r.MtP.Mean(), r.MtP.Percentile(50), r.MtP.Percentile(99),
			r.FramesDropped, r.PowerWatts, r.IPC, r.MissRate*100, r.ReadTimeNs, r.BandwidthMbps, r.PriorityFrames)
	}
	intv := func(fps float64) PolicyFactory {
		return func(ctx *regulator.Ctx) regulator.Policy { return regulator.NewInterval(ctx, fps) }
	}
	rvs := func(hz float64) PolicyFactory {
		return func(ctx *regulator.Ctx) regulator.Policy { return regulator.NewRVS(ctx, hz, 0) }
	}
	for _, plat := range []pictor.Platform{pictor.PrivateCloud, pictor.GoogleGCE} {
		show("NoReg", plat, pictor.R720p, noReg)
		show("Int60", plat, pictor.R720p, intv(60))
		show("IntMax", plat, pictor.R720p, intv(0))
		show("RVS60", plat, pictor.R720p, rvs(60))
		show("RVSMax", plat, pictor.R720p, rvs(240))
		show("ODR60", plat, pictor.R720p, odr(60))
		show("ODRMax", plat, pictor.R720p, odr(0))
	}
}

func TestMaxQueueBytesDiagnostic(t *testing.T) {
	// NoReg on the congested GCE path must show a deep send-queue
	// high-water mark; ODR's Mul-Buf2 keeps it at zero.
	nr := Run(stdConfig(pictor.IM, pictor.GoogleGCE, pictor.R720p, noReg, 2))
	if nr.MaxQueueBytes < pictor.Network(pictor.GoogleGCE).BufferBytes/2 {
		t.Fatalf("NoReg GCE max queue = %d bytes, want deep congestion", nr.MaxQueueBytes)
	}
	od := Run(stdConfig(pictor.IM, pictor.GoogleGCE, pictor.R720p, odr(60), 2))
	if od.MaxQueueBytes != 0 {
		t.Fatalf("ODR max queue = %d, want 0 (Mul-Buf2)", od.MaxQueueBytes)
	}
}

func TestODRVariantLatencyOrdering(t *testing.T) {
	// Priority frames must buy ODRMax a latency advantage over its noPri
	// variant at matched throughput, on the same seed.
	mk := func(opts regulator.ODROptions) *Result {
		cfg := stdConfig(pictor.IM, pictor.PrivateCloud, pictor.R720p, func(ctx *regulator.Ctx) regulator.Policy {
			return regulator.NewODR(ctx, opts)
		}, 11)
		return Run(cfg)
	}
	withPri := mk(regulator.ODROptions{})
	noPri := mk(regulator.ODROptions{DisablePriority: true})
	if withPri.MtP.Mean() >= noPri.MtP.Mean() {
		t.Fatalf("PriorityFrame did not reduce MtP: %.1f vs %.1f", withPri.MtP.Mean(), noPri.MtP.Mean())
	}
	if withPri.ClientFPS < noPri.ClientFPS*0.95 {
		t.Fatalf("PriorityFrame cost too much FPS: %.1f vs %.1f", withPri.ClientFPS, noPri.ClientFPS)
	}
	// PriorityFrames counts input-triggered frames for every variant (the
	// tag is semantic, not policy-dependent); the noPri variant must simply
	// not *drop* obsolete frames for them.
	if noPri.PriorityFrames == 0 {
		t.Fatal("input-triggered frames were not tagged")
	}
	if noPri.FramesDropped != 0 {
		t.Fatalf("noPri ODR dropped %d frames", noPri.FramesDropped)
	}
}
