package experiments

import (
	"strings"
	"testing"
	"time"

	"odr/internal/pictor"
	"odr/internal/pipeline"
	"odr/internal/sched"
)

// testOptions keeps test wall time low; 15 simulated seconds are enough for
// the qualitative assertions (EXPERIMENTS.md uses 60 s runs).
func testOptions() Options {
	return Options{Duration: 15 * time.Second, Seed: 1}
}

func TestFig1ShowsGaps(t *testing.T) {
	r := Fig1(testOptions())
	if len(r.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %v", r.Benchmarks)
	}
	for i, b := range r.Benchmarks {
		if gap := r.CloudFPS[i] - r.ClientFPS[i]; gap < 40 {
			t.Errorf("%s: gap %.1f, want large", b, gap)
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	rows := Fig3(testOptions())
	byName := map[string]Fig3Row{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	noreg, int60, intMax, rvs60, rvsMax := byName["NoReg"], byName["Int60"], byName["IntMax"], byName["RVS60"], byName["RVSMax"]
	// NoReg renders far above its encode rate; decode tracks encode.
	if noreg.RenderFPS < noreg.EncodeFPS+50 {
		t.Errorf("NoReg render %.0f vs encode %.0f: no excessive rendering", noreg.RenderFPS, noreg.EncodeFPS)
	}
	// Int60 misses the 60FPS target from below (§4.1).
	if int60.DecodeFPS >= 60 || int60.DecodeFPS < 48 {
		t.Errorf("Int60 decode FPS = %.1f, want in [48,60)", int60.DecodeFPS)
	}
	// IntMax lands well below NoReg's achievable client FPS.
	if intMax.DecodeFPS > noreg.DecodeFPS*0.7 {
		t.Errorf("IntMax decode FPS = %.1f vs NoReg %.1f: ratchet too weak", intMax.DecodeFPS, noreg.DecodeFPS)
	}
	// RVS60 stays below the 60Hz refresh; RVSMax below NoReg.
	if rvs60.DecodeFPS >= 60 {
		t.Errorf("RVS60 decode FPS = %.1f, want < 60", rvs60.DecodeFPS)
	}
	if rvsMax.DecodeFPS >= noreg.DecodeFPS {
		t.Errorf("RVSMax decode FPS = %.1f >= NoReg %.1f", rvsMax.DecodeFPS, noreg.DecodeFPS)
	}
}

func TestFig4HeavyTailShape(t *testing.T) {
	r := Fig4(testOptions())
	// §4.1: "about 80% - 90% of the frames' processing time is less than
	// 16.6 ms" for the slower steps; renders are faster still.
	if r.EncodeUnder16 < 0.70 || r.EncodeUnder16 > 0.99 {
		t.Errorf("encode under-16.6ms fraction = %.2f", r.EncodeUnder16)
	}
	if r.RenderUnder16 < 0.85 {
		t.Errorf("render under-16.6ms fraction = %.2f", r.RenderUnder16)
	}
	if len(r.TraceRender) < 90 {
		t.Errorf("trace has %d frames, want ~100", len(r.TraceRender))
	}
	if len(r.RenderCDFx) == 0 || len(r.EncodeCDFx) == 0 || len(r.TransCDFx) == 0 {
		t.Error("missing CDFs")
	}
}

func TestFig5TimelinesWellFormed(t *testing.T) {
	rows := Fig5(testOptions())
	if len(rows) != 3 {
		t.Fatalf("schemes = %d", len(rows))
	}
	for scheme, frames := range rows {
		if len(frames) == 0 {
			t.Errorf("%s: empty timeline", scheme)
			continue
		}
		for _, fr := range frames {
			if !(fr.RenderStart <= fr.RenderEnd && fr.RenderEnd <= fr.EncodeStart &&
				fr.EncodeStart <= fr.EncodeEnd && fr.EncodeEnd <= fr.DecodeEnd) {
				t.Errorf("%s: out-of-order timeline %+v", scheme, fr)
			}
		}
	}
}

func TestFig6LatencyOrdering(t *testing.T) {
	rows := Fig6(testOptions())
	byName := map[string]Fig6Row{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	// §4.2: the existing regulations inject delays that raise MtP latency
	// above NoReg.
	if byName["IntMax"].MeanMs <= byName["NoReg"].MeanMs {
		t.Errorf("IntMax MtP %.1f <= NoReg %.1f", byName["IntMax"].MeanMs, byName["NoReg"].MeanMs)
	}
	if byName["Int60"].MeanMs <= byName["NoReg"].MeanMs {
		t.Errorf("Int60 MtP %.1f <= NoReg %.1f", byName["Int60"].MeanMs, byName["NoReg"].MeanMs)
	}
}

func TestFig7MemoryOrdering(t *testing.T) {
	rows := Fig7(testOptions())
	byName := map[string]Fig7Row{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	nr, i60 := byName["NoReg"], byName["Int60"]
	if i60.MissRate >= nr.MissRate {
		t.Errorf("Int60 miss %.2f >= NoReg %.2f", i60.MissRate, nr.MissRate)
	}
	if i60.ReadTimeNs >= nr.ReadTimeNs {
		t.Errorf("Int60 read %.1f >= NoReg %.1f", i60.ReadTimeNs, nr.ReadTimeNs)
	}
	if i60.IPC <= nr.IPC {
		t.Errorf("Int60 IPC %.2f <= NoReg %.2f", i60.IPC, nr.IPC)
	}
}

// TestMatrixExperiments covers Table 2 and Figures 9-15 from one shared
// matrix (they are the expensive ones).
func TestMatrixExperiments(t *testing.T) {
	m := NewMatrix(testOptions())

	t.Run("Table2", func(t *testing.T) {
		groups := Table2(m)
		if len(groups) != 3 {
			t.Fatalf("groups = %d", len(groups))
		}
		for _, g := range groups {
			if g.AvgGap[NoReg] < 30 {
				t.Errorf("%s: NoReg gap %.1f too small", g.Group, g.AvgGap[NoReg])
			}
			for _, id := range []PolicyID{ODRMax, ODRGoal, ODRMaxNoPri} {
				if g.AvgGap[id] > 8 {
					t.Errorf("%s: %s gap %.1f, want < 8", g.Group, id, g.AvgGap[id])
				}
			}
			// Table 2's observation: PriorityFrame costs only a small
			// extra gap.
			if g.AvgGap[ODRMax]-g.AvgGap[ODRMaxNoPri] > 6 {
				t.Errorf("%s: PriorityFrame gap cost %.1f too large", g.Group, g.AvgGap[ODRMax]-g.AvgGap[ODRMaxNoPri])
			}
		}
	})

	t.Run("Fig9", func(t *testing.T) {
		r := Fig9(m)
		last := len(r.Groups) - 1
		if r.Groups[last] != "OverallAvg" {
			t.Fatalf("last group = %s", r.Groups[last])
		}
		// §6.6: ODRMax beats IntMax and RVSMax on overall client FPS...
		if r.ClientFPS[ODRMax][last] <= r.ClientFPS[IntMax][last] ||
			r.ClientFPS[ODRMax][last] <= r.ClientFPS[RVSMax][last] {
			t.Errorf("ODRMax FPS %.1f not above IntMax %.1f / RVSMax %.1f",
				r.ClientFPS[ODRMax][last], r.ClientFPS[IntMax][last], r.ClientFPS[RVSMax][last])
		}
		// ...and on overall MtP latency, by a lot against NoReg (>92%).
		if r.LatencyMs[ODRMax][last] > r.LatencyMs[NoReg][last]*0.15 {
			t.Errorf("ODRMax MtP %.1f not >85%% below NoReg %.1f",
				r.LatencyMs[ODRMax][last], r.LatencyMs[NoReg][last])
		}
		// ODR meets the fixed goals.
		got720 := r.ClientFPS[ODRGoal][0] // Priv720p
		if got720 < 59 || got720 > 68 {
			t.Errorf("ODR60 Priv720p FPS = %.1f", got720)
		}
		// NoReg on GCE shows the seconds-scale congestion latency.
		if r.LatencyMs[NoReg][1] < 800 {
			t.Errorf("NoReg GCE720p MtP = %.1fms, want seconds-scale", r.LatencyMs[NoReg][1])
		}
	})

	t.Run("Fig10", func(t *testing.T) {
		cells := Fig10(m)
		if len(cells) != 3 {
			t.Fatalf("groups = %d", len(cells))
		}
		for g, list := range cells {
			if len(list) != len(pictor.Benchmarks)*len(EvalPolicies) {
				t.Errorf("%s: %d cells", g, len(list))
			}
			for _, c := range list {
				b := c.Box
				if !(b.P1 <= b.P25 && b.P25 <= b.P75 && b.P75 <= b.P99) {
					t.Errorf("%s %s/%s: malformed box %+v", g, c.Benchmark, c.Config, b)
				}
			}
		}
	})

	t.Run("Fig11", func(t *testing.T) {
		cells := Fig11(m)
		for _, list := range cells {
			for _, c := range list {
				if c.Box.Mean < 0 {
					t.Errorf("negative latency: %+v", c)
				}
			}
		}
	})

	t.Run("Fig12", func(t *testing.T) {
		rows := Fig12(m)
		avg := map[string]Fig12Row{}
		for _, r := range rows {
			if r.Benchmark == "AVG" {
				avg[r.Config] = r
			}
		}
		if avg["ODR60"].IPC <= avg["NoReg"].IPC {
			t.Errorf("ODR60 avg IPC %.2f <= NoReg %.2f", avg["ODR60"].IPC, avg["NoReg"].IPC)
		}
		if avg["ODR60"].ReadTimeNs >= avg["NoReg"].ReadTimeNs {
			t.Errorf("ODR60 read %.1f >= NoReg %.1f", avg["ODR60"].ReadTimeNs, avg["NoReg"].ReadTimeNs)
		}
	})

	t.Run("Fig13", func(t *testing.T) {
		rows := Fig13(m)
		byKey := map[string]float64{}
		for _, r := range rows {
			byKey[r.Benchmark+"/"+r.Config] = r.Watts
		}
		if byKey["AVG/ODR60"] >= byKey["AVG/NoReg"] {
			t.Errorf("ODR60 avg power %.1f >= NoReg %.1f", byKey["AVG/ODR60"], byKey["AVG/NoReg"])
		}
		// §6.5: IMHOTEP has the largest unregulated power and the largest
		// ODR60 saving.
		if byKey["ITP/NoReg"] < byKey["AVG/NoReg"] {
			t.Errorf("ITP NoReg %.1fW below fleet average", byKey["ITP/NoReg"])
		}
		if save := 1 - byKey["ITP/ODR60"]/byKey["ITP/NoReg"]; save < 0.25 {
			t.Errorf("ITP ODR60 saving = %.0f%%, want large", save*100)
		}
	})

	t.Run("UserStudy", func(t *testing.T) {
		rows := UserStudy(m)
		ratings := map[string]float64{}
		for _, r := range rows {
			ratings[r.Config] = r.Result.MeanRating
			total := r.Result.Lags.Yes + r.Result.Lags.Maybe + r.Result.Lags.No
			if total != 30 {
				t.Errorf("%s: %d verdicts", r.Config, total)
			}
		}
		if ratings["ODRMax"] <= ratings["NoReg"] {
			t.Errorf("ODRMax rating %.1f <= NoReg %.1f", ratings["ODRMax"], ratings["NoReg"])
		}
		// ODRMax rates at least as well as the baselines (strictly better
		// over the full EXPERIMENTS.md durations; short test runs can tie).
		if ratings["ODRMax"] < ratings["IntMax"]-0.5 || ratings["ODRMax"] < ratings["RVSMax"]-0.5 {
			t.Errorf("ODRMax %.1f below IntMax %.1f / RVSMax %.1f",
				ratings["ODRMax"], ratings["IntMax"], ratings["RVSMax"])
		}
		if ratings["ODR30"] <= ratings["Int30"] || ratings["ODR30"] <= ratings["RVS30"] {
			t.Errorf("ODR30 %.1f not above Int30 %.1f / RVS30 %.1f",
				ratings["ODR30"], ratings["Int30"], ratings["RVS30"])
		}
	})

	t.Run("Summary", func(t *testing.T) {
		s := Summary(m)
		if s.ODRAvgGap > 8 || s.NoRegAvgGap < 60 {
			t.Errorf("gap summary: ODR %.1f, NoReg %.1f", s.ODRAvgGap, s.NoRegAvgGap)
		}
		if s.ODRGoalFPSvsTarget < 0.98 || s.ODRGoalFPSvsTarget > 1.10 {
			t.Errorf("ODR goal attainment = %.3f", s.ODRGoalFPSvsTarget)
		}
		if s.ODRMaxFPS <= s.IntMaxFPS || s.ODRMaxFPS <= s.RVSMaxFPS {
			t.Errorf("ODRMax FPS %.1f not the best", s.ODRMaxFPS)
		}
		if s.IPCGain <= 0 || s.ReadTimeDrop <= 0 || s.PowerDrop <= 0 {
			t.Errorf("efficiency gains not positive: %+v", s)
		}
	})
}

func TestAblationDirections(t *testing.T) {
	o := testOptions()
	t.Run("MulBuf2", func(t *testing.T) {
		rows := AblationMulBuf2(o)
		if rows[1].MtPMeanMs < rows[0].MtPMeanMs*5 {
			t.Errorf("removing Mul-Buf2 did not blow up latency: %.1f vs %.1f",
				rows[1].MtPMeanMs, rows[0].MtPMeanMs)
		}
	})
	t.Run("Acceleration", func(t *testing.T) {
		rows := AblationAcceleration(o)
		if rows[1].RegularFPS >= rows[0].RegularFPS {
			t.Errorf("delay-only regular FPS %.1f >= accelerating %.1f", rows[1].RegularFPS, rows[0].RegularFPS)
		}
	})
	t.Run("Priority", func(t *testing.T) {
		rows := AblationPriority(o)
		if rows[1].MtPMeanMs <= rows[0].MtPMeanMs {
			t.Errorf("noPri MtP %.1f <= priority %.1f", rows[1].MtPMeanMs, rows[0].MtPMeanMs)
		}
	})
	t.Run("Contention", func(t *testing.T) {
		rows := AblationContention(o)
		var odr, odrNC, nr, nrNC AblationRow
		for _, r := range rows {
			switch r.Variant {
			case "ODRMax":
				odr = r
			case "ODRMax-noContention":
				odrNC = r
			case "NoReg":
				nr = r
			case "NoReg-noContention":
				nrNC = r
			}
		}
		// With contention, ODRMax beats NoReg; without it, it cannot.
		if odr.ClientFPS <= nr.ClientFPS {
			t.Errorf("with contention: ODRMax %.1f <= NoReg %.1f", odr.ClientFPS, nr.ClientFPS)
		}
		if odrNC.ClientFPS > nrNC.ClientFPS {
			t.Errorf("without contention: ODRMax %.1f > NoReg %.1f (should not beat it)",
				odrNC.ClientFPS, nrNC.ClientFPS)
		}
	})
}

func TestReportWriting(t *testing.T) {
	var sb strings.Builder
	o := Options{Duration: 5 * time.Second, Seed: 1, Out: &sb}
	Fig1(o)
	if !strings.Contains(sb.String(), "Figure 1") {
		t.Fatalf("report missing header: %q", sb.String())
	}
}

func TestMatrixCaches(t *testing.T) {
	m := NewMatrix(Options{Duration: 5 * time.Second, Seed: 1})
	g := pictor.Groups[0]
	a := m.Get(pictor.IM, g, NoReg)
	b := m.Get(pictor.IM, g, NoReg)
	if a != b {
		t.Fatal("matrix did not cache the cell")
	}
}

func TestSeedForDistinguishesCells(t *testing.T) {
	g := pictor.Groups[0]
	a := seedFor(1, pictor.IM, g, NoReg)
	b := seedFor(1, pictor.RE, g, NoReg)
	c := seedFor(1, pictor.IM, g, ODRMax)
	if a == b || a == c {
		t.Fatal("seeds collide across cells")
	}
	if a != seedFor(1, pictor.IM, g, NoReg) {
		t.Fatal("seedFor not deterministic")
	}
}

func TestLabelResolution(t *testing.T) {
	if label(IntGoal, pictor.R720p) != "Int60" || label(IntGoal, pictor.R1080p) != "Int30" {
		t.Fatal("Int goal labels wrong")
	}
	if label(ODRMaxNoPri, pictor.R720p) != "ODRMax-noPri" {
		t.Fatal("noPri label wrong")
	}
}

func TestPrefetchMatchesSequential(t *testing.T) {
	o := Options{Duration: 5 * time.Second, Seed: 1}
	seq := NewMatrix(o)
	par := NewMatrix(Options{Duration: 5 * time.Second, Seed: 1, Runner: sched.New(sched.Options{Workers: 4})})
	par.Prefetch()
	g := pictor.Groups[1]
	for _, id := range []PolicyID{NoReg, ODRGoal} {
		a := seq.Get(pictor.IM, g, id)
		b := par.Get(pictor.IM, g, id)
		if a.ClientFPS != b.ClientFPS || a.MtP.Mean() != b.MtP.Mean() {
			t.Fatalf("%s: prefetched cell differs: %.3f/%.3f vs %.3f/%.3f",
				id, a.ClientFPS, a.MtP.Mean(), b.ClientFPS, b.MtP.Mean())
		}
	}
}

// TestNoRegCongestionRidesTheByteBound pins the NoReg congestion anchors
// ("Fig9b NoReg GCE720p MtP") to the send buffer's byte bound: on the GCE
// 720p path NoReg fills the tail-drop buffer to within one frame of its 8 MB,
// and halving the bound cuts its MtP by at least 40 %. A change to the send
// buffer that stops honouring the bound fails here instead of moving the
// anchor.
func TestNoRegCongestionRidesTheByteBound(t *testing.T) {
	o := Options{Duration: 30 * time.Second, Seed: 1}.withDefaults()
	c := cellFor(o, pictor.IM, pictor.PlatformGroup{Platform: pictor.GoogleGCE, Resolution: pictor.R720p}, NoReg)
	bound := c.Config.Net.BufferBytes
	full := pipeline.Run(c.Config)
	frameBytes := int(full.BandwidthMbps * 1e6 / 8 / full.ClientFPS)
	if full.MaxQueueBytes > bound || bound-full.MaxQueueBytes > frameBytes {
		t.Errorf("send-queue high-water %d B, want within one frame (%d B) of the %d B bound", full.MaxQueueBytes, frameBytes, bound)
	}
	c.Config.Net.BufferBytes = bound / 2
	half := pipeline.Run(c.Config)
	if ratio := half.MtP.Mean() / full.MtP.Mean(); ratio > 0.6 {
		t.Errorf("MtP %.0f ms at the %d B bound, %.0f ms at half of it (%.2fx): want <= 0.6x", full.MtP.Mean(), bound, half.MtP.Mean(), ratio)
	}
	t.Logf("high-water %d of %d B (frame ~%d B); MtP %.0f ms, %.0f ms at half the bound", full.MaxQueueBytes, bound, frameBytes, full.MtP.Mean(), half.MtP.Mean())
}
