package experiments

import (
	"fmt"
	"time"

	"odr/internal/pictor"
	"odr/internal/pipeline"
	"odr/internal/regulator"
	"odr/internal/sched"
)

// AblationRow is one variant of an ablation study.
type AblationRow struct {
	Variant    string
	ClientFPS  float64
	RegularFPS float64 // ClientFPS net of ODR's extra frames for inputs
	TailFPS    float64 // 1 %ile of 200 ms windows
	GapMean    float64
	MtPMeanMs  float64
	MtPP99Ms   float64
	Drops      int64
}

func ablRow(r *pipeline.Result, variant string) AblationRow {
	return AblationRow{
		Variant:    variant,
		ClientFPS:  r.ClientFPS,
		RegularFPS: r.ClientFPS - r.ExtraFPS,
		TailFPS:    r.ClientRates.Percentile(1),
		GapMean:    r.GapMean,
		MtPMeanMs:  r.MtP.Mean(),
		MtPP99Ms:   r.MtP.Percentile(99),
		Drops:      r.FramesDropped,
	}
}

// runAblation executes one ablation's variant cells through the scheduler
// and reduces them to rows in submission order.
func runAblation(o Options, cells []sched.Cell) []AblationRow {
	results := o.Runner.Run(cells)
	rows := make([]AblationRow, len(results))
	for i, r := range results {
		rows[i] = ablRow(r, cells[i].Config.Label)
	}
	return rows
}

func odrVariantCell(o Options, b pictor.Benchmark, g pictor.PlatformGroup, opts regulator.ODROptions, variant string, extra func(*pipeline.Config)) sched.Cell {
	cfg := pipeline.Config{
		Label:    variant,
		Workload: b.Params(),
		Scale:    pictor.Scale(g.Platform, g.Resolution),
		Net:      pictor.Network(g.Platform),
		Policy: func(ctx *regulator.Ctx) regulator.Policy {
			return regulator.NewODR(ctx, opts)
		},
		Duration: o.Duration,
		Seed:     seedFor(o.Seed, b, g, PolicyID(variant)),
	}
	if extra != nil {
		extra(&cfg)
	}
	return sched.Cell{PolicyKey: variant, Config: cfg}
}

// AblationMulBuf2 isolates design choice 1 (DESIGN.md §5): Mul-Buf2's
// backpressure versus an unbounded tail-drop send queue, on the GCE path
// where the queue is the latency bomb.
func AblationMulBuf2(o Options) []AblationRow {
	o = o.withDefaults()
	g := pictor.PlatformGroup{Platform: pictor.GoogleGCE, Resolution: pictor.R720p}
	rows := runAblation(o, []sched.Cell{
		odrVariantCell(o, pictor.IM, g, regulator.ODROptions{}, "ODRMax", nil),
		odrVariantCell(o, pictor.IM, g, regulator.ODROptions{DisableMulBuf2: true}, "ODRMax-noBuf2", nil),
	})
	printAblation(o, "Ablation: Mul-Buf2 backpressure (InMind, 720p GCE)", rows)
	return rows
}

// AblationAcceleration isolates design choice 2: Algorithm 1's acceleration
// (negative acc_delay carry-over) versus delay-only pacing, under the 60 FPS
// goal where the difference decides whether the target is met. Both variants
// see the same seed, hence the same frame costs and inputs, so the regular
// cadence (RegularFPS) differs only by the pacer.
func AblationAcceleration(o Options) []AblationRow {
	o = o.withDefaults()
	g := pictor.PlatformGroup{Platform: pictor.PrivateCloud, Resolution: pictor.R720p}
	paired := func(c *pipeline.Config) { c.Seed = seedFor(o.Seed, pictor.IM, g, "ODR60") }
	rows := runAblation(o, []sched.Cell{
		odrVariantCell(o, pictor.IM, g, regulator.ODROptions{TargetFPS: 60}, "ODR60", paired),
		odrVariantCell(o, pictor.IM, g, regulator.ODROptions{TargetFPS: 60, DelayOnly: true}, "ODR60-delayOnly", paired),
	})
	printAblation(o, "Ablation: pacer acceleration vs delay-only (InMind, 720p private)", rows)
	return rows
}

// AblationPriority isolates design choice 3: PriorityFrame's effect on MtP
// latency (and its negligible cost in FPS gap — Table 2's ODRMax-noPri row).
func AblationPriority(o Options) []AblationRow {
	o = o.withDefaults()
	g := pictor.PlatformGroup{Platform: pictor.PrivateCloud, Resolution: pictor.R720p}
	rows := runAblation(o, []sched.Cell{
		odrVariantCell(o, pictor.IM, g, regulator.ODROptions{}, "ODRMax", nil),
		odrVariantCell(o, pictor.IM, g, regulator.ODROptions{DisablePriority: true}, "ODRMax-noPri", nil),
	})
	printAblation(o, "Ablation: PriorityFrame (InMind, 720p private)", rows)
	return rows
}

// AblationRVSFeedback isolates design choice 4: how much of RVS's FPS loss
// is the network feedback path versus the filter itself, by running RVS
// against a hypothetical zero-RTT path for its feedback while the frames
// still traverse the real path. Implemented by comparing RVS on the GCE
// path (25 ms RTT) against RVS on an otherwise-identical path with
// negligible RTT.
func AblationRVSFeedback(o Options) []AblationRow {
	o = o.withDefaults()
	cell := func(rtt time.Duration, cc float64, variant string) sched.Cell {
		net := pictor.Network(pictor.GoogleGCE)
		net.RTT = rtt
		return sched.Cell{
			PolicyKey: variant,
			Config: pipeline.Config{
				Label:    variant,
				Workload: pictor.IM.Params(),
				Scale:    pictor.Scale(pictor.GoogleGCE, pictor.R720p),
				Net:      net,
				Policy: func(ctx *regulator.Ctx) regulator.Policy {
					return regulator.NewRVS(ctx, 60, cc)
				},
				Duration: o.Duration,
				Seed:     o.Seed + 13,
			},
		}
	}
	rows := runAblation(o, []sched.Cell{
		cell(25*time.Millisecond, 0, "RVS60-rtt25ms"),
		cell(time.Millisecond, 0, "RVS60-rtt1ms"),
		cell(25*time.Millisecond, 0.05, "RVS60-cc0.05"),
		cell(25*time.Millisecond, 1.0, "RVS60-cc1.0"),
	})
	printAblation(o, "Ablation: RVS feedback path length and filter strength (InMind, GCE-like path)", rows)
	return rows
}

// AblationContention isolates the DRAM-contention feedback behind ODRMax's
// client-FPS gain (§6.3): with the contention model frozen, ODRMax can only
// match NoReg, never beat it.
func AblationContention(o Options) []AblationRow {
	o = o.withDefaults()
	g := pictor.PlatformGroup{Platform: pictor.PrivateCloud, Resolution: pictor.R720p}
	freeze := func(c *pipeline.Config) { c.DisableContention = true }
	cells := []sched.Cell{
		odrVariantCell(o, pictor.IM, g, regulator.ODROptions{}, "ODRMax", nil),
		odrVariantCell(o, pictor.IM, g, regulator.ODROptions{}, "ODRMax-noContention", freeze),
	}
	// NoReg reference points with and without contention.
	for _, frozen := range []bool{false, true} {
		c := cellFor(o, pictor.IM, g, NoReg)
		if frozen {
			c.Config.DisableContention = true
			c.Config.Label = "NoReg-noContention"
		}
		cells = append(cells, c)
	}
	rows := runAblation(o, cells)
	printAblation(o, "Ablation: DRAM-contention feedback (InMind, 720p private)", rows)
	return rows
}

func printAblation(o Options, title string, rows []AblationRow) {
	fmt.Fprintln(o.Out, title)
	for _, r := range rows {
		fmt.Fprintf(o.Out, "  %-20s client %6.1f FPS (regular %6.1f, p1 %5.1f)  gap %6.1f  MtP %8.1f ms (p99 %8.1f)  drops %d\n",
			r.Variant, r.ClientFPS, r.RegularFPS, r.TailFPS, r.GapMean, r.MtPMeanMs, r.MtPP99Ms, r.Drops)
	}
}
