package experiments

import (
	"fmt"

	"odr/internal/pictor"
	"odr/internal/pipeline"
	"odr/internal/regulator"
	"odr/internal/sched"
)

// SweepRow is one point of a sensitivity sweep.
type SweepRow struct {
	X         float64 // swept parameter value
	ClientFPS float64
	GapMean   float64
	MtPMeanMs float64
	MtPP99Ms  float64
	Priority  int64
}

// SweepAPM validates the §5.3 design assumption behind PriorityFrame: "a
// normal user typically only produces fewer than 250 actions per minute …
// this frame dropping will not significantly increase the FPS gaps". The
// sweep raises the input rate from casual play to far beyond professional
// APM and measures ODR60's FPS gap and latency. The paper's regime (≤ 5
// inputs/s ≈ 300 APM) must show a small gap; the sweep shows where the
// assumption would break.
func SweepAPM(o Options) []SweepRow {
	o = o.withDefaults()
	g := pictor.PlatformGroup{Platform: pictor.PrivateCloud, Resolution: pictor.R720p}
	var rows []SweepRow
	fmt.Fprintln(o.Out, "Sweep: user input rate vs ODR60 QoS (InMind, 720p private)")
	rates := []float64{1, 2, 3.6, 5, 8, 12, 20}
	cells := make([]sched.Cell, len(rates))
	for i, aps := range rates {
		wl := pictor.IM.Params()
		wl.InputRate = aps
		cells[i] = sched.Cell{
			PolicyKey: label(ODRGoal, g.Resolution),
			Config: pipeline.Config{
				Label:    label(ODRGoal, g.Resolution),
				Workload: wl,
				Scale:    pictor.Scale(g.Platform, g.Resolution),
				Net:      pictor.Network(g.Platform),
				Policy:   factory(ODRGoal, g.Resolution),
				Duration: o.Duration,
				Seed:     seedFor(o.Seed, pictor.IM, g, PolicyID(fmt.Sprintf("apm%.0f", aps*60))),
			},
		}
	}
	for i, r := range o.Runner.Run(cells) {
		aps := rates[i]
		row := SweepRow{
			X:         aps,
			ClientFPS: r.ClientFPS,
			GapMean:   r.GapMean,
			MtPMeanMs: r.MtP.Mean(),
			MtPP99Ms:  r.MtP.Percentile(99),
			Priority:  r.PriorityFrames,
		}
		rows = append(rows, row)
		fmt.Fprintf(o.Out, "  %5.1f inputs/s (%4.0f APM): client %5.1f FPS  gap %5.1f  MtP %5.1f ms  priority frames %d\n",
			aps, aps*60, row.ClientFPS, row.GapMean, row.MtPMeanMs, row.Priority)
	}
	return rows
}

// SweepBandwidth finds the minimum path bandwidth at which ODR60 still
// meets the 60 FPS / 100 ms envelope on a GCE-like path, and shows the
// congestion cliff NoReg falls off at every point below its offered load.
func SweepBandwidth(o Options) map[string][]SweepRow {
	o = o.withDefaults()
	g := pictor.PlatformGroup{Platform: pictor.GoogleGCE, Resolution: pictor.R720p}
	out := make(map[string][]SweepRow)
	fmt.Fprintln(o.Out, "Sweep: path bandwidth vs QoS (InMind, 720p GCE-like path)")
	bandwidths := []float64{10, 14, 18, 22, 26, 34, 50}
	for _, id := range []PolicyID{NoReg, ODRGoal, "ODRAuto60"} {
		lbl := string(id)
		pol := func(ctx *regulator.Ctx) regulator.Policy { return regulator.NewODRAuto(ctx, 60, 20) }
		if id != "ODRAuto60" {
			lbl, pol = label(id, g.Resolution), factory(id, g.Resolution)
		}
		cells := make([]sched.Cell, len(bandwidths))
		for i, mbps := range bandwidths {
			net := pictor.Network(g.Platform)
			net.Bandwidth = mbps * 1e6 / 8
			cells[i] = sched.Cell{
				PolicyKey: lbl,
				Config: pipeline.Config{
					Label:    lbl,
					Workload: pictor.IM.Params(),
					Scale:    pictor.Scale(g.Platform, g.Resolution),
					Net:      net,
					Policy:   pol,
					Duration: o.Duration,
					Seed:     seedFor(o.Seed, pictor.IM, g, PolicyID(fmt.Sprintf("%s-bw%.0f", id, mbps))),
				},
			}
		}
		var rows []SweepRow
		for i, r := range o.Runner.Run(cells) {
			mbps := bandwidths[i]
			row := SweepRow{
				X:         mbps,
				ClientFPS: r.ClientFPS,
				GapMean:   r.GapMean,
				MtPMeanMs: r.MtP.Mean(),
				MtPP99Ms:  r.MtP.Percentile(99),
			}
			rows = append(rows, row)
			fmt.Fprintf(o.Out, "  %-9s %5.0f Mbps: client %5.1f FPS  MtP %8.1f ms (p99 %8.1f)\n",
				lbl, mbps, row.ClientFPS, row.MtPMeanMs, row.MtPP99Ms)
		}
		out[lbl] = rows
	}
	return out
}

// SweepRVScc reproduces the paper's observation that RVS's cc low-pass
// filter must be tuned per setup (§5.4): client FPS and latency as cc
// varies on a 60 Hz display.
func SweepRVScc(o Options) []SweepRow {
	o = o.withDefaults()
	g := pictor.PlatformGroup{Platform: pictor.PrivateCloud, Resolution: pictor.R720p}
	var rows []SweepRow
	fmt.Fprintln(o.Out, "Sweep: RVS cc filter vs QoS (InMind, 720p private, 60Hz client)")
	ccs := []float64{0.05, 0.15, 0.25, 0.5, 0.75, 1.0}
	cells := make([]sched.Cell, len(ccs))
	for i, cc := range ccs {
		ccv := cc
		cells[i] = sched.Cell{
			PolicyKey: fmt.Sprintf("RVS60-cc%g", ccv),
			Config: pipeline.Config{
				Label:    "RVS60",
				Workload: pictor.IM.Params(),
				Scale:    pictor.Scale(g.Platform, g.Resolution),
				Net:      pictor.Network(g.Platform),
				Policy: func(ctx *regulator.Ctx) regulator.Policy {
					return regulator.NewRVS(ctx, 60, ccv)
				},
				Duration: o.Duration,
				Seed:     seedFor(o.Seed, pictor.IM, g, PolicyID(fmt.Sprintf("cc%.2f", cc))),
			},
		}
	}
	for i, r := range o.Runner.Run(cells) {
		cc := ccs[i]
		row := SweepRow{
			X:         cc,
			ClientFPS: r.ClientFPS,
			GapMean:   r.GapMean,
			MtPMeanMs: r.MtP.Mean(),
			MtPP99Ms:  r.MtP.Percentile(99),
		}
		rows = append(rows, row)
		fmt.Fprintf(o.Out, "  cc=%.2f: client %5.1f FPS  gap %5.1f  MtP %5.1f ms\n",
			cc, row.ClientFPS, row.GapMean, row.MtPMeanMs)
	}
	return rows
}
