package experiments

import (
	"fmt"

	"odr/internal/pictor"
	"odr/internal/pipeline"
	"odr/internal/qoe"
)

// UserStudyRow is one configuration of Figures 14 and 15.
type UserStudyRow struct {
	Config string
	Result qoe.StudyResult
}

// userStudyPolicies mirrors §6.7: local execution plus NoReg and the three
// regulators under both QoS goals, at 1080p on GCE with a 60 Hz client
// display.
var userStudyPolicies = []PolicyID{NoReg, IntMax, RVSMax, ODRMax, IntGoal, RVSGoal, ODRGoal}

// observationOf converts a pipeline result into the QoE panel's input.
func observationOf(r *pipeline.Result) qoe.Observation {
	inter := &r.InterDisplay
	stutter := qoe.StutterIndexFrom(inter.Mean(), inter.Stddev(), inter.Percentile(50), inter.Percentile(99))
	return qoe.Observation{
		MeanFPS:      r.ClientFPS,
		TailFPS:      r.ClientRates.Percentile(1),
		MeanLatency:  r.MtP.Mean(),
		TailLatency:  r.MtP.Percentile(99),
		StutterIndex: stutter,
		DisplayRate:  r.ClientFPS,
		RefreshHz:    60,
		VSynced:      r.VSynced,
	}
}

// UserStudy reproduces Figures 14 and 15: the §6.7 panel (a 30-participant
// model; see package qoe) rates NonCloud plus the seven cloud
// configurations at 1080p on GCE and reports lag/stutter/tearing verdicts.
// As in the paper, each participant plays one randomly-assigned benchmark
// under every configuration.
func UserStudy(m *Matrix) []UserStudyRow {
	o := m.o
	g := pictor.PlatformGroup{Platform: pictor.GoogleGCE, Resolution: pictor.R1080p}
	panel := qoe.NewPanel(30, o.Seed+77)
	// Deterministic benchmark assignment, one per participant.
	assign := make([]pictor.Benchmark, panel.Size())
	for i := range assign {
		assign[i] = pictor.Benchmarks[(i*7+int(o.Seed))%len(pictor.Benchmarks)]
	}
	fmt.Fprintln(o.Out, "Figures 14/15: user-experience panel (modeled 30-participant study, 1080p GCE)")
	rows := []UserStudyRow{{Config: "NonCloud", Result: panel.Evaluate(qoe.NonCloud())}}
	for _, id := range userStudyPolicies {
		obs := make([]qoe.Observation, panel.Size())
		var label string
		for i, b := range assign {
			r := m.Get(b, g, id)
			obs[i] = observationOf(r)
			label = r.Label
		}
		rows = append(rows, UserStudyRow{Config: label, Result: panel.EvaluateAssigned(obs)})
	}
	for _, row := range rows {
		res := row.Result
		fmt.Fprintf(o.Out, "  %-8s rating %4.1f   lags Y/M/N %2d/%2d/%2d   stutter %2d/%2d/%2d   tearing %2d/%2d/%2d\n",
			row.Config, res.MeanRating,
			res.Lags.Yes, res.Lags.Maybe, res.Lags.No,
			res.Stutters.Yes, res.Stutters.Maybe, res.Stutters.No,
			res.Tearing.Yes, res.Tearing.Maybe, res.Tearing.No)
	}
	return rows
}

// SummaryResult carries the §6.6 overall averages used in the abstract and
// evaluation summary.
type SummaryResult struct {
	// FPS gap overall (all benchmarks, all 28 configurations).
	ODRAvgGap, ODRMaxGap float64
	NoRegAvgGap          float64
	// Client FPS overall averages.
	ODRMaxFPS, NoRegFPS, IntMaxFPS, RVSMaxFPS float64
	// ODRGoalFPSvsTarget is ODR60/30's regular cadence over its target
	// (1.0 = exactly met): displayed frames net of the extra frames inputs
	// start between slots, whose mean rate is ODRGoalExtraFPS.
	ODRGoalFPSvsTarget float64
	ODRGoalExtraFPS    float64
	// MtP latency overall averages (ms).
	ODRMaxLat, NoRegLat, IntMaxLat, RVSMaxLat float64
	// Efficiency (720p private cloud, ODR average over Max+60 vs NoReg).
	IPCGain, MissRateDrop, ReadTimeDrop, PowerDrop float64
}

// Summary reproduces the §6.6 evaluation summary / abstract numbers.
func Summary(m *Matrix) SummaryResult {
	o := m.o
	var s SummaryResult
	odrIDs := []PolicyID{ODRMax, ODRGoal}
	var odrGaps, noregGaps []float64
	var odrTargets, odrExtras []float64
	for _, g := range pictor.Groups {
		for _, b := range pictor.Benchmarks {
			for _, id := range odrIDs {
				r := m.Get(b, g, id)
				odrGaps = append(odrGaps, r.GapMean)
				if r.GapMax > s.ODRMaxGap {
					s.ODRMaxGap = r.GapMax
				}
				if id == ODRGoal {
					odrTargets = append(odrTargets, (r.ClientFPS-r.ExtraFPS)/g.Resolution.TargetFPS())
					odrExtras = append(odrExtras, r.ExtraFPS)
				}
			}
			noregGaps = append(noregGaps, m.Get(b, g, NoReg).GapMean)
		}
	}
	s.ODRAvgGap = mean(odrGaps)
	s.NoRegAvgGap = mean(noregGaps)
	s.ODRGoalFPSvsTarget = mean(odrTargets)
	s.ODRGoalExtraFPS = mean(odrExtras)

	overall := func(id PolicyID, f func(*pipeline.Result) float64) float64 {
		var rows []float64
		for _, g := range pictor.Groups {
			rows = append(rows, m.groupMean(g, id, f))
		}
		return mean(rows)
	}
	fps := func(r *pipeline.Result) float64 { return r.ClientFPS }
	lat := func(r *pipeline.Result) float64 { return r.MtP.Mean() }
	s.ODRMaxFPS = overall(ODRMax, fps)
	s.NoRegFPS = overall(NoReg, fps)
	s.IntMaxFPS = overall(IntMax, fps)
	s.RVSMaxFPS = overall(RVSMax, fps)
	s.ODRMaxLat = overall(ODRMax, lat)
	s.NoRegLat = overall(NoReg, lat)
	s.IntMaxLat = overall(IntMax, lat)
	s.RVSMaxLat = overall(RVSMax, lat)

	// Efficiency on the 720p private cloud, ODR (Max and 60) vs NoReg.
	gp := pictor.PlatformGroup{Platform: pictor.PrivateCloud, Resolution: pictor.R720p}
	gm := func(id PolicyID, f func(*pipeline.Result) float64) float64 { return m.groupMean(gp, id, f) }
	ipc := func(r *pipeline.Result) float64 { return r.IPC }
	miss := func(r *pipeline.Result) float64 { return r.MissRate }
	read := func(r *pipeline.Result) float64 { return r.ReadTimeNs }
	pow := func(r *pipeline.Result) float64 { return r.PowerWatts }
	odrIPC := (gm(ODRMax, ipc) + gm(ODRGoal, ipc)) / 2
	odrMiss := (gm(ODRMax, miss) + gm(ODRGoal, miss)) / 2
	odrRead := (gm(ODRMax, read) + gm(ODRGoal, read)) / 2
	odrPow := (gm(ODRMax, pow) + gm(ODRGoal, pow)) / 2
	s.IPCGain = odrIPC/gm(NoReg, ipc) - 1
	s.MissRateDrop = 1 - odrMiss/gm(NoReg, miss)
	s.ReadTimeDrop = 1 - odrRead/gm(NoReg, read)
	s.PowerDrop = 1 - odrPow/gm(NoReg, pow)

	fmt.Fprintln(o.Out, "Section 6.6 summary (overall averages):")
	fmt.Fprintf(o.Out, "  FPS gap: NoReg %.1f -> ODR %.1f (max %.1f)\n", s.NoRegAvgGap, s.ODRAvgGap, s.ODRMaxGap)
	fmt.Fprintf(o.Out, "  client FPS: ODRMax %.1f vs NoReg %.1f (%+.1f%%), IntMax %.1f, RVSMax %.1f\n",
		s.ODRMaxFPS, s.NoRegFPS, 100*(s.ODRMaxFPS/s.NoRegFPS-1), s.IntMaxFPS, s.RVSMaxFPS)
	fmt.Fprintf(o.Out, "  ODR fixed-goal regular FPS vs target: %.3f of target (+%.1f extra FPS for inputs)\n",
		s.ODRGoalFPSvsTarget, s.ODRGoalExtraFPS)
	fmt.Fprintf(o.Out, "  MtP: ODRMax %.1fms vs NoReg %.1fms (%.1f%% faster), IntMax %.1f, RVSMax %.1f\n",
		s.ODRMaxLat, s.NoRegLat, 100*(1-s.ODRMaxLat/s.NoRegLat), s.IntMaxLat, s.RVSMaxLat)
	fmt.Fprintf(o.Out, "  efficiency vs NoReg (720p priv): IPC %+.1f%%, miss rate -%.1f%%, read time -%.1f%%, power -%.1f%%\n",
		100*s.IPCGain, 100*s.MissRateDrop, 100*s.ReadTimeDrop, 100*s.PowerDrop)
	return s
}
