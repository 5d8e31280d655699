package experiments

import (
	"fmt"
	"io"
	"time"

	"odr/internal/pictor"
)

// Markdown writes a markdown results report to w from the cells of m and
// fresh ablation runs: the §6.6 summary, Table 2, the Figure 9 QoS matrix,
// the efficiency averages, the user-study panel and the ablations — the
// same content as EXPERIMENTS.md, measured on this machine. Prefetch m
// first to fill it through the parallel scheduler; cells it already holds
// are not run again. The sections' text output (m's Out) is discarded
// while the report is written; the report is all that is written.
func Markdown(m *Matrix, w io.Writer) {
	start := time.Now()
	out := m.o.Out
	m.o.Out = io.Discard
	defer func() { m.o.Out = out }()
	o := m.o

	fmt.Fprintf(w, "# ODR reproduction report\n\n")
	fmt.Fprintf(w, "Generated %s; %v simulated per configuration; seed %d.\n\n",
		time.Now().Format(time.RFC1123), o.Duration, o.Seed)

	s := Summary(m)
	fmt.Fprintf(w, "## Headline numbers (§6.6)\n\n")
	fmt.Fprintf(w, "| Metric | Value |\n|---|---|\n")
	fmt.Fprintf(w, "| Average FPS gap, NoReg | %.1f frames |\n", s.NoRegAvgGap)
	fmt.Fprintf(w, "| Average FPS gap, ODR | %.1f frames (max windowed %.1f) |\n", s.ODRAvgGap, s.ODRMaxGap)
	fmt.Fprintf(w, "| Client FPS: ODRMax vs NoReg | %.1f vs %.1f (%+.1f%%) |\n", s.ODRMaxFPS, s.NoRegFPS, 100*(s.ODRMaxFPS/s.NoRegFPS-1))
	fmt.Fprintf(w, "| ODR 30/60 goal attainment (regular cadence) | %.3f of target, + %.1f extra FPS for inputs |\n", s.ODRGoalFPSvsTarget, s.ODRGoalExtraFPS)
	fmt.Fprintf(w, "| MtP: ODRMax vs NoReg | %.1f ms vs %.1f ms (%.1f%% faster) |\n", s.ODRMaxLat, s.NoRegLat, 100*(1-s.ODRMaxLat/s.NoRegLat))
	fmt.Fprintf(w, "| Efficiency vs NoReg (720p priv) | IPC %+.1f%%, miss −%.1f%%, read −%.1f%%, power −%.1f%% |\n\n",
		100*s.IPCGain, 100*s.MissRateDrop, 100*s.ReadTimeDrop, 100*s.PowerDrop)

	fmt.Fprintf(w, "## Table 2 — FPS gaps (avg / max, worst benchmark)\n\n")
	fmt.Fprintf(w, "| Config | 720p Priv | 720p GCE | 1080p GCE |\n|---|---|---|---|\n")
	groups := Table2(m)
	for _, id := range Table2Policies {
		fmt.Fprintf(w, "| %s |", id)
		for _, g := range groups {
			fmt.Fprintf(w, " %.1f / %.1f (%s) |", g.AvgGap[id], g.MaxGap[id], g.MaxGapB[id])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "## Figure 9 — client FPS and MtP latency\n\n")
	f9 := Fig9(m)
	fmt.Fprintf(w, "| Config |")
	for _, g := range f9.Groups {
		fmt.Fprintf(w, " %s |", g)
	}
	fmt.Fprintf(w, "\n|---|")
	for range f9.Groups {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintln(w)
	for _, id := range EvalPolicies {
		fmt.Fprintf(w, "| %s FPS |", id)
		for i := range f9.Groups {
			fmt.Fprintf(w, " %.1f |", f9.ClientFPS[id][i])
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "| %s MtP ms |", id)
		for i := range f9.Groups {
			fmt.Fprintf(w, " %.1f |", f9.LatencyMs[id][i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "## Figures 12/13 — fleet efficiency averages (720p private)\n\n")
	fmt.Fprintf(w, "| Config | IPC | Miss rate | Read ns | Power W |\n|---|---|---|---|---|\n")
	watts := map[string]float64{}
	for _, r := range Fig13(m) {
		if r.Benchmark == "AVG" {
			watts[r.Config] = r.Watts
		}
	}
	for _, r := range Fig12(m) {
		if r.Benchmark != "AVG" {
			continue
		}
		fmt.Fprintf(w, "| %s | %.2f | %.1f%% | %.1f | %.1f |\n",
			r.Config, r.IPC, r.MissRate*100, r.ReadTimeNs, watts[r.Config])
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "## Figures 14/15 — user-experience panel (modeled)\n\n")
	fmt.Fprintf(w, "| Config | Rating | No lag | No stutter | No tearing |\n|---|---|---|---|---|\n")
	for _, row := range UserStudy(m) {
		r := row.Result
		fmt.Fprintf(w, "| %s | %.1f | %d/30 | %d/30 | %d/30 |\n",
			row.Config, r.MeanRating, r.Lags.No, r.Stutters.No, r.Tearing.No)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "## Ablations\n\n")
	fmt.Fprintf(w, "| Variant | Client FPS | Gap | MtP ms |\n|---|---|---|---|\n")
	for _, rows := range [][]AblationRow{
		AblationMulBuf2(o),
		AblationAcceleration(o),
		AblationPriority(o),
		AblationContention(o),
	} {
		for _, r := range rows {
			fmt.Fprintf(w, "| %s | %.1f | %.1f | %.1f |\n", r.Variant, r.ClientFPS, r.GapMean, r.MtPMeanMs)
		}
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "## Benchmarks covered\n\n")
	for _, b := range pictor.Benchmarks {
		fmt.Fprintf(w, "- %s — %s\n", b, b.Description())
	}
	fmt.Fprintf(w, "\n_Report generated in %.1fs wall time._\n", time.Since(start).Seconds())
}
