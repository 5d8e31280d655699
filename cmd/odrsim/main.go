// Command odrsim regenerates the paper's tables and figures from the
// pipeline simulator.
//
// Usage:
//
//	odrsim [-duration 60s] [-seed 1] [-parallel 0] [-cache dir] [experiment ...]
//	odrsim [-duration 60s] [-seed 1] [-parallel 0] [-cache dir] report > report.md
//
// With no arguments it runs every experiment. Experiment names: fig1, fig3,
// fig4, fig5, fig6, fig7, table2, fig9, fig10, fig11, fig12, fig13,
// userstudy (fig14+fig15), summary, ablations, vrr, consolidation, sweeps,
// seeds, fidelity. report, which the default run leaves out, prints a
// markdown results report instead: the summary, Table 2, Figure 9, the
// efficiency averages, the user-study panel and the ablations.
//
// Cells run through the shared deterministic scheduler: -parallel picks the
// worker count (0 = all CPUs, 1 = sequential) and -cache points at a result
// cache reused across runs of the same executable ("" disables caching).
// Output is byte-identical regardless of worker count or cache state. The
// scheduler's counts and the wall time go to stderr.
//
// The exit status is 1 when the fidelity experiment ran and any paper anchor
// fell outside its tolerance, so `odrsim fidelity` works as a gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"odr/internal/experiments"
	"odr/internal/sched"
)

func main() {
	duration := flag.Duration("duration", 60*time.Second, "simulated duration per configuration")
	seed := flag.Int64("seed", 1, "base RNG seed")
	csvDir := flag.String("csv", "", "also write plot-ready CSV artifacts into this directory")
	parallel := flag.Int("parallel", 0, "scheduler workers (0 = all CPUs, 1 = sequential)")
	cacheDir := flag.String("cache", "artifacts/cache", "result cache directory, reused by the same executable only (empty disables)")
	flag.Parse()

	var cache *sched.Cache
	if *cacheDir != "" {
		c, err := sched.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "odrsim: opening result cache: %v\n", err)
			os.Exit(1)
		}
		cache = c
	}
	runner := sched.New(sched.Options{Workers: *parallel, Cache: cache})

	o := experiments.Options{Duration: *duration, Seed: *seed, Out: os.Stdout, Runner: runner}
	m := experiments.NewMatrix(o)

	all := []string{"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "table2",
		"fig9", "fig10", "fig11", "fig12", "fig13", "userstudy", "summary", "ablations",
		"vrr", "consolidation", "sweeps", "seeds", "fidelity"}
	want := flag.Args()
	if len(want) == 0 {
		want = all
	}

	start := time.Now()
	anchorMissed := false
	// Prefetch the evaluation matrix only when a matrix-backed experiment is
	// requested, so e.g. `odrsim fig1` stays cheap.
	matrixBacked := map[string]bool{"table2": true, "fig9": true, "fig10": true,
		"fig11": true, "fig12": true, "fig13": true, "userstudy": true,
		"fig14": true, "fig15": true, "summary": true, "fidelity": true, "report": true}
	needMatrix := *csvDir != ""
	for _, name := range want {
		if matrixBacked[strings.ToLower(name)] {
			needMatrix = true
		}
	}
	if needMatrix {
		m.Prefetch()
	}

	for _, name := range want {
		switch strings.ToLower(name) {
		case "fig1":
			experiments.Fig1(o)
		case "fig3":
			experiments.Fig3(o)
		case "fig4":
			experiments.Fig4(o)
		case "fig5":
			experiments.Fig5(o)
		case "fig6":
			experiments.Fig6(o)
		case "fig7":
			experiments.Fig7(o)
		case "table2":
			experiments.Table2(m)
		case "fig9":
			experiments.Fig9(m)
		case "fig10":
			experiments.Fig10(m)
		case "fig11":
			experiments.Fig11(m)
		case "fig12":
			experiments.Fig12(m)
		case "fig13":
			experiments.Fig13(m)
		case "userstudy", "fig14", "fig15":
			experiments.UserStudy(m)
		case "summary":
			experiments.Summary(m)
		case "ablations":
			experiments.AblationMulBuf2(o)
			experiments.AblationAcceleration(o)
			experiments.AblationPriority(o)
			experiments.AblationRVSFeedback(o)
			experiments.AblationContention(o)
		case "vrr":
			experiments.VRRStudy(o)
		case "consolidation":
			experiments.Consolidation(o)
			experiments.ConsolidationMix(o)
		case "sweeps":
			experiments.SweepAPM(o)
			experiments.SweepBandwidth(o)
			experiments.SweepRVScc(o)
		case "seeds":
			experiments.SummaryCI(o, 5)
		case "fidelity":
			for _, r := range experiments.Fidelity(m) {
				anchorMissed = anchorMissed || !r.OK
			}
		case "report":
			experiments.Markdown(m, os.Stdout)
			continue
		default:
			fmt.Fprintf(os.Stderr, "odrsim: unknown experiment %q (known: %s, report)\n", name, strings.Join(all, ", "))
			os.Exit(2)
		}
		fmt.Println()
	}
	if *csvDir != "" {
		files, err := experiments.WriteCSVArtifacts(m, *csvDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "odrsim: writing CSV artifacts: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d CSV artifacts to %s\n", len(files), *csvDir)
	}
	run, hits, misses := runner.Stats()
	fmt.Fprintf(os.Stderr, "scheduler: %d cells run, cache %d hits / %d misses (%d workers)\n",
		run, hits, misses, runner.Workers())
	fmt.Fprintf(os.Stderr, "completed in %.1fs wall time\n", time.Since(start).Seconds())
	if anchorMissed {
		fmt.Fprintln(os.Stderr, "odrsim: paper anchors missed")
		os.Exit(1)
	}
}
