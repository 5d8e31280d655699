// Command odrsim regenerates the paper's tables and figures from the
// pipeline simulator, and exports one simulated run for plotting or replay.
//
// Usage:
//
//	odrsim [-duration 60s] [-seed 1] [-parallel 0] [-cache dir] [-csv dir] [experiment ...]
//	odrsim [-duration 60s] [-seed 1] [-parallel 0] [-cache dir] report > report.md
//	odrsim [-duration 60s] [-seed 1] [run flags] cdf|frames|fps|timeline|timeline-csv > out
//
// With no arguments it runs every experiment. Experiment names: fig1, fig3,
// fig4, fig5, fig6, fig7, table2, fig9, fig10, fig11, fig12, fig13,
// userstudy (fig14+fig15), summary, ablations, vrr, consolidation, sweeps,
// seeds, fidelity. report, which the default run leaves out, prints a
// markdown results report instead: the summary, Table 2, Figure 9, the
// efficiency averages, the user-study panel and the ablations.
//
// The exports, also left out of the default run, simulate the one run that
// the run flags -benchmark -platform -resolution -policy -fps -replay name
// (IM, priv, 720p, noreg by default) and write it: cdf, the render, encode
// and transmission time CDFs (Fig. 4a); frames, the first 200 frames' costs
// (Fig. 4b) in the trace format -replay reads; fps, the client FPS per
// 200 ms window; timeline and timeline-csv, the frame lifecycle as Chrome
// trace-event JSON (chrome://tracing, ui.perfetto.dev) or as CSV. A run flag
// given without an export is a usage error.
//
// Cells run through the shared deterministic scheduler: -parallel picks the
// worker count (0 = all CPUs, 1 = sequential) and -cache points at a result
// cache reused across runs of the same executable ("" disables caching).
// Output is byte-identical regardless of worker count or cache state. The
// scheduler's counts and the wall time go to stderr. A command line of
// exports alone (and no -csv) runs no cell: it opens no cache and prints
// neither line.
//
// The exit status is 1 when the fidelity experiment ran and any paper anchor
// fell outside its tolerance, so `odrsim fidelity` works as a gate, and 2 on
// a bad command line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"odr/internal/experiments"
	"odr/internal/metrics"
	"odr/internal/obs"
	"odr/internal/pipeline"
	"odr/internal/sched"
	"odr/internal/simrun"
	"odr/internal/trace"
	"odr/internal/workload"
)

var (
	experimentNames = []string{"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "table2",
		"fig9", "fig10", "fig11", "fig12", "fig13", "userstudy", "summary", "ablations",
		"vrr", "consolidation", "sweeps", "seeds", "fidelity"}
	exportNames = []string{"cdf", "frames", "fps", "timeline", "timeline-csv"}
	runFlags    = []string{"benchmark", "platform", "resolution", "policy", "fps", "replay"}
)

// timelineEvents is the timeline ring's capacity: a 60 s NoReg run records
// about 46 000 events.
const timelineEvents = 1 << 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it reads the command line args, writes the results to
// stdout and the scheduler's lines and errors to stderr, and returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	duration := fs.Duration("duration", 60*time.Second, "simulated duration per configuration")
	seed := fs.Int64("seed", 1, "base RNG seed")
	csvDir := fs.String("csv", "", "also write plot-ready CSV artifacts into this directory")
	parallel := fs.Int("parallel", 0, "scheduler workers (0 = all CPUs, 1 = sequential)")
	cacheDir := fs.String("cache", "artifacts/cache", "result cache directory, reused by the same executable only (empty disables)")
	spec := simrun.Spec{}
	fs.StringVar(&spec.Benchmark, "benchmark", "IM", "exported run's benchmark: STK, 0AD, RE, D2, IM, ITP")
	fs.StringVar(&spec.Platform, "platform", "priv", "exported run's platform: priv, gce")
	fs.StringVar(&spec.Resolution, "resolution", "720p", "exported run's resolution: 720p, 1080p")
	fs.StringVar(&spec.Policy, "policy", "noreg", "exported run's policy: noreg, int (or interval), rvs, odr")
	fs.Float64Var(&spec.FPS, "fps", 0, "exported run's target FPS (0 = max; refresh rate for rvs)")
	fs.StringVar(&spec.Replay, "replay", "", "frame-cost trace (from the frames export) to replay as the exported run's workload")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: odrsim [flags] [name ...]\n"+
			"experiments: %s, report\nexports: %s\nflags:\n",
			strings.Join(experimentNames, ", "), strings.Join(exportNames, ", "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	spec.Duration, spec.Seed = *duration, *seed

	want := fs.Args()
	if len(want) == 0 {
		want = experimentNames
	}
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkArgs(want, set, spec); err != nil {
		fmt.Fprintf(stderr, "odrsim: %v\n", err)
		fs.Usage()
		return 2
	}

	// An export simulates its one run itself, through no scheduler cell: a
	// command line of exports alone opens no cache and reports no cells.
	exportsOnly := *csvDir == "" && !slices.ContainsFunc(want, func(n string) bool {
		return !slices.Contains(exportNames, strings.ToLower(n))
	})

	var cache *sched.Cache
	if *cacheDir != "" && !exportsOnly {
		c, err := sched.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(stderr, "odrsim: opening result cache: %v\n", err)
			return 1
		}
		cache = c
	}
	runner := sched.New(sched.Options{Workers: *parallel, Cache: cache})

	o := experiments.Options{Duration: *duration, Seed: *seed, Out: stdout, Runner: runner}
	m := experiments.NewMatrix(o)

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
		switch name = strings.ToLower(name); name {
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
			experiments.Markdown(m, stdout)
			continue
		default:
			if err := export(stdout, name, spec); err != nil {
				fmt.Fprintf(stderr, "odrsim: %s: %v\n", name, err)
				return 1
			}
			continue
		}
		fmt.Fprintln(stdout)
	}
	if *csvDir != "" {
		files, err := experiments.WriteCSVArtifacts(m, *csvDir)
		if err != nil {
			fmt.Fprintf(stderr, "odrsim: writing CSV artifacts: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d CSV artifacts to %s\n", len(files), *csvDir)
	}
	if !exportsOnly {
		cells, hits, misses := runner.Stats()
		fmt.Fprintf(stderr, "scheduler: %d cells run, cache %d hits / %d misses (%d workers)\n",
			cells, hits, misses, runner.Workers())
		fmt.Fprintf(stderr, "completed in %.1fs wall time\n", time.Since(start).Seconds())
	}
	if anchorMissed {
		fmt.Fprintln(stderr, "odrsim: paper anchors missed")
		return 1
	}
	return 0
}

// export simulates the run spec names and writes the export name to w.
func export(w io.Writer, name string, spec simrun.Spec) error {
	// Each export builds its own configuration: a replayed trace's sampler
	// is consumed by the run it drives.
	cfg, err := simrun.Config(spec)
	if err != nil {
		return err
	}
	cfg.CollectFrames = 200
	var tl *obs.Tracer
	if strings.HasPrefix(name, "timeline") {
		tl = obs.NewTracer(timelineEvents)
		cfg.Trace = tl
	}
	r := pipeline.Run(cfg)

	switch name {
	case "cdf":
		t := trace.NewTable("step", "time_ms", "cdf")
		steps := []string{"render", "encode", "trans"}
		for i, d := range []*metrics.Dist{&r.RenderTimes, &r.EncodeTimes, &r.TransTimes} {
			xs, ps := d.CDF()
			for j := range xs {
				if err := t.AddRow(steps[i], xs[j], ps[j]); err != nil {
					return err
				}
			}
		}
		return t.WriteCSV(w)
	case "frames":
		return workload.WriteTraceCSV(w, r.FrameTrace)
	case "fps":
		return trace.WriteSeries(w, "window", "client_fps", r.ClientRates.Samples())
	}
	if name == "timeline" {
		err = tl.WriteChromeTrace(w)
	} else {
		err = tl.WriteCSV(w)
	}
	if n := tl.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "odrsim: timeline ring wrapped: oldest %d events overwritten (shorten -duration)\n", n)
	}
	return err
}

// checkArgs refuses a command line before anything runs: an unknown
// experiment or export name, a run flag among the set flags given without an
// export, or a run that spec names but simrun does not know.
func checkArgs(names, set []string, spec simrun.Spec) error {
	known := append(slices.Concat(experimentNames, exportNames), "report", "fig14", "fig15")
	exporting := false
	for _, name := range names {
		n := strings.ToLower(name)
		if !slices.Contains(known, n) {
			return fmt.Errorf("unknown experiment or export %q", name)
		}
		exporting = exporting || slices.Contains(exportNames, n)
	}
	if exporting {
		_, err := simrun.Config(spec)
		return err
	}
	for _, f := range set {
		if slices.Contains(runFlags, f) {
			return fmt.Errorf("-%s names the exported run, but no export is named", f)
		}
	}
	return nil
}
