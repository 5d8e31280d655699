// Command odrtrace exports simulator measurements as CSV for plotting: the
// Fig. 4 CDFs and frame-time traces, and per-window FPS series for any
// configuration.
//
// Usage:
//
//	odrtrace -kind cdf      [-benchmark IM] [-platform priv] [-policy noreg] > cdf.csv
//	odrtrace -kind trace    [-benchmark IM] ...                              > trace.csv
//	odrtrace -kind fps      [-policy odr -fps 60] ...                        > fps.csv
//	odrtrace -kind timeline [-policy odr] -trace-out timeline.json
//
// A trace exported with -kind trace can be replayed as the workload of a
// later run with -replay trace.csv (trace-driven simulation).
//
// -kind timeline records the full frame lifecycle (render, copy, encode, tx,
// decode spans; input, display, MulBuf-drop and PriorityFrame instants) and
// writes it in Chrome trace-event format — open the file in chrome://tracing
// or https://ui.perfetto.dev. With -trace-csv the same events are written as
// CSV instead.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"odr/internal/obs"
	"odr/internal/pipeline"
	"odr/internal/simrun"
	"odr/internal/trace"
)

func main() {
	kind := flag.String("kind", "cdf", "export kind: cdf, trace, fps, timeline")
	traceOut := flag.String("trace-out", "", "timeline output path (Chrome trace-event JSON; default stdout)")
	traceCSV := flag.Bool("trace-csv", false, "write the timeline as CSV instead of Chrome JSON")
	traceEvents := flag.Int("trace-events", 1<<20, "timeline ring capacity (keeps the most recent events)")
	benchmark := flag.String("benchmark", "IM", "benchmark: STK, 0AD, RE, D2, IM, ITP")
	platform := flag.String("platform", "priv", "platform: priv, gce")
	resolution := flag.String("resolution", "720p", "resolution: 720p, 1080p")
	policy := flag.String("policy", "noreg", "policy: noreg, int, rvs, odr")
	fps := flag.Float64("fps", 0, "target FPS (0 = max; refresh rate for rvs)")
	duration := flag.Duration("duration", 60*time.Second, "simulated duration")
	seed := flag.Int64("seed", 1, "seed")
	replay := flag.String("replay", "", "CSV trace to replay as the workload (from -kind trace)")
	flag.Parse()

	switch *kind {
	case "cdf", "trace", "fps", "timeline":
	default:
		usageError(fmt.Errorf("unknown kind %q (want cdf, trace, fps or timeline)", *kind))
	}
	cfg, err := simrun.Config(simrun.Spec{
		Benchmark:  *benchmark,
		Platform:   *platform,
		Resolution: *resolution,
		Policy:     *policy,
		FPS:        *fps,
		Duration:   *duration,
		Seed:       *seed,
		Replay:     *replay,
	})
	if err != nil {
		usageError(err)
	}
	cfg.CollectFrames = 200
	var tl *obs.Tracer
	if *kind == "timeline" {
		tl = obs.NewTracer(*traceEvents)
		cfg.Trace = tl
	}
	r := pipeline.Run(cfg)

	switch *kind {
	case "cdf":
		t := trace.NewTable("step", "time_ms", "cdf")
		emit := func(step string, xs, ps []float64) {
			for i := range xs {
				if err := t.AddRow(step, xs[i], ps[i]); err != nil {
					log.Fatal(err)
				}
			}
		}
		rx, rp := r.RenderTimes.CDF()
		ex, ep := r.EncodeTimes.CDF()
		tx, tp := r.TransTimes.CDF()
		emit("render", rx, rp)
		emit("encode", ex, ep)
		emit("trans", tx, tp)
		fmt.Print(t.String())
	case "trace":
		// Full per-frame cost trace; replayable with -replay.
		t := trace.NewTable("frame", "render_ms", "copy_ms", "encode_ms", "decode_ms", "bytes", "complexity", "trans_ms")
		for i, f := range r.FrameTrace {
			err := t.AddRow(i,
				float64(f.CostRender)/1e6,
				float64(f.CostCopy)/1e6,
				float64(f.CostEncode)/1e6,
				float64(f.CostDecode)/1e6,
				f.Bytes,
				f.Complexity,
				float64(f.SendEnd-f.EncodeEnd)/1e6)
			if err != nil {
				log.Fatal(err)
			}
		}
		fmt.Print(t.String())
	case "fps":
		if err := trace.WriteSeries(os.Stdout, "window", "client_fps", r.ClientRates.Samples()); err != nil {
			log.Fatal(err)
		}
	case "timeline":
		out := os.Stdout
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		if *traceCSV {
			err = tl.WriteCSV(out)
		} else {
			err = tl.WriteChromeTrace(out)
		}
		if err != nil {
			log.Fatal(err)
		}
		if n := tl.Dropped(); n > 0 {
			log.Printf("timeline ring wrapped: oldest %d events overwritten (raise -trace-events)", n)
		}
		if *traceOut != "" {
			log.Printf("timeline: %d events -> %s (open in chrome://tracing or ui.perfetto.dev)",
				tl.Recorded()-tl.Dropped(), *traceOut)
		}
	}
}

// usageError reports a bad flag value with the usage text and exits 2, the
// flag package's own status for a bad command line.
func usageError(err error) {
	fmt.Fprintf(os.Stderr, "odrtrace: %v\n", err)
	flag.Usage()
	os.Exit(2)
}
