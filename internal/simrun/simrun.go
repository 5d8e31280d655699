// Package simrun builds one simulator run from the names the command line
// and the public API use — benchmark, platform, resolution, policy, frame
// rate and an optional recorded trace to replay — so odr.Simulate and
// odrsim's exports accept the same names and refuse the same unknown ones.
package simrun

import (
	"fmt"
	"os"
	"slices"
	"time"

	"odr/internal/core"
	"odr/internal/pictor"
	"odr/internal/pipeline"
	"odr/internal/regulator"
	"odr/internal/workload"
)

// Spec names one simulator run. An empty name picks its default.
type Spec struct {
	Benchmark  string  // STK, 0AD, RE, D2, IM (default) or ITP
	Platform   string  // priv (default) or gce
	Resolution string  // 720p (default) or 1080p
	Policy     string  // a core.ParsePolicy name: noreg, int (or interval), rvs or odr (default)
	FPS        float64 // the QoS goal, 0 = maximize; for rvs the display refresh rate (0 = 240 Hz)
	Duration   time.Duration
	Seed       int64
	// Replay, when set, is a recorded frame-cost trace (odrsim frames) that
	// drives the run instead of the stochastic benchmark model;
	// the benchmark still sets input rate and power/DRAM character.
	Replay string
}

// Config returns the pipeline configuration s names, or an error for the
// first name it does not know or a trace it cannot read.
func Config(s Spec) (pipeline.Config, error) {
	b := pictor.IM
	if s.Benchmark != "" {
		b = pictor.Benchmark(s.Benchmark)
		if !slices.Contains(pictor.Benchmarks, b) {
			return pipeline.Config{}, fmt.Errorf("unknown benchmark %q (want one of %v)", s.Benchmark, pictor.Benchmarks)
		}
	}
	var plat pictor.Platform
	switch s.Platform {
	case "", "priv":
		plat = pictor.PrivateCloud
	case "gce":
		plat = pictor.GoogleGCE
	default:
		return pipeline.Config{}, fmt.Errorf("unknown platform %q (want priv or gce)", s.Platform)
	}
	var res pictor.Resolution
	switch s.Resolution {
	case "", "720p":
		res = pictor.R720p
	case "1080p":
		res = pictor.R1080p
	default:
		return pipeline.Config{}, fmt.Errorf("unknown resolution %q (want 720p or 1080p)", s.Resolution)
	}
	pol, err := core.ParsePolicy(s.Policy, s.FPS)
	if err != nil {
		return pipeline.Config{}, err
	}
	cfg := pipeline.Config{
		Label:    pol.String(),
		Workload: b.Params(),
		Scale:    pictor.Scale(plat, res),
		Net:      pictor.Network(plat),
		Policy:   func(ctx *regulator.Ctx) regulator.Policy { return regulator.New(ctx, pol) },
		Duration: s.Duration,
		Seed:     s.Seed,
	}
	if s.Replay != "" {
		f, err := os.Open(s.Replay)
		if err != nil {
			return pipeline.Config{}, fmt.Errorf("opening trace: %w", err)
		}
		rows, err := workload.ParseTraceCSV(f)
		f.Close()
		if err != nil {
			return pipeline.Config{}, err
		}
		if cfg.Source, err = workload.NewTraceSampler(rows, b.Params().InputRate, s.Seed); err != nil {
			return pipeline.Config{}, err
		}
	}
	return cfg, nil
}
