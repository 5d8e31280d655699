// Command odrbench measures the performance-critical paths added for the
// parallel experiment scheduler and the zero-alloc frame hot path, and
// writes the evidence to a JSON file (BENCH_sched.json in CI / make bench):
//
//   - codec: ns/op, MB/s and allocs/op for Encode (allocating) vs
//     EncodeAppend (recycled buffer), and for Decode;
//   - pipeline: the cost of one simulation cell (the scheduler's work unit);
//   - scheduler: cells/sec for a fixed batch at 1 worker vs all CPUs, and
//     the resulting speedup;
//   - cache: cold vs warm wall time for the same batch through the
//     content-addressed result cache, and the warm-over-cold speedup.
//
// The tile-codec suite (codecsuite.go) runs separately:
//
//   - `odrbench -codec` sweeps static/scrolling/mixed/noise content at
//     720p/1080p/4K and the synthetic game (what the stack serves, with an
//     input flash every 7th frame, lossless and at QuantShift 2) at
//     320x180/640x360 through the v1 serial coder and the v2 tile coder
//     (keyframe striping + shared tile cache, the hub configuration) at
//     1-16 workers, verifies parallel/serial byte identity, and writes
//     BENCH_codec.json with a host fingerprint;
//   - `odrbench -codec-check BENCH_codec.json` re-runs the sweep and exits
//     nonzero when any group's median speedup-vs-v1 regresses more than
//     -codec-tol below the committed baseline, a static/scrolling/mixed
//     cell's bytes/frame grow at all (game and noise: >10%), game content
//     codes above 0.35x raw or noise above 1.02x raw, a static cell's cache
//     hit ratio falls below 0.9, or a static cell shows a keyframe-shaped
//     latency spike.
//
// The hub fan-out suite (hubsuite.go) measures the encode-once hub:
//
//   - `odrbench -hub` streams to 1/4/16/64/256/1024/4096 same-resolution
//     viewers sharing one lane encoder and writes encode and delivery rates,
//     the sends_per_encode amplification, and the event-driven engine shape
//     (goroutines/session, heap bytes/session, coalescing ratio) to
//     BENCH_hub.json;
//   - `odrbench -hub-check BENCH_hub.json` re-runs the suite and exits
//     nonzero when any cell's sends_per_encode ratio falls more than
//     -hub-tol below the committed baseline (the ratio is machine-portable;
//     it collapses only if the hub regresses toward per-viewer encoding),
//     when a >=256-viewer cell spends more than 0.25 goroutines or grows
//     heap per session beyond the baseline by -hub-tol, or when the
//     coalescing accounting reports a ratio below 1.
//
// Usage:
//
//	odrbench [-o BENCH_sched.json] [-duration 10s] [-cells 24]
//	odrbench -codec [-codec-out BENCH_codec.json] [-codec-budget 250ms]
//	odrbench -codec-check BENCH_codec.json [-codec-tol 0.25]
//	odrbench -hub [-hub-out BENCH_hub.json] [-hub-measure 2s]
//	odrbench -hub-check BENCH_hub.json [-hub-tol 0.35]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"odr/internal/codec"
	"odr/internal/pictor"
	"odr/internal/pipeline"
	"odr/internal/regulator"
	"odr/internal/sched"
)

type codecResult struct {
	Name      string  `json:"name"`
	NsPerOp   float64 `json:"ns_per_op"`
	MBPerSec  float64 `json:"mb_per_sec"`
	AllocsOp  int64   `json:"allocs_per_op"`
	BytesOp   int64   `json:"bytes_per_op"`
	Reduction string  `json:"allocs_reduction_vs_encode,omitempty"`
}

type schedResult struct {
	Cells          int     `json:"cells"`
	Workers        int     `json:"workers"`
	SeqSeconds     float64 `json:"sequential_seconds"`
	ParSeconds     float64 `json:"parallel_seconds"`
	SeqCellsPerSec float64 `json:"sequential_cells_per_sec"`
	ParCellsPerSec float64 `json:"parallel_cells_per_sec"`
	Speedup        float64 `json:"speedup"`
}

type cacheResult struct {
	Cells       int     `json:"cells"`
	ColdSeconds float64 `json:"cold_seconds"`
	WarmSeconds float64 `json:"warm_seconds"`
	Speedup     float64 `json:"speedup"`
	WarmHits    int64   `json:"warm_hits"`
}

type report struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	NumCPU      int           `json:"num_cpu"`
	Codec       []codecResult `json:"codec"`
	PipelineUs  float64       `json:"pipeline_cell_us_per_sim_s"`
	Sched       schedResult   `json:"sched"`
	Cache       cacheResult   `json:"cache"`
}

// animatedFrames mirrors the codec benchmark workload: a static background
// with a moving dirty band, approximating game content.
func animatedFrames(w, h, n int) [][]byte {
	base := make([]byte, w*h*4)
	st := uint64(0x9E3779B97F4A7C15)
	next := func() byte { st ^= st << 13; st ^= st >> 7; st ^= st << 17; return byte(st) }
	for i := range base {
		base[i] = next()
	}
	frames := make([][]byte, n)
	for f := 0; f < n; f++ {
		fr := make([]byte, len(base))
		copy(fr, base)
		start := (f * len(fr) / n) % len(fr)
		end := start + len(fr)/10
		if end > len(fr) {
			end = len(fr)
		}
		for i := start; i < end; i++ {
			fr[i] = next()
		}
		frames[f] = fr
	}
	return frames
}

func codecBench() []codecResult {
	const w, h = 1280, 720
	frames := animatedFrames(w, h, 16)
	frameBytes := float64(w * h * 4)

	row := func(name string, r testing.BenchmarkResult) codecResult {
		ns := float64(r.NsPerOp())
		return codecResult{
			Name:     name,
			NsPerOp:  ns,
			MBPerSec: frameBytes / ns * 1e9 / 1e6,
			AllocsOp: r.AllocsPerOp(),
			BytesOp:  r.AllocedBytesPerOp(),
		}
	}

	enc := codec.NewEncoder(w, h, codec.Options{QuantShift: 2})
	encRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := enc.Encode(frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	encA := codec.NewEncoder(w, h, codec.Options{QuantShift: 2})
	buf := make([]byte, 0, 2*w*h*4)
	appendRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var err error
		for i := 0; i < b.N; i++ {
			if buf, err = encA.EncodeAppend(buf[:0], frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	encD := codec.NewEncoder(w, h, codec.Options{QuantShift: 2})
	var streams [][]byte
	for _, f := range frames {
		bs, err := encD.Encode(f)
		if err != nil {
			panic(err)
		}
		streams = append(streams, bs)
	}
	dec := codec.NewDecoder()
	decRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dec.Decode(streams[i%len(streams)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	out := []codecResult{
		row("Encode720p", encRes),
		row("EncodeAppend720p", appendRes),
		row("Decode720p", decRes),
	}
	if e, a := out[0].AllocsOp, out[1].AllocsOp; e > 0 {
		out[1].Reduction = fmt.Sprintf("%.0f%%", 100*(1-float64(a)/float64(e)))
	}
	return out
}

// benchCells builds a batch of distinct cacheable cells.
func benchCells(n int, dur time.Duration) []sched.Cell {
	g := pictor.PlatformGroup{Platform: pictor.PrivateCloud, Resolution: pictor.R720p}
	cells := make([]sched.Cell, n)
	for i := range cells {
		cells[i] = sched.Cell{
			PolicyKey: "NoReg",
			Config: pipeline.Config{
				Label:    "NoReg",
				Workload: pictor.IM.Params(),
				Scale:    pictor.Scale(g.Platform, g.Resolution),
				Net:      pictor.Network(g.Platform),
				Policy:   func(ctx *regulator.Ctx) regulator.Policy { return regulator.NewNoReg(ctx) },
				Duration: dur,
				Seed:     int64(i + 1),
			},
		}
	}
	return cells
}

func main() {
	out := flag.String("o", "BENCH_sched.json", "output JSON file")
	dur := flag.Duration("duration", 60*time.Second, "simulated duration per scheduler cell (60s = the experiments' default cell size)")
	nCells := flag.Int("cells", 24, "cells in the scheduler batch")
	codecRun := flag.Bool("codec", false, "run only the tile-codec suite and write -codec-out")
	codecOut := flag.String("codec-out", "BENCH_codec.json", "output file for the tile-codec suite")
	codecCheck := flag.String("codec-check", "", "baseline BENCH_codec.json: re-run the codec suite and fail on ratio regression")
	codecBudget := flag.Duration("codec-budget", 250*time.Millisecond, "minimum measurement time per codec suite cell")
	codecTol := flag.Float64("codec-tol", 0.25, "allowed fractional drop in per-group median speedup_vs_v1 before -codec-check fails")
	hubRun := flag.Bool("hub", false, "run only the hub fan-out suite and write -hub-out")
	hubOut := flag.String("hub-out", "BENCH_hub.json", "output file for the hub fan-out suite")
	hubCheck := flag.String("hub-check", "", "baseline BENCH_hub.json: re-run the hub suite and fail on sends/encode regression")
	hubMeasure := flag.Duration("hub-measure", 2*time.Second, "measurement window per hub suite cell")
	hubTol := flag.Float64("hub-tol", 0.35, "allowed fractional drop in sends_per_encode before -hub-check fails")
	flag.Parse()

	if *hubCheck != "" {
		if err := checkHubRegression(*hubCheck, *hubMeasure, *hubTol); err != nil {
			fmt.Fprintln(os.Stderr, "odrbench:", err)
			os.Exit(1)
		}
		return
	}
	if *hubRun {
		rep, err := hubSuite(*hubMeasure)
		if err == nil {
			err = writeHubReport(rep, *hubOut)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "odrbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "odrbench: %d hub cells -> %s\n", len(rep.Cells), *hubOut)
		return
	}
	if *codecCheck != "" {
		if err := checkCodecRegression(*codecCheck, *codecBudget, *codecTol); err != nil {
			fmt.Fprintln(os.Stderr, "odrbench:", err)
			os.Exit(1)
		}
		return
	}
	if *codecRun {
		rep, err := codecSuite(*codecBudget)
		if err == nil {
			err = writeCodecReport(rep, *codecOut)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "odrbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "odrbench: %d codec cells -> %s\n", len(rep.Cells), *codecOut)
		return
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
	}

	fmt.Fprintln(os.Stderr, "odrbench: codec benchmarks...")
	rep.Codec = codecBench()

	fmt.Fprintln(os.Stderr, "odrbench: pipeline cell cost...")
	cell := benchCells(1, *dur)[0]
	cellRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pipeline.Run(cell.Config)
		}
	})
	rep.PipelineUs = float64(cellRes.NsPerOp()) / 1e3 / dur.Seconds()

	fmt.Fprintln(os.Stderr, "odrbench: scheduler scaling...")
	cells := benchCells(*nCells, *dur)
	seqStart := time.Now()
	seqRes := sched.New(sched.Options{Workers: 1}).Run(cells)
	seqSec := time.Since(seqStart).Seconds()
	parStart := time.Now()
	parRes := sched.New(sched.Options{}).Run(cells)
	parSec := time.Since(parStart).Seconds()
	for i := range seqRes {
		if seqRes[i].ClientFPS != parRes[i].ClientFPS {
			fmt.Fprintf(os.Stderr, "odrbench: cell %d differs between sequential and parallel runs\n", i)
			os.Exit(1)
		}
	}
	rep.Sched = schedResult{
		Cells:          *nCells,
		Workers:        runtime.GOMAXPROCS(0),
		SeqSeconds:     seqSec,
		ParSeconds:     parSec,
		SeqCellsPerSec: float64(*nCells) / seqSec,
		ParCellsPerSec: float64(*nCells) / parSec,
		Speedup:        seqSec / parSec,
	}

	fmt.Fprintln(os.Stderr, "odrbench: cache cold vs warm...")
	dir, err := os.MkdirTemp("", "odrbench-cache-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "odrbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	cache, err := sched.OpenCache(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odrbench:", err)
		os.Exit(1)
	}
	coldStart := time.Now()
	sched.New(sched.Options{Cache: cache}).Run(cells)
	coldSec := time.Since(coldStart).Seconds()
	warmRunner := sched.New(sched.Options{Cache: cache})
	warmStart := time.Now()
	warmRunner.Run(cells)
	warmSec := time.Since(warmStart).Seconds()
	_, warmHits, _ := warmRunner.Stats()
	rep.Cache = cacheResult{
		Cells:       *nCells,
		ColdSeconds: coldSec,
		WarmSeconds: warmSec,
		Speedup:     coldSec / warmSec,
		WarmHits:    warmHits,
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odrbench:", err)
		os.Exit(1)
	}
	encJSON := json.NewEncoder(f)
	encJSON.SetIndent("", "  ")
	if err := encJSON.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "odrbench:", err)
		os.Exit(1)
	}
	f.Close()
	fmt.Fprintf(os.Stderr, "odrbench: codec allocs/op %d -> %d, sched speedup %.2fx, cache speedup %.1fx -> %s\n",
		rep.Codec[0].AllocsOp, rep.Codec[1].AllocsOp, rep.Sched.Speedup, rep.Cache.Speedup, *out)
}
