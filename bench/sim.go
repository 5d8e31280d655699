package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"odr"
	"odr/internal/pictor"
	"odr/internal/pipeline"
	"odr/internal/regulator"
	"odr/internal/sched"
)

// sim_matrix: odr.Simulate over 6 benchmarks x 4 policies x 2 platforms,
// sequential in one goroutine. It runs the reproduction side (sim, pipeline,
// regulator, pictor, powermodel) and internal/core on the virtual clock, and
// bypasses every streaming layer.

var (
	simPolicies  = []odr.Policy{odr.PolicyNoReg, odr.PolicyInterval, odr.PolicyRVS, odr.PolicyODR}
	simPlatforms = []string{"priv", "gce"}
)

const simTargetFPS = 60

type simCell struct {
	benchmark, platform string
	policy              odr.Policy
}

func simCells() []simCell {
	var cells []simCell
	for _, b := range simBenchmarks {
		for _, plat := range simPlatforms {
			for _, pol := range simPolicies {
				cells = append(cells, simCell{b, plat, pol})
			}
		}
	}
	return cells
}

// simPass runs every cell once with one seed and returns the results in cell
// order with each cell's wall time.
func simPass(cells []simCell, seed int64, simulated time.Duration) ([]*odr.SimResult, []float64, error) {
	results := make([]*odr.SimResult, len(cells))
	ms := make([]float64, len(cells))
	for i, c := range cells {
		start := time.Now()
		r, err := odr.Simulate(odr.SimConfig{
			Benchmark: c.benchmark, Platform: c.platform, Policy: c.policy,
			TargetFPS: simTargetFPS, Duration: simulated, Seed: seed,
		})
		if err != nil {
			return nil, nil, err
		}
		ms[i] = float64(time.Since(start)) / 1e6
		results[i] = r
	}
	return results, ms, nil
}

// simRun is one run of sim_matrix.
type simRun struct {
	EndToEnd, PerLayer metricSet
	Checks             []check
	Attempted, Failed  int
}

// simPasses is how many passes over the matrix a window of this length
// holds: a fixed number, so the work done depends on the seed alone. A pass
// takes about 1.7 s on the builder's host. At least two: the second repeats
// the first pass's seed and must reproduce it byte for byte.
func simPasses(window time.Duration) int {
	return max(2, int(window.Seconds()*3/5))
}

// runSimMatrix runs simPasses(window) seeded passes over the matrix; layers
// adds the internal/sched replay.
func runSimMatrix(seed int64, window time.Duration, quick, layers bool) (*simRun, error) {
	rng := rand.New(rand.NewSource(seed))
	cells := simCells()
	simulated := simCellDuration
	if quick {
		simulated = 5 * time.Second
	}
	run := &simRun{EndToEnd: metricSet{}, PerLayer: metricSet{}}

	start := time.Now()
	firstSeed := rng.Int63()
	first, cellMs, err := simPass(cells, firstSeed, simulated)
	if err != nil {
		return nil, err
	}
	again, ms, err := simPass(cells, firstSeed, simulated)
	if err != nil {
		return nil, err
	}
	firstCellS := []float64{cellMs[0] / 1e3, ms[0] / 1e3}
	cellMs = append(cellMs, ms...)
	for p := 2; p < simPasses(window); p++ {
		_, ms, err := simPass(cells, rng.Int63(), simulated)
		if err != nil {
			return nil, err
		}
		firstCellS = append(firstCellS, ms[0]/1e3)
		cellMs = append(cellMs, ms...)
	}
	elapsed, done := time.Since(start).Seconds(), len(cellMs)

	run.EndToEnd.putN("sim_cells_per_s", float64(done)/elapsed, "1/s", done)
	// Set-up is a pass's start to its first cell's result, once per pass.
	run.EndToEnd.putN("setup_s", median(firstCellS), "s", len(firstCellS))
	sort.Float64s(cellMs)
	run.PerLayer.putN("sim.cell_ms_p50", percentile(cellMs, 50), "ms", len(cellMs))
	run.PerLayer.putN("pipeline.us_per_sim_s", percentile(cellMs, 50)*1e3/simulated.Seconds(), "us", len(cellMs))

	a, errA := json.Marshal(first)
	b, errB := json.Marshal(again)
	identical := errA == nil && errB == nil && bytes.Equal(a, b)
	run.Checks = append(run.Checks, check{"sim-deterministic", identical,
		fmt.Sprintf("two passes of seed %d over %d cells byte-identical: %v", firstSeed, len(cells), identical)})
	noreg := make(map[string]float64)
	for i, c := range cells {
		if c.policy == odr.PolicyNoReg {
			noreg[c.benchmark+"/"+c.platform] = first[i].FPSGapMean
		}
	}
	worse := 0
	for i, c := range cells {
		if c.policy == odr.PolicyODR && first[i].FPSGapMean >= noreg[c.benchmark+"/"+c.platform] {
			worse++
		}
	}
	pairs := len(simBenchmarks) * len(simPlatforms)
	run.Checks = append(run.Checks, check{"odr-gap-below-noreg", worse == 0,
		fmt.Sprintf("ODR's FPS gap is not below NoReg's in %d of %d benchmark/platform cells", worse, pairs)})
	run.Attempted = done + pairs
	run.Failed = worse
	if !identical {
		run.Failed += len(cells)
	}

	if layers {
		if err := replaySched(run.PerLayer, simulated); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// replaySched times internal/sched, the experiment runner layered over the
// simulator: what its Map costs over a plain loop, and how fast its result
// cache serves a warm batch.
func replaySched(out metricSet, simulated time.Duration) error {
	const n = 12
	cells := make([]sched.Cell, n)
	for i := range cells {
		cells[i] = sched.Cell{
			PolicyKey: "NoReg",
			Config: pipeline.Config{
				Label:    "NoReg",
				Workload: pictor.IM.Params(),
				Scale:    pictor.Scale(pictor.PrivateCloud, pictor.R720p),
				Net:      pictor.Network(pictor.PrivateCloud),
				Policy:   func(ctx *regulator.Ctx) regulator.Policy { return regulator.NewNoReg(ctx) },
				Duration: simulated,
				Seed:     int64(i + 1),
			},
		}
	}
	start := time.Now()
	for _, c := range cells {
		pipeline.Run(c.Config)
	}
	loop := time.Since(start)
	start = time.Now()
	sched.New(sched.Options{Workers: 1}).Run(cells)
	mapped := time.Since(start)
	out.putN("sched.map_overhead_ratio", ratio(mapped.Seconds(), loop.Seconds()), "ratio", n)

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "sched-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := sched.OpenCache(dir)
	if err != nil {
		return err
	}
	sched.New(sched.Options{Workers: 1, Cache: cache}).Run(cells)
	warm := sched.New(sched.Options{Workers: 1, Cache: cache})
	start = time.Now()
	warm.Run(cells)
	warmSecs := time.Since(start).Seconds()
	if _, hits, _ := warm.Stats(); hits != n {
		return fmt.Errorf("sched warm pass: %d of %d cells hit the cache", hits, n)
	}
	out.putN("sched.warm_cache_cells_per_s", ratio(n, warmSecs), "1/s", n)
	return nil
}

// buildDir holds what running leaves behind; .gitignore names it.
const buildDir = ".bench_build"
