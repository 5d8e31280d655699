// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 and §6) from the pipeline simulator. Each experiment has a
// function that runs the required configurations, prints the same rows or
// series the paper reports, and returns the numbers in a structured form so
// tests and benchmarks can assert on them.
//
// The experiment inventory, with the paper artifact each reproduces, is in
// DESIGN.md; measured-vs-paper values are recorded in EXPERIMENTS.md.
package experiments

import (
	"io"
	"time"

	"odr/internal/core"
	"odr/internal/pictor"
	"odr/internal/pipeline"
	"odr/internal/regulator"
	"odr/internal/sched"
)

// Options tunes experiment runs. The zero value gives the defaults used for
// EXPERIMENTS.md (60 s per configuration, seed 1).
type Options struct {
	// Duration is the measured simulation length per run.
	Duration time.Duration
	// Seed is the base RNG seed; per-run seeds derive from it.
	Seed int64
	// Out receives the human-readable report; nil discards it.
	Out io.Writer
	// Runner executes the pipeline cells of every experiment. Nil defaults
	// to a work-stealing runner over all CPUs with no persistent cache.
	// Cells carry per-cell seeds, so results — and therefore the printed
	// report — are identical at any worker count.
	Runner *sched.Runner
}

func (o Options) withDefaults() Options {
	if o.Duration == 0 {
		o.Duration = 60 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Runner == nil {
		o.Runner = sched.New(sched.Options{})
	}
	return o
}

// PolicyID names a regulation configuration the way the paper labels it.
type PolicyID string

// The configuration labels used across Table 2 and Figures 3-15.
const (
	NoReg       PolicyID = "NoReg"
	IntMax      PolicyID = "IntMax"
	RVSMax      PolicyID = "RVSMax"
	ODRMax      PolicyID = "ODRMax"
	ODRMaxNoPri PolicyID = "ODRMax-noPri"
	IntGoal     PolicyID = "Int60/30"
	RVSGoal     PolicyID = "RVS60/30"
	ODRGoal     PolicyID = "ODR60/30"
)

// policy resolves a PolicyID to the paper configuration it names under a
// resolution's QoS goal (Int60/30 is Int60 at 720p and Int30 at 1080p).
// ODRMax-noPri is ODRMax with PriorityFrame off, an ablation the table has
// no row for: label and factory name and build it.
func policy(id PolicyID, res pictor.Resolution) core.Policy {
	goal := res.TargetFPS()
	switch id {
	case NoReg:
		return core.Policy{Rule: core.RuleNoReg}
	case IntMax:
		return core.Policy{Rule: core.RuleInterval}
	case RVSMax:
		return core.Policy{Rule: core.RuleRVS, FPS: core.RVSMaxHz}
	case ODRMax:
		return core.Policy{Rule: core.RuleODR}
	case IntGoal:
		return core.Policy{Rule: core.RuleInterval, FPS: goal}
	case RVSGoal:
		return core.Policy{Rule: core.RuleRVS, FPS: goal}
	case ODRGoal:
		return core.Policy{Rule: core.RuleODR, FPS: goal}
	}
	panic("experiments: no policy " + string(id))
}

// label is the configuration's name in the report.
func label(id PolicyID, res pictor.Resolution) string {
	if id == ODRMaxNoPri {
		return string(id)
	}
	return policy(id, res).String()
}

// factory builds the configuration's regulation policy.
func factory(id PolicyID, res pictor.Resolution) pipeline.PolicyFactory {
	if id == ODRMaxNoPri {
		return func(ctx *regulator.Ctx) regulator.Policy {
			return regulator.NewODR(ctx, regulator.ODROptions{DisablePriority: true})
		}
	}
	p := policy(id, res)
	return func(ctx *regulator.Ctx) regulator.Policy { return regulator.New(ctx, p) }
}

// EvalPolicies is the seven-configuration set of Figures 9-13 (§6.1: no
// regulation plus three regulators under each of the two QoS goals).
var EvalPolicies = []PolicyID{NoReg, IntMax, RVSMax, ODRMax, IntGoal, RVSGoal, ODRGoal}

// Table2Policies adds the PriorityFrame-ablated ODR row of Table 2.
var Table2Policies = []PolicyID{NoReg, IntMax, RVSMax, ODRMaxNoPri, ODRMax, IntGoal, RVSGoal, ODRGoal}

// seedFor derives a deterministic per-run seed.
func seedFor(base int64, b pictor.Benchmark, g pictor.PlatformGroup, id PolicyID) int64 {
	h := base
	mix := func(s string) {
		for _, c := range s {
			h = h*1099511628211 + int64(c)
		}
	}
	mix(string(b))
	mix(g.String())
	mix(string(id))
	if h < 0 {
		h = -h
	}
	return h | 1
}

// cellFor builds the schedulable cell for one (benchmark, group, policy)
// coordinate of the evaluation matrix.
func cellFor(o Options, b pictor.Benchmark, g pictor.PlatformGroup, id PolicyID) sched.Cell {
	lbl := label(id, g.Resolution)
	return sched.Cell{
		PolicyKey: lbl,
		Config: pipeline.Config{
			Label:    lbl,
			Workload: b.Params(),
			Scale:    pictor.Scale(g.Platform, g.Resolution),
			Net:      pictor.Network(g.Platform),
			Policy:   factory(id, g.Resolution),
			Duration: o.Duration,
			Seed:     seedFor(o.Seed, b, g, id),
		},
	}
}

// runOne executes one (benchmark, group, policy) cell.
func runOne(o Options, b pictor.Benchmark, g pictor.PlatformGroup, id PolicyID) *pipeline.Result {
	return o.Runner.RunOne(cellFor(o, b, g, id))
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
