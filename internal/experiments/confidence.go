package experiments

import (
	"fmt"
	"math"
)

// CIStat is a mean with its spread over independent seeds.
type CIStat struct {
	Mean   float64
	Stddev float64
	N      int
}

// String formats the stat as "mean ± stddev".
func (c CIStat) String() string { return fmt.Sprintf("%.1f ± %.1f", c.Mean, c.Stddev) }

// ciOf reduces per-seed samples.
func ciOf(samples []float64) CIStat {
	n := len(samples)
	if n == 0 {
		return CIStat{}
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	sd := 0.0
	if n > 1 {
		sd = math.Sqrt(ss / float64(n-1))
	}
	return CIStat{Mean: mean, Stddev: sd, N: n}
}

// SummaryCIResult carries the headline §6.6 metrics with seed spread.
type SummaryCIResult struct {
	Seeds         int
	NoRegGap      CIStat
	ODRGap        CIStat
	ODRMaxFPS     CIStat
	NoRegFPS      CIStat
	ODRMaxLatMs   CIStat
	NoRegLatMs    CIStat
	PowerDropPct  CIStat
	ReadDropPct   CIStat
	GoalAttainPct CIStat // regular cadence, as in SummaryResult
	GoalExtraFPS  CIStat
}

// SummaryCI runs the §6.6 summary over several independent seeds and
// reports mean ± stddev for the headline metrics — the reproducibility
// rigor the single-seed tables omit. The workload, input timing, network
// jitter and QoE panel all re-randomize per seed.
func SummaryCI(o Options, seeds int) SummaryCIResult {
	o = o.withDefaults()
	if seeds <= 0 {
		seeds = 5
	}
	var noRegGap, odrGap, odrFPS, noRegFPS, odrLat, noRegLat, powerDrop, readDrop, attain, extra []float64
	for i := 0; i < seeds; i++ {
		so := o
		so.Seed = o.Seed + int64(i)*7919
		so.Out = nil
		so = so.withDefaults()
		m := NewMatrix(so)
		m.Prefetch()
		s := Summary(m)
		noRegGap = append(noRegGap, s.NoRegAvgGap)
		odrGap = append(odrGap, s.ODRAvgGap)
		odrFPS = append(odrFPS, s.ODRMaxFPS)
		noRegFPS = append(noRegFPS, s.NoRegFPS)
		odrLat = append(odrLat, s.ODRMaxLat)
		noRegLat = append(noRegLat, s.NoRegLat)
		powerDrop = append(powerDrop, 100*s.PowerDrop)
		readDrop = append(readDrop, 100*s.ReadTimeDrop)
		attain = append(attain, 100*s.ODRGoalFPSvsTarget)
		extra = append(extra, s.ODRGoalExtraFPS)
	}
	res := SummaryCIResult{
		Seeds:         seeds,
		NoRegGap:      ciOf(noRegGap),
		ODRGap:        ciOf(odrGap),
		ODRMaxFPS:     ciOf(odrFPS),
		NoRegFPS:      ciOf(noRegFPS),
		ODRMaxLatMs:   ciOf(odrLat),
		NoRegLatMs:    ciOf(noRegLat),
		PowerDropPct:  ciOf(powerDrop),
		ReadDropPct:   ciOf(readDrop),
		GoalAttainPct: ciOf(attain),
		GoalExtraFPS:  ciOf(extra),
	}
	fmt.Fprintf(o.Out, "Seed sensitivity (%d independent seeds, %v each):\n", seeds, o.Duration)
	fmt.Fprintf(o.Out, "  FPS gap:          NoReg %s -> ODR %s\n", res.NoRegGap, res.ODRGap)
	fmt.Fprintf(o.Out, "  client FPS:       ODRMax %s vs NoReg %s\n", res.ODRMaxFPS, res.NoRegFPS)
	fmt.Fprintf(o.Out, "  MtP latency (ms): ODRMax %s vs NoReg %s\n", res.ODRMaxLatMs, res.NoRegLatMs)
	fmt.Fprintf(o.Out, "  power saving %%:   %s   read-time saving %%: %s\n", res.PowerDropPct, res.ReadDropPct)
	fmt.Fprintf(o.Out, "  goal attainment:  %s %% of target (regular cadence; + %s extra FPS)\n", res.GoalAttainPct, res.GoalExtraFPS)
	return res
}
