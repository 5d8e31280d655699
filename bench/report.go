package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name         string    `json:"name"`
	Why          string    `json:"why"`
	Valid        bool      `json:"valid"`
	Invalid      []string  `json:"invalid,omitempty"`
	OpsAttempted int       `json:"ops_attempted"`
	OpsFailed    int       `json:"ops_failed"`
	EndToEnd     metricSet `json:"end_to_end"`
	PerLayer     metricSet `json:"per_layer"`
	Checks       []check   `json:"checks"`
	ChildProcs   int       `json:"child_gomaxprocs,omitempty"`
}

// runWorkload runs one workload: the untraced window for the end-to-end
// metrics and the window counters and, when traced is set, the separate
// traced run of the same topology plus the layer replay.
func runWorkload(name string, seed int64, w windows, traced, quick bool) (*workloadResult, error) {
	res := &workloadResult{Name: name, EndToEnd: metricSet{}, PerLayer: metricSet{}}
	for _, wl := range workloads {
		if wl.name == name {
			res.Why = wl.why
		}
	}
	if name == "sim_matrix" {
		run, err := runSimMatrix(seed, w.Measure, quick, traced)
		if err != nil {
			return nil, err
		}
		res.EndToEnd, res.PerLayer, res.Checks = run.EndToEnd, run.PerLayer, run.Checks
		res.OpsAttempted, res.OpsFailed = run.Attempted, run.Failed
		res.finish()
		return res, nil
	}
	spec := streamSpecByName(name)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	base, err := runStream(spec, streamOptions{seed: seed, warmup: w.Warmup, window: w.Measure, setups: w.Setups})
	if err != nil {
		return nil, err
	}
	res.EndToEnd, res.Checks, res.Invalid = base.EndToEnd, base.Checks, base.Invalid
	res.OpsAttempted, res.OpsFailed = base.Attempted, base.Failed
	res.ChildProcs = base.ChildGOMAXPROCS
	for k, v := range base.Counters {
		res.PerLayer[k] = v
	}
	if traced {
		// Another seed-derived stream, so the traced run is not a replay of
		// the untraced one's schedule.
		tr, err := runStream(spec, streamOptions{seed: seed + 1<<32, warmup: w.Warmup, window: w.Traced, trace: true, setups: 1})
		if err != nil {
			return nil, err
		}
		for k, v := range tr.Spans {
			res.PerLayer[k] = v
		}
		res.PerLayer.put("trace.overhead_ratio", ratio(tr.ServerCPUMsFrame, base.ServerCPUMsFrame), "ratio")
		for _, c := range tr.Checks {
			c.Name = "traced/" + c.Name
			res.Checks = append(res.Checks, c)
		}
		for _, flag := range tr.Invalid {
			res.Invalid = append(res.Invalid, "traced run: "+flag)
		}
		res.OpsAttempted += tr.Attempted
		res.OpsFailed += tr.Failed
		replay, err := replayLayers(spec.width, spec.height)
		if err != nil {
			return nil, err
		}
		for k, v := range replay {
			res.PerLayer[k] = v
		}
	}
	res.finish()
	return res, nil
}

// finish derives Valid from the checks and the validity flags.
func (r *workloadResult) finish() {
	r.Valid = len(r.Invalid) == 0
	for _, c := range r.Checks {
		if !c.OK {
			r.Valid = false
		}
	}
}

// hostInfo is the fingerprint stamped into every result file: numbers from
// different hosts, core counts or commits are not comparable.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
	Transport  string `json:"transport"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		CPUModel:   "unknown",
		Commit:     "unknown",
		Transport:  "loopback TCP (127.0.0.1); no real link was crossed",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// suiteSet is one pass over every workload.
type suiteSet struct {
	Seed      int64             `json:"seed"`
	Workloads []*workloadResult `json:"workloads"`
}

// suiteReport is the result file.
type suiteReport struct {
	Schema     string     `json:"schema"`
	Comparable bool       `json:"comparable"`
	Quick      bool       `json:"quick"`
	Host       hostInfo   `json:"host"`
	WarmupS    float64    `json:"warmup_s"`
	MeasureS   float64    `json:"measure_s"`
	TracedS    float64    `json:"traced_s"`
	Setups     int        `json:"setups_per_run"`
	Sets       []suiteSet `json:"sets"`
	// Summary is each (workload, metric)'s median, quartiles and spread over
	// the sets.
	Summary []summaryRow `json:"summary"`
}

const resultSchema = "odr-bench/1"

// suiteMain runs every workload, repeat times, and prints and writes the
// result. It fails if any correctness check or validity flag did.
func suiteMain(seed int64, repeat int, w windows, quick bool, outPath string) error {
	rep := &suiteReport{
		Schema: resultSchema, Comparable: !quick, Quick: quick, Host: fingerprint(),
		WarmupS: w.Warmup.Seconds(), MeasureS: w.Measure.Seconds(), TracedS: w.Traced.Seconds(), Setups: w.Setups,
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s kernel=%s commit=%s\n",
		rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Kernel, rep.Host.Commit)
	fmt.Printf("transport: %s\n", rep.Host.Transport)
	fmt.Printf("windows: warm-up %v, measured %v (tracing off), traced %v; %d set-ups per run\n", w.Warmup, w.Measure, w.Traced, w.Setups)
	if quick {
		fmt.Println("QUICK RUN: windows of about a second; these numbers are not comparable with anything")
	}
	var failed []string
	for i := 0; i < max(repeat, 1); i++ {
		set := suiteSet{Seed: seed + int64(i)}
		for _, wl := range workloads {
			res, err := runWorkload(wl.name, set.Seed, w, true, quick)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			fmt.Printf("\n== set %d seed %d ==\n", i+1, set.Seed)
			printWorkload(os.Stdout, res)
			if !res.Valid {
				failed = append(failed, fmt.Sprintf("%s (set %d)", wl.name, i+1))
			}
			set.Workloads = append(set.Workloads, res)
		}
		rep.Sets = append(rep.Sets, set)
	}
	rep.Summary = summarise(rep.Sets)
	if len(rep.Sets) > 1 {
		fmt.Printf("\n== summary over %d sets ==\n", len(rep.Sets))
		printSummary(os.Stdout, rep.Summary)
	}
	if outPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("checks failed or run invalid: %s", strings.Join(failed, ", "))
	}
	return nil
}

// printWorkload prints every metric of one workload by name with its unit
// and sample count.
func printWorkload(w io.Writer, r *workloadResult) {
	state := "valid"
	if !r.Valid {
		state = "INVALID"
	}
	fmt.Fprintf(w, "workload %s: %s, ops_attempted=%d ops_failed=%d\n", r.Name, state, r.OpsAttempted, r.OpsFailed)
	printMetrics(w, "end-to-end", r.EndToEnd)
	printMetrics(w, "per-layer", r.PerLayer)
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-28s %s\n", mark, c.Name, c.Detail)
	}
	for _, flag := range r.Invalid {
		fmt.Fprintf(w, "  invalid: %s\n", flag)
	}
}

func printMetrics(w io.Writer, title string, m metricSet) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %s:\n", title)
	for _, name := range names {
		v := m[name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Fprintf(w, "    %-34s %14.4f %-6s%s\n", name, v.Value, v.Unit, n)
	}
}

// summaryRow is one (workload, metric) over the sets of a file.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	EndToEnd bool    `json:"end_to_end"`
	Runs     int     `json:"runs"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	// Spread is (Q3-Q1)/median, the run-to-run steadiness a bound must clear.
	Spread float64 `json:"spread"`
}

func summarise(sets []suiteSet) []summaryRow {
	type key struct {
		workload, metric string
		e2e              bool
	}
	values := make(map[key][]float64)
	units := make(map[key]string)
	var order []key
	for _, set := range sets {
		for _, wl := range set.Workloads {
			for _, part := range []struct {
				m   metricSet
				e2e bool
			}{{wl.EndToEnd, true}, {wl.PerLayer, false}} {
				for name, v := range part.m {
					k := key{wl.Name, name, part.e2e}
					if _, seen := values[k]; !seen {
						order = append(order, k)
					}
					values[k] = append(values[k], v.Value)
					units[k] = v.Unit
				}
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.e2e != b.e2e {
			return a.e2e
		}
		return a.metric < b.metric
	})
	rows := make([]summaryRow, 0, len(order))
	for _, k := range order {
		q1, med, q3, spread := quartileSpread(values[k])
		rows = append(rows, summaryRow{k.workload, k.metric, units[k], k.e2e, len(values[k]), med, q1, q3, spread})
	}
	return rows
}

// ungatedEndToEnd are the end-to-end metrics BENCHMARK.json does not gate
// (README, "Reported, not gated"). They are stored with the per-layer metrics;
// summaries and comparisons still show them.
var ungatedEndToEnd = map[string]bool{
	"displayed_fps": true, "server_cpu_ms_per_frame": true, "joules_per_frame": true, "server_rss_mb": true,
	"mtp_p50_ms": true, "mtp_p95_ms": true, "frame_gap_p95_ms": true, "fps_target_miss": true,
	"excess_render_ratio": true, "join_p50_ms": true, "join_p90_ms": true, "setup_first_frame_s": true,
}

func printSummary(w io.Writer, rows []summaryRow) {
	fmt.Fprintf(w, "%-16s %-34s %12s %12s %12s %8s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "unit")
	for _, r := range rows {
		if !r.EndToEnd && !ungatedEndToEnd[r.Metric] {
			continue
		}
		fmt.Fprintf(w, "%-16s %-34s %12.4f %12.4f %12.4f %7.1f%%  %s\n", r.Workload, r.Metric, r.Median, r.Q1, r.Q3, 100*r.Spread, r.Unit)
	}
}

// declaration is BENCHMARK.json.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declares reports whether name is one of the declared workloads.
func (d *declaration) declares(name string) bool {
	for _, w := range d.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// loadDeclaration reads BENCHMARK.json from the working directory (the
// checkout root) or, when run from bench/, its parent.
func loadDeclaration() (*declaration, error) {
	var b []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if b, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// compareMain applies BENCHMARK.json's bounds to two result files, row by
// row: worse when the new median is past the bound, unresolved when either
// file's own spread is wider than the bound, ok otherwise. Every ratio is
// printed with its base.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare wants two result files: base new")
	}
	decl, err := loadDeclaration()
	if err != nil {
		return err
	}
	var files [2]suiteReport
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !files[i].Comparable {
			return fmt.Errorf("%s is a -quick run and cannot be compared", path)
		}
	}
	if a, b := files[0].Host, files[1].Host; a.NProc != b.NProc || a.CPUModel != b.CPUModel {
		fmt.Printf("warning: hosts differ (%d x %s vs %d x %s)\n", a.NProc, a.CPUModel, b.NProc, b.CPUModel)
	}
	type key struct{ workload, metric string }
	newRows := make(map[key]summaryRow)
	for _, r := range files[1].Summary {
		newRows[key{r.Workload, r.Metric}] = r
	}
	bounds := make(map[string]declaredMetric)
	for _, d := range decl.EndToEnd {
		bounds[d.Name] = d
	}
	worse := 0
	fmt.Printf("%-16s %-28s %12s %12s %9s %7s  %s\n", "workload", "metric", "base", "new", "change", "bound", "verdict")
	for _, base := range files[0].Summary {
		d, gated := bounds[base.Metric]
		if gated = gated && decl.declares(base.Workload); !gated {
			d = declaredMetric{}
		}
		cur, ok := newRows[key{base.Workload, base.Metric}]
		if !gated && !base.EndToEnd && !ungatedEndToEnd[base.Metric] || !ok {
			continue
		}
		change := ratio(cur.Median-base.Median, base.Median)
		if d.Better == "higher" {
			change = -change
		}
		verdict := "ok"
		switch {
		case !gated:
			verdict = fmt.Sprintf("not gated (spread %.1f%% / %.1f%%)", 100*base.Spread, 100*cur.Spread)
		case base.Spread > d.Bound || cur.Spread > d.Bound:
			verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", 100*base.Spread, 100*cur.Spread)
		case change > d.Bound:
			verdict = "WORSE"
			worse++
		}
		fmt.Printf("%-16s %-28s %12.4f %12.4f %+8.1f%% %6.0f%%  %s\n",
			base.Workload, base.Metric, base.Median, cur.Median, 100*ratio(cur.Median-base.Median, base.Median), 100*d.Bound, verdict)
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse than their bound allows", worse)
	}
	return nil
}
