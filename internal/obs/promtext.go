package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// This file is the dependency-free Prometheus text-exposition (version
// 0.0.4) encoder for a Registry: counters and gauges map 1:1, the log2
// histograms map to cumulative _bucket/_sum/_count series, and vector
// instruments map to labeled series. The output is canonical — families
// sorted by name, series sorted by label values, one fixed value
// formatting — so encode -> parse (internal/obs/scrape) -> encode is
// byte-identical, which the round-trip tests pin.

// PromContentType is the Content-Type of the /metrics response.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// FormatValue renders a sample value canonically: integral values within
// the float64-exact range print as integers, everything else in Go 'g'
// form; ±Inf and NaN use the Prometheus spellings.
func FormatValue(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	case math.IsNaN(f):
		return "NaN"
	}
	if f == math.Trunc(f) && math.Abs(f) <= 1<<53 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// EscapeLabelValue is the exported escaping helper (shared with the
// scrape re-encoder).
func EscapeLabelValue(v string) string { return escapeLabelValue(v) }

// promFamily is one family ready to encode.
type promFamily struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"
	rows []promRow
}

// promRow is one sample line: an optional label block and a value, or a
// pre-rendered histogram block.
type promRow struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels string // rendered `a="b",c="d"` (no braces), "" for none
	value  float64
}

// renderLabels joins label names/values into the canonical block.
func renderLabels(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// histRows renders one histogram as cumulative bucket/sum/count rows.
// Bucket i of the log2 histogram covers [2^(i-1), 2^i) over integer
// observations, so its inclusive upper bound is 2^i - 1; bucket 0 holds
// values <= 0 and exports as le="0". Trailing all-zero buckets collapse
// into le="+Inf".
func histRows(h *Histogram) []promRow {
	buckets := h.Buckets()
	top := 0
	for i, c := range buckets {
		if c != 0 {
			top = i
		}
	}
	rows := make([]promRow, 0, top+4)
	var cum int64
	if h.Count() > 0 {
		for i := 0; i <= top; i++ {
			cum += buckets[i]
			var le string
			if i == 0 {
				le = "0"
			} else if i == 64 {
				le = strconv.FormatUint(math.MaxUint64, 10)
			} else {
				le = strconv.FormatUint(1<<uint(i)-1, 10)
			}
			rows = append(rows, promRow{suffix: "_bucket", labels: `le="` + le + `"`, value: float64(cum)})
		}
	}
	rows = append(rows,
		promRow{suffix: "_bucket", labels: `le="+Inf"`, value: float64(h.Count())},
		promRow{suffix: "_sum", value: float64(h.Sum())},
		promRow{suffix: "_count", value: float64(h.Count())},
	)
	return rows
}

// collectFamilies snapshots r into encode-ready families (sorted).
func collectFamilies(r *Registry) []promFamily {
	if r == nil {
		return nil
	}
	var fams []promFamily
	r.mu.Lock()
	for name, c := range r.counters {
		fams = append(fams, promFamily{name: name, help: r.help[name], typ: "counter",
			rows: []promRow{{value: float64(c.Value())}}})
	}
	for name, g := range r.gauges {
		fams = append(fams, promFamily{name: name, help: r.help[name], typ: "gauge",
			rows: []promRow{{value: g.Value()}}})
	}
	for name, h := range r.histograms {
		fams = append(fams, promFamily{name: name, help: r.help[name], typ: "histogram",
			rows: histRows(h)})
	}
	for name, v := range r.counterVecs {
		fam := promFamily{name: name, help: r.help[name], typ: "counter"}
		for _, s := range v.Series() {
			fam.rows = append(fam.rows, promRow{labels: renderLabels(v.Labels(), s.Values), value: float64(s.Inst.Value())})
		}
		if len(fam.rows) > 0 {
			fams = append(fams, fam)
		}
	}
	for name, v := range r.gaugeVecs {
		fam := promFamily{name: name, help: r.help[name], typ: "gauge"}
		for _, s := range v.Series() {
			fam.rows = append(fam.rows, promRow{labels: renderLabels(v.Labels(), s.Values), value: s.Inst.Value()})
		}
		if len(fam.rows) > 0 {
			fams = append(fams, fam)
		}
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// runtimeFamilies reports the Go runtime and build-identity families the
// /metrics endpoint appends: goroutine count, key memstats, GC cycles and
// odr_build_info.
func runtimeFamilies() []promFamily {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return []promFamily{
		{name: "go_gc_cycles_total", help: "Completed GC cycles.", typ: "counter",
			rows: []promRow{{value: float64(ms.NumGC)}}},
		{name: "go_goroutines", help: "Live goroutines.", typ: "gauge",
			rows: []promRow{{value: float64(runtime.NumGoroutine())}}},
		{name: "go_memstats_alloc_bytes_total", help: "Cumulative bytes allocated on the heap.", typ: "counter",
			rows: []promRow{{value: float64(ms.TotalAlloc)}}},
		{name: "go_memstats_heap_alloc_bytes", help: "Heap bytes allocated and in use.", typ: "gauge",
			rows: []promRow{{value: float64(ms.HeapAlloc)}}},
		{name: "go_memstats_heap_objects", help: "Allocated heap objects.", typ: "gauge",
			rows: []promRow{{value: float64(ms.HeapObjects)}}},
		{name: "go_memstats_sys_bytes", help: "Bytes obtained from the OS.", typ: "gauge",
			rows: []promRow{{value: float64(ms.Sys)}}},
		{name: "odr_build_info", help: "Build identity (value is always 1).", typ: "gauge",
			rows: []promRow{{labels: renderLabels(
				[]string{"go_version", "goarch", "goos"},
				[]string{runtime.Version(), runtime.GOARCH, runtime.GOOS}), value: 1}}},
	}
}

// writeFamilies encodes families (already sorted) to w.
func writeFamilies(w io.Writer, fams []promFamily) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(strings.ReplaceAll(f.help, "\n", " "))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.typ)
		bw.WriteByte('\n')
		for _, row := range f.rows {
			bw.WriteString(f.name)
			bw.WriteString(row.suffix)
			if row.labels != "" {
				bw.WriteByte('{')
				bw.WriteString(row.labels)
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(FormatValue(row.value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// WritePrometheusWith encodes every instrument of r in the Prometheus text
// exposition format, plus, when runtimeStats is set, the Go runtime and
// odr_build_info families — what the /metrics endpoint serves.
func WritePrometheusWith(w io.Writer, r *Registry, runtimeStats bool) error {
	fams := collectFamilies(r)
	if runtimeStats {
		fams = append(fams, runtimeFamilies()...)
		sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	}
	return writeFamilies(w, fams)
}

// PromHandler returns the /metrics HTTP handler for r.
func PromHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		_ = WritePrometheusWith(w, r, true)
	})
}
