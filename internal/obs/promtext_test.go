package obs

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// populated builds a registry exercising every instrument kind, including
// labeled vectors and a label value that needs escaping.
func populated() *Registry {
	r := NewRegistry()
	r.Counter("odr_frames_encoded_total").Add(894)
	r.SetHelp("odr_frames_encoded_total", "Frames encoded.")
	r.Gauge("odr_dirty_tile_ratio").Set(0.375)
	h := r.Histogram("odr_encode_us")
	for _, v := range []int64{0, 1, 2, 3, 700, 900, 4096} {
		h.Observe(v)
	}
	r.CounterVec("odr_sessions_started_total", "Sessions by policy.", "policy", "codec_version").
		With2("ODR", "2").Add(3)
	r.GaugeVec("odr_session_fps", "Delivered FPS.", "session").With1("s1").Set(59.8)
	r.GaugeVec("odr_session_fps", "", "session").With1(`we"ird\la
bel`).Set(1)
	return r
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:           "0",
		894:         "894",
		-3:          "-3",
		0.375:       "0.375",
		1 << 53:     "9007199254740992",
		math.Inf(1): "+Inf",
	}
	for in, want := range cases {
		if got := FormatValue(in); got != want {
			t.Errorf("FormatValue(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatValue(math.NaN()); got != "NaN" {
		t.Errorf("FormatValue(NaN) = %q", got)
	}
}

func TestWritePrometheusShape(t *testing.T) {
	var b bytes.Buffer
	if err := WritePrometheusWith(&b, populated(), false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE odr_frames_encoded_total counter",
		"# HELP odr_frames_encoded_total Frames encoded.",
		"odr_frames_encoded_total 894",
		"odr_dirty_tile_ratio 0.375",
		"# TYPE odr_encode_us histogram",
		`odr_encode_us_bucket{le="0"} 1`,
		`odr_encode_us_bucket{le="+Inf"} 7`,
		"odr_encode_us_sum 5702",
		"odr_encode_us_count 7",
		`odr_sessions_started_total{policy="ODR",codec_version="2"} 3`,
		`odr_session_fps{session="s1"} 59.8`,
		`odr_session_fps{session="we\"ird\\la\nbel"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Families must come out sorted by name.
	var last string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if name < last {
			t.Fatalf("families not sorted: %q after %q", name, last)
		}
		last = name
	}
}

// TestHistogramBucketsCumulative pins the le-bound mapping of the log2
// buckets: bucket i covers [2^(i-1), 2^i), so its inclusive bound is
// 2^i - 1, and the cumulative counts are non-decreasing up to +Inf.
func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("odr_test_us")
	h.Observe(1) // bucket 1, le="1"
	h.Observe(2) // bucket 2, le="3"
	h.Observe(3) // bucket 2
	h.Observe(8) // bucket 4, le="15"
	var b bytes.Buffer
	if err := WritePrometheusWith(&b, r, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`odr_test_us_bucket{le="1"} 1`,
		`odr_test_us_bucket{le="3"} 3`,
		`odr_test_us_bucket{le="7"} 3`,
		`odr_test_us_bucket{le="15"} 4`,
		`odr_test_us_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, `le="31"`) {
		t.Errorf("trailing empty buckets should collapse into +Inf\n%s", out)
	}
}

func TestPromHandlerServesRuntimeFamilies(t *testing.T) {
	rec := httptest.NewRecorder()
	PromHandler(populated()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, PromContentType)
	}
	out := rec.Body.String()
	for _, want := range []string{"odr_build_info{", "go_goroutines ", "go_memstats_heap_alloc_bytes "} {
		if !strings.Contains(out, want) {
			t.Errorf("handler output missing %q", want)
		}
	}
}
