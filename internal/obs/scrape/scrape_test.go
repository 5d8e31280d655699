package scrape

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"odr/internal/obs"
)

const doc = `# HELP odr_frames_encoded_total Frames encoded.
# TYPE odr_frames_encoded_total counter
odr_frames_encoded_total 894
# TYPE odr_session_fps gauge
odr_session_fps{session="s1"} 59.8
odr_session_fps{session="s2"} 30
# TYPE odr_encode_us histogram
odr_encode_us_bucket{le="1"} 1
odr_encode_us_bucket{le="255"} 5
odr_encode_us_bucket{le="+Inf"} 6
odr_encode_us_sum 1000
odr_encode_us_count 6
`

func mustParse(t *testing.T, s string) *Scrape {
	t.Helper()
	p, err := ParseBytes([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBasics(t *testing.T) {
	s := mustParse(t, doc)
	if v, ok := s.Value("odr_frames_encoded_total"); !ok || v != 894 {
		t.Fatalf("counter = %v,%v", v, ok)
	}
	f := s.Family("odr_frames_encoded_total")
	if f == nil || f.Type != "counter" || f.Help != "Frames encoded." {
		t.Fatalf("family = %+v", f)
	}
	if v := s.Number("odr_session_fps", Label{Name: "session", Value: "s2"}); v != 30 {
		t.Fatalf("labeled gauge = %v", v)
	}
	if v := s.Number("odr_session_fps", Label{Name: "session", Value: "nope"}); v != 0 {
		t.Fatalf("missing series should read 0, got %v", v)
	}
	if got := s.SeriesCount("odr_session_fps"); got != 2 {
		t.Fatalf("SeriesCount = %d", got)
	}
	if got := s.LabelValues("odr_session_fps", "session"); len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Fatalf("LabelValues = %v", got)
	}
}

// TestHistogramSamplesJoinFamily pins that _bucket/_sum/_count samples land
// in their histogram family, not in families of their own.
func TestHistogramSamplesJoinFamily(t *testing.T) {
	s := mustParse(t, doc)
	f := s.Family("odr_encode_us")
	if f == nil || f.Type != "histogram" {
		t.Fatalf("family = %+v", f)
	}
	if len(f.Samples) != 5 {
		t.Fatalf("samples = %d, want 5 (_bucket x3, _sum, _count)", len(f.Samples))
	}
	if s.Family("odr_encode_us_bucket") != nil {
		t.Fatal("_bucket must not become its own family")
	}
	if v := s.Number("odr_encode_us_count"); v != 6 {
		t.Fatalf("count sample = %v", v)
	}
}

func TestParseEscapesAndTimestamps(t *testing.T) {
	s := mustParse(t, `m{l="a\"b\\c\nd"} 1 1700000000000`+"\n")
	sm := s.Series("m")
	if len(sm) != 1 {
		t.Fatalf("series = %v", sm)
	}
	if got := sm[0].Label("l"); got != "a\"b\\c\nd" {
		t.Fatalf("unescaped label = %q", got)
	}
	if !sm[0].HasTimestamp || sm[0].Timestamp != 1700000000000 {
		t.Fatalf("timestamp = %+v", sm[0])
	}
}

func TestParseSpecialValues(t *testing.T) {
	s := mustParse(t, "a +Inf\nb -Inf\nc NaN\nd 2.5e3\n")
	if v := s.Number("a"); !math.IsInf(v, 1) {
		t.Fatalf("a = %v", v)
	}
	if v := s.Number("b"); !math.IsInf(v, -1) {
		t.Fatalf("b = %v", v)
	}
	if v, _ := s.Value("c"); !math.IsNaN(v) {
		t.Fatalf("c = %v", v)
	}
	if v := s.Number("d"); v != 2500 {
		t.Fatalf("d = %v", v)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"1leading_digit 3\n",
		"name{unterminated=\"x\" 3\n",
		"name{l=unquoted} 3\n",
		"name{l=\"dangling\\\n",
		"name notanumber\n",
		"name 1 2 3\n",
		"# TYPE m sometype\n",
	} {
		if _, err := ParseBytes([]byte(bad)); err == nil {
			t.Errorf("ParseBytes(%q) accepted garbage", bad)
		}
	}
}

// TestQuantileMatchesServer pins that the scraped-quantile estimator
// reproduces obs.Histogram.Quantile from the exported buckets (modulo the
// min/max clamp the server applies with information the scrape lacks).
func TestQuantileMatchesServer(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("odr_q_us")
	for _, v := range []int64{100, 200, 300, 1000, 5000, 9000} {
		h.Observe(v)
	}
	var b bytes.Buffer
	if err := obs.WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	s := mustParse(t, b.String())
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, ok := s.Quantile("odr_q_us", q)
		if !ok {
			t.Fatalf("Quantile(%v) missing", q)
		}
		want := h.Quantile(q)
		// Same bucket, same geometric midpoint — but the server clamps to
		// the true min/max, which the exposition doesn't carry. Both land
		// in the same log2 bucket, so they agree within a factor of 2.
		if got < want/2 || got > want*2 {
			t.Errorf("Quantile(%v) = %v, server says %v", q, got, want)
		}
	}
	if _, ok := s.Quantile("odr_missing_us", 0.5); ok {
		t.Error("Quantile of a missing family should report !ok")
	}
}

// TestRoundTripByteIdentical is the core contract: for any document the
// obs encoder produces, Parse followed by Write reproduces it exactly.
func TestRoundTripByteIdentical(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("odr_frames_encoded_total").Add(894)
	r.SetHelp("odr_frames_encoded_total", "Frames encoded.")
	r.Gauge("odr_dirty_tile_ratio").Set(0.375)
	h := r.Histogram("odr_encode_us")
	for _, v := range []int64{0, 1, 3, 900, 4096, 1 << 40} {
		h.Observe(v)
	}
	r.CounterVec("odr_sessions_started_total", "Sessions.", "policy", "codec_version").With2("ODR", "2").Add(3)
	r.GaugeVec("odr_session_fps", "FPS.", "session").With1(`we"ird\la
bel`).Set(59.8)
	r.HistogramVec("odr_tx_us", "Send.", "session").With1("s1").Observe(250)

	var first bytes.Buffer
	if err := obs.WritePrometheus(&first, r); err != nil {
		t.Fatal(err)
	}
	s, err := ParseBytes(first.Bytes())
	if err != nil {
		t.Fatalf("parsing our own exposition: %v", err)
	}
	var second bytes.Buffer
	if err := s.Write(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not byte-identical:\n--- encoded ---\n%s\n--- re-encoded ---\n%s",
			first.String(), second.String())
	}
}

// TestWriteIsFixedPoint pins idempotence for foreign documents too: once
// canonicalized by Write, another Parse+Write changes nothing.
func TestWriteIsFixedPoint(t *testing.T) {
	// Deliberately non-canonical spacing and an ignored comment.
	in := "# a freeform comment\nm{ a = \"1\" , b = \"2\" } 3.50 7\nn 2\n"
	s := mustParse(t, in)
	var once bytes.Buffer
	if err := s.Write(&once); err != nil {
		t.Fatal(err)
	}
	s2 := mustParse(t, once.String())
	var twice bytes.Buffer
	if err := s2.Write(&twice); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once.Bytes(), twice.Bytes()) {
		t.Fatalf("Write not a fixed point:\n%q\nvs\n%q", once.String(), twice.String())
	}
	if !strings.Contains(once.String(), `m{a="1",b="2"} 3.5 7`) {
		t.Fatalf("canonicalization unexpected: %q", once.String())
	}
}

// TestDifferentialJSONVsProm pins that the two export surfaces of one
// registry agree: every instrument in the JSON snapshot appears in the
// Prometheus exposition with the same value (histograms compare their
// count and sum).
func TestDifferentialJSONVsProm(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("odr_frames_encoded_total").Add(894)
	r.Gauge("odr_dirty_tile_ratio").Set(0.375)
	h := r.Histogram("odr_encode_us")
	for _, v := range []int64{3, 700, 900, 4096} {
		h.Observe(v)
	}
	r.CounterVec("odr_sessions_started_total", "s", "policy", "codec_version").With2("ODR", "2").Add(3)
	r.GaugeVec("odr_session_fps", "f", "session").With1("s1").Set(59.8)
	r.HistogramVec("odr_tx_us", "t", "session").With1("s1").Observe(250)

	var b bytes.Buffer
	if err := obs.WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	s := mustParse(t, b.String())

	// Index every scraped sample under the same name{l="v"} key shape the
	// JSON snapshot uses for vector series.
	scraped := make(map[string]float64)
	for _, f := range s.Families {
		for _, sm := range f.Samples {
			key := sm.Name
			if len(sm.Labels) > 0 {
				key += "{"
				for i, l := range sm.Labels {
					if i > 0 {
						key += ","
					}
					key += l.Name + `="` + obs.EscapeLabelValue(l.Value) + `"`
				}
				key += "}"
			}
			scraped[key] = sm.Value
		}
	}

	snap := r.Snapshot()
	checked := 0
	for name, v := range snap {
		switch v := v.(type) {
		case int64:
			if got, ok := scraped[name]; !ok || got != float64(v) {
				t.Errorf("%s: JSON %d vs prom %v (present=%v)", name, v, got, ok)
			}
		case float64:
			if got, ok := scraped[name]; !ok || got != v {
				t.Errorf("%s: JSON %v vs prom %v (present=%v)", name, v, got, ok)
			}
		case obs.HistogramSnapshot:
			// name may itself be a series key name{labels}: splice the
			// histogram suffix onto the bare name.
			base, labels := name, ""
			if i := strings.IndexByte(name, '{'); i >= 0 {
				base, labels = name[:i], name[i:]
			}
			if got := scraped[base+"_count"+labels]; got != float64(v.Count) {
				t.Errorf("%s count: JSON %d vs prom %v", name, v.Count, got)
			}
			if got := scraped[base+"_sum"+labels]; got != float64(v.Sum) {
				t.Errorf("%s sum: JSON %d vs prom %v", name, v.Sum, got)
			}
		default:
			t.Errorf("%s: unexpected snapshot type %T", name, v)
		}
		checked++
	}
	if checked < 6 {
		t.Fatalf("differential covered only %d instruments", checked)
	}
}
