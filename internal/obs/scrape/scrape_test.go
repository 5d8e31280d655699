package scrape

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
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

// labeledHistogram is a canonical labeled histogram family, the shape a
// Prometheus client library exports for a histogram vector: the obs
// registry itself has no labeled histograms, but the scrape parser reads
// documents from outside it too.
const labeledHistogram = `# HELP odr_tx_us Send time by session.
# TYPE odr_tx_us histogram
odr_tx_us_bucket{session="s1",le="0"} 0
odr_tx_us_bucket{session="s1",le="1"} 0
odr_tx_us_bucket{session="s1",le="3"} 0
odr_tx_us_bucket{session="s1",le="7"} 0
odr_tx_us_bucket{session="s1",le="15"} 0
odr_tx_us_bucket{session="s1",le="31"} 0
odr_tx_us_bucket{session="s1",le="63"} 0
odr_tx_us_bucket{session="s1",le="127"} 0
odr_tx_us_bucket{session="s1",le="255"} 1
odr_tx_us_bucket{session="s1",le="+Inf"} 1
odr_tx_us_sum{session="s1"} 250
odr_tx_us_count{session="s1"} 1
odr_tx_us_bucket{session="s2",le="0"} 1
odr_tx_us_bucket{session="s2",le="1"} 1
odr_tx_us_bucket{session="s2",le="3"} 2
odr_tx_us_bucket{session="s2",le="+Inf"} 2
odr_tx_us_sum{session="s2"} 3
odr_tx_us_count{session="s2"} 2
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

// TestQuantileMatchesServer pins that the scraped-quantile estimator lands
// in the log2 bucket that holds the q-th observation, read off the server's
// own bucket counts.
func TestQuantileMatchesServer(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("odr_q_us")
	for _, v := range []int64{100, 200, 300, 1000, 5000, 9000} {
		h.Observe(v)
	}
	var b bytes.Buffer
	if err := obs.WritePrometheusWith(&b, r, false); err != nil {
		t.Fatal(err)
	}
	s := mustParse(t, b.String())
	buckets := h.Buckets()
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, ok := s.Quantile("odr_q_us", q)
		if !ok {
			t.Fatalf("Quantile(%v) missing", q)
		}
		// Bucket i >= 1 holds [2^(i-1), 2^i) and is exported as le=2^i-1.
		rank := int64(math.Ceil(q * float64(h.Count())))
		var seen int64
		i := 0
		for seen += buckets[i]; seen < rank; seen += buckets[i] {
			i++
		}
		lo, hi := math.Exp2(float64(i-1))-1, math.Exp2(float64(i))-1
		if got <= lo || got > hi {
			t.Errorf("Quantile(%v) = %v, outside the bucket (%v, %v] that holds observation %d", q, got, lo, hi, rank)
		}
	}
	if _, ok := s.Quantile("odr_missing_us", 0.5); ok {
		t.Error("Quantile of a missing family should report !ok")
	}
}

// TestRoundTripByteIdentical is the core contract: for any document the
// obs encoder produces, Parse followed by Write reproduces it exactly. A
// canonical labeled-histogram document from outside the registry round
// trips the same way.
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

	var encoded bytes.Buffer
	if err := obs.WritePrometheusWith(&encoded, r, false); err != nil {
		t.Fatal(err)
	}
	for name, first := range map[string][]byte{"encoder": encoded.Bytes(), "labeled histogram": []byte(labeledHistogram)} {
		s, err := ParseBytes(first)
		if err != nil {
			t.Fatalf("%s: parsing: %v", name, err)
		}
		var second bytes.Buffer
		if err := s.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second.Bytes()) {
			t.Fatalf("%s: round trip not byte-identical:\n--- parsed ---\n%s\n--- re-encoded ---\n%s",
				name, first, second.String())
		}
	}
	s := mustParse(t, labeledHistogram)
	s2 := Label{Name: "session", Value: "s2"}
	if f := s.Family("odr_tx_us"); f == nil || f.Type != "histogram" || len(f.Samples) != 18 {
		t.Fatalf("labeled histogram family = %+v", f)
	}
	if got := s.Number("odr_tx_us_count", s2); got != 2 {
		t.Fatalf("odr_tx_us_count{session=\"s2\"} = %v, want 2", got)
	}
	if q, ok := s.Quantile("odr_tx_us", 0.5, Label{Name: "session", Value: "s1"}); !ok || q < 128 || q > 255 {
		t.Fatalf("s1 median = %v,%v, want within [128, 255]", q, ok)
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

// TestDifferentialInstrumentsVsProm pins the registry's one read path
// against the instruments themselves: every counter, gauge, histogram and
// vector series appears in the parsed exposition with the value its own
// reads return (a histogram compares its count, sum and +Inf bucket), and
// the exposition holds no sample that no instrument accounts for.
func TestDifferentialInstrumentsVsProm(t *testing.T) {
	r := obs.NewRegistry()
	frames := r.Counter("odr_frames_encoded_total")
	frames.Add(894)
	ratio := r.Gauge("odr_dirty_tile_ratio")
	ratio.Set(0.375)
	h := r.Histogram("odr_encode_us")
	for _, v := range []int64{3, 700, 900, 4096} {
		h.Observe(v)
	}
	started := r.CounterVec("odr_sessions_started_total", "s", "policy", "codec_version")
	started.With2("ODR", "2").Add(3)
	started.With2("NoReg", "2").Inc()
	fps := r.GaugeVec("odr_session_fps", "f", "session")
	fps.With1("s1").Set(59.8)
	fps.With1(`we"ird`).Set(0.5)

	var b bytes.Buffer
	if err := obs.WritePrometheusWith(&b, r, false); err != nil {
		t.Fatal(err)
	}
	s := mustParse(t, b.String())

	// Index every scraped sample but the finite histogram buckets by name
	// and label set; each instrument read below claims its sample.
	key := func(name string, labels []Label) string {
		for _, l := range labels {
			name += "," + l.Name + "=" + l.Value
		}
		return name
	}
	scraped := make(map[string]float64)
	for _, f := range s.Families {
		for _, sm := range f.Samples {
			if sm.Name != f.Name+"_bucket" || sm.Label("le") == "+Inf" {
				scraped[key(sm.Name, sm.Labels)] = sm.Value
			}
		}
	}
	checked := 0
	check := func(name string, labels []Label, want float64) {
		t.Helper()
		k := key(name, labels)
		if got, ok := scraped[k]; !ok || got != want {
			t.Errorf("%s: instrument reads %v, /metrics %v (present=%v)", k, want, got, ok)
		}
		delete(scraped, k)
		checked++
	}
	vecLabels := func(names, values []string) []Label {
		out := make([]Label, len(names))
		for i, n := range names {
			out[i] = Label{Name: n, Value: values[i]}
		}
		return out
	}

	check("odr_frames_encoded_total", nil, float64(frames.Value()))
	check(obs.DroppedLabelSetsName, nil, float64(r.DroppedLabelSets().Value()))
	check("odr_dirty_tile_ratio", nil, ratio.Value())
	check("odr_encode_us_bucket", []Label{{Name: "le", Value: "+Inf"}}, float64(h.Count()))
	check("odr_encode_us_sum", nil, float64(h.Sum()))
	check("odr_encode_us_count", nil, float64(h.Count()))
	for _, sr := range started.Series() {
		check(started.Name(), vecLabels(started.Labels(), sr.Values), float64(sr.Inst.Value()))
	}
	for _, sr := range fps.Series() {
		check(fps.Name(), vecLabels(fps.Labels(), sr.Values), sr.Inst.Value())
	}
	for k, v := range scraped {
		t.Errorf("/metrics sample %s = %v has no instrument", k, v)
	}
	// Eight instruments: four plain ones (the histogram read as three
	// samples) and four vector series.
	if checked < 10 {
		t.Fatalf("differential covered only %d samples", checked)
	}
}

// TestFetch: a 200 response parses; any other status is an error.
func TestFetch(t *testing.T) {
	status := http.StatusOK
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
		w.Write([]byte(doc))
	}))
	defer srv.Close()
	s, err := Fetch(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Number("odr_frames_encoded_total"); got != 894 {
		t.Errorf("odr_frames_encoded_total = %v, want 894", got)
	}
	status = http.StatusInternalServerError
	if _, err := Fetch(srv.URL); err == nil {
		t.Error("Fetch of a 500 response returned no error")
	}
}
