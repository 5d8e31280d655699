package obs_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"odr/internal/obs"
)

func TestCounterAndGauge(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("frames_rendered")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("frames_rendered") != c {
		t.Fatal("get-or-create returned a different counter")
	}
	g := r.Gauge("fps")
	g.Set(59.7)
	if g.Value() != 59.7 {
		t.Fatalf("gauge = %v, want 59.7", g.Value())
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *obs.Registry
	c := r.Counter("x")
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter recorded")
	}
	g := r.Gauge("y")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge recorded")
	}
	h := r.Histogram("z")
	h.Observe(10)
	if h.Count() != 0 || h.Sum() != 0 || h.Buckets() != [65]int64{} {
		t.Fatal("nil histogram recorded")
	}
	var b bytes.Buffer
	if err := obs.WritePrometheusWith(&b, r, false); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry exposition = %q, %v; want empty", b.String(), err)
	}
}

func TestHistogramBasics(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("lat_us")
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 1106 {
		t.Fatalf("sum = %d, want 1106", h.Sum())
	}
	// Bucket i >= 1 holds [2^(i-1), 2^i): 1 in bucket 1, 2 and 3 in bucket 2,
	// 100 in bucket 7 ([64, 128)) and 1000 in bucket 10 ([512, 1024)).
	want := map[int]int64{1: 1, 2: 2, 7: 1, 10: 1}
	for i, n := range h.Buckets() {
		if n != want[i] {
			t.Fatalf("bucket %d holds %d observations, want %d", i, n, want[i])
		}
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("h")
	h.Observe(0)
	h.Observe(-5)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	// Non-positive values share bucket 0, and the sum keeps their sign.
	if b := h.Buckets(); b[0] != 2 {
		t.Fatalf("bucket 0 holds %d observations, want 2", b[0])
	}
	if h.Sum() != -5 {
		t.Fatalf("sum = %d, want -5", h.Sum())
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("d")
	h.ObserveDuration(3 * time.Millisecond)
	if h.Sum() != 3000 {
		t.Fatalf("sum = %d µs, want 3000", h.Sum())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("c")
	const workers = 8
	const per = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				h.Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if want := int64(workers * per * (per + 1) / 2); h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	var inBuckets int64
	for _, n := range h.Buckets() {
		inBuckets += n
	}
	if inBuckets != workers*per {
		t.Fatalf("buckets hold %d observations, want %d", inBuckets, workers*per)
	}
}

// TestFamiliesListsEveryRegistration: Families names every family once,
// sorted, a labeled one from its registration on, before it has a series.
func TestFamiliesListsEveryRegistration(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("b_total")
	r.Gauge("c")
	r.Histogram("a_us")
	r.CounterVec("d_total", "help", "lane")
	r.GaugeVec("e", "help", "session")
	r.Counter("b_total")
	want := []string{"a_us", "b_total", "c", "d_total", "e", obs.DroppedLabelSetsName}
	if got := r.Families(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Families = %v, want %v", got, want)
	}
	if (*obs.Registry)(nil).Families() != nil {
		t.Fatal("a nil registry lists families")
	}
}

// TestRegistryExportsEveryFamilySorted: a registry's one read path, the
// Prometheus exposition, lists every registered family once, sorted by
// name, and always includes the obs_dropped_label_sets_total self-metric.
func TestRegistryExportsEveryFamilySorted(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("frames").Add(10)
	r.Gauge("fps").Set(60)
	r.Histogram("render_us").Observe(5000)
	var buf bytes.Buffer
	if err := obs.WritePrometheusWith(&buf, r, false); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			names = append(names, f[2])
		}
	}
	want := []string{"fps", "frames", obs.DroppedLabelSetsName, "render_us"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("families = %v, want %v\n%s", names, want, buf.String())
	}
	for _, line := range []string{"frames 10", "fps 60", "render_us_count 1", obs.DroppedLabelSetsName + " 0"} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("exposition missing %q\n%s", line, buf.String())
		}
	}
}
