package obs_test

import (
	"bytes"
	"math"
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
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
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
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d, want 1/1000", h.Min(), h.Max())
	}
	if m := h.Mean(); math.Abs(m-221.2) > 1e-9 {
		t.Fatalf("mean = %v, want 221.2", m)
	}
	// The p99 observation is 1000, in bucket [512, 1024); the estimate is
	// the bucket's geometric midpoint, within a factor of sqrt(2) of truth.
	if p := h.Quantile(0.99); p < 512 || p > 1024 {
		t.Fatalf("p99 = %v, want within [512, 1024]", p)
	}
	// The median of {1,2,3,100,1000} is 3; the log-bucket estimate must be
	// within a factor of sqrt(2) of the bucket bounds around it.
	if p := h.Quantile(0.5); p < 2 || p > 4 {
		t.Fatalf("p50 = %v, want within [2,4]", p)
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
	if h.Min() != -5 {
		t.Fatalf("min = %d, want -5", h.Min())
	}
	// Non-positive values share bucket 0; the estimate is clamped into the
	// observed [min, max] range.
	if p := h.Quantile(0.5); p < -5 || p > 0 {
		t.Fatalf("p50 = %v, want within [-5, 0]", p)
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
	if h.Min() != 1 || h.Max() != per {
		t.Fatalf("min/max = %d/%d, want 1/%d", h.Min(), h.Max(), per)
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
