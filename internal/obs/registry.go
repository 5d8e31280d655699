package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter is
// valid and ignores writes (the disabled fast path).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value. A nil *Gauge is valid
// and ignores writes.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of log2 buckets: enough for the full range of
// a uint64 value plus a dedicated <=0 bucket.
const histBuckets = 65

// Histogram is a log2-bucketed histogram of non-negative values with O(1)
// lock-free Observe — the hot-path replacement for metrics.Dist, whose
// percentile queries sort every sample. Values are recorded in an
// arbitrary integer unit chosen by the caller (ObserveDuration uses
// microseconds); bucket i (i >= 1) covers [2^(i-1), 2^i), and bucket 0
// holds values <= 0. It keeps exactly what /metrics exports: buckets, count
// and sum. A nil *Histogram is valid and ignores writes.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value in O(1): one bucket increment plus the count
// and sum updates, no sorting, no allocation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records d in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(int64(d / time.Microsecond))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns a copy of the raw log2 bucket counts: index 0 holds
// values <= 0, index i >= 1 holds [2^(i-1), 2^i). The copy is not an
// atomic snapshot across buckets — fine for export, not for invariants
// against concurrent writers.
func (h *Histogram) Buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	if h == nil {
		return out
	}
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Registry is a named collection of counters, gauges, histograms and
// labeled counter and gauge vectors. Instrument lookup (Counter/Gauge/
// Histogram/...Vec) takes the registry lock and is meant for setup time;
// the returned instruments are then recorded to lock-free on hot paths.
// A nil *Registry is valid: it returns nil instruments, whose methods are
// no-ops. Its values are read out only as the Prometheus text exposition
// (WritePrometheusWith, PromHandler); Families lists its family names.
//
// Names follow the odr_<subsystem>_<noun>_<unit> convention (see Lint).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec

	help map[string]string // family name -> help text

	// dropped is the registry-wide obs_dropped_label_sets_total
	// self-metric, shared by every vector for cardinality-overflow
	// eviction accounting.
	dropped *Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		histograms:  make(map[string]*Histogram),
		counterVecs: make(map[string]*CounterVec),
		gaugeVecs:   make(map[string]*GaugeVec),
		help:        make(map[string]string),
	}
	r.dropped = &Counter{}
	r.counters[DroppedLabelSetsName] = r.dropped
	r.help[DroppedLabelSetsName] = "Label sets evicted from vector instruments after hitting the cardinality bound."
	return r
}

// SetHelp attaches help text to a family name; the Prometheus encoder
// emits it as the # HELP line.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// CounterVec returns the named labeled counter family, creating it on
// first use with the given label names (at most MaxLabels; later lookups
// ignore the labels argument).
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.counterVecs[name]
	if v == nil {
		v = newVec(name, help, labels, 0, r.dropped, func() *Counter { return &Counter{} })
		r.counterVecs[name] = v
		if help != "" {
			r.help[name] = help
		}
	}
	return v
}

// GaugeVec returns the named labeled gauge family, creating it on first
// use.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.gaugeVecs[name]
	if v == nil {
		v = newVec(name, help, labels, 0, r.dropped, func() *Gauge { return &Gauge{} })
		r.gaugeVecs[name] = v
		if help != "" {
			r.help[name] = help
		}
	}
	return v
}

// DroppedLabelSets returns the cardinality-overflow self-metric.
func (r *Registry) DroppedLabelSets() *Counter {
	if r == nil {
		return nil
	}
	return r.dropped
}

// Families returns the name of every family registered in r, sorted. A
// labeled family counts from its registration, before it has a series (the
// exposition shows it only once it has one).
func (r *Registry) Families() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for name := range r.counters {
		names = append(names, name)
	}
	for name := range r.gauges {
		names = append(names, name)
	}
	for name := range r.histograms {
		names = append(names, name)
	}
	for name := range r.counterVecs {
		names = append(names, name)
	}
	for name := range r.gaugeVecs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
