package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// MaxLabels is the most label dimensions a vector instrument supports.
// Three is enough for every series this system exports (session, policy,
// component) while keeping the lookup key a fixed-size array — a map key
// that needs no allocation to build on the hot path.
const MaxLabels = 3

// DefaultMaxLabelSets bounds the per-vector cardinality: once a vector
// holds this many live label sets, registering another evicts the least
// recently used one and increments the obs_dropped_label_sets_total
// self-metric. Sessions churn (every reconnect mints a new session id), so
// without a bound a long-lived server would leak one series per session
// ever seen.
const DefaultMaxLabelSets = 256

// DroppedLabelSetsName is the self-metric counting label-set evictions
// across all vectors of a registry.
const DroppedLabelSetsName = "obs_dropped_label_sets_total"

// labelKey is a vector's lookup key: the label values padded with empty
// strings to MaxLabels. A fixed-size array keys the map without allocating.
type labelKey [MaxLabels]string

// vecEntry pairs one label set's instrument with its LRU stamp.
type vecEntry[I any] struct {
	inst *I
	vals labelKey
	use  atomic.Int64
}

// Vec is a family of instruments of one name distinguished by label
// values — the labeled counterpart of a single Counter or Gauge.
// Lookup (With/With1/...) takes a read lock and is allocation-free for
// label sets that already exist; hot paths should resolve the instrument
// once per session and record through the returned handle lock-free.
// Cardinality is bounded: see DefaultMaxLabelSets. A nil *Vec is valid and
// returns nil instruments, whose methods are no-ops.
type Vec[I any] struct {
	name    string
	help    string
	labels  []string
	newInst func() *I
	maxSets int
	dropped *Counter // registry-wide obs_dropped_label_sets_total
	clock   atomic.Int64
	mu      sync.RWMutex
	m       map[labelKey]*vecEntry[I]
}

// CounterVec and GaugeVec are the concrete vector kinds.
type (
	CounterVec = Vec[Counter]
	GaugeVec   = Vec[Gauge]
)

// newVec builds a vector (registry-internal).
func newVec[I any](name, help string, labels []string, maxSets int, dropped *Counter, newInst func() *I) *Vec[I] {
	if maxSets <= 0 {
		maxSets = DefaultMaxLabelSets
	}
	if len(labels) > MaxLabels {
		labels = labels[:MaxLabels]
	}
	return &Vec[I]{
		name:    name,
		help:    help,
		labels:  labels,
		newInst: newInst,
		maxSets: maxSets,
		dropped: dropped,
		m:       make(map[labelKey]*vecEntry[I]),
	}
}

// Name returns the family name ("" for nil).
func (v *Vec[I]) Name() string {
	if v == nil {
		return ""
	}
	return v.name
}

// Labels returns the label names (nil for a nil vec).
func (v *Vec[I]) Labels() []string {
	if v == nil {
		return nil
	}
	return v.labels
}

// Len returns the number of live label sets.
func (v *Vec[I]) Len() int {
	if v == nil {
		return 0
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.m)
}

// With1 resolves the instrument for a one-label set. The fast path (label
// set already registered) is a read-locked map lookup plus an atomic LRU
// touch: zero allocations.
func (v *Vec[I]) With1(a string) *I { return v.with(labelKey{a}) }

// With2 resolves a two-label set.
func (v *Vec[I]) With2(a, b string) *I { return v.with(labelKey{a, b}) }

// With resolves the instrument for the given label values (padded or
// truncated to the vector's label names). Prefer With1/With2 on hot
// paths — the variadic slice may allocate.
func (v *Vec[I]) With(vals ...string) *I {
	var k labelKey
	copy(k[:], vals)
	return v.with(k)
}

func (v *Vec[I]) with(k labelKey) *I {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	if e := v.m[k]; e != nil {
		e.use.Store(v.clock.Add(1))
		v.mu.RUnlock()
		return e.inst
	}
	v.mu.RUnlock()

	v.mu.Lock()
	defer v.mu.Unlock()
	if e := v.m[k]; e != nil { // lost the race to another creator
		e.use.Store(v.clock.Add(1))
		return e.inst
	}
	if len(v.m) >= v.maxSets {
		v.evictLRU()
	}
	e := &vecEntry[I]{inst: v.newInst(), vals: k}
	e.use.Store(v.clock.Add(1))
	v.m[k] = e
	return e.inst
}

// evictLRU removes the least recently used label set (write lock held).
// The evicted instrument keeps working for holders of its handle; it just
// stops being exported. Every eviction is a cardinality overflow and
// counts against obs_dropped_label_sets_total.
func (v *Vec[I]) evictLRU() {
	var victim labelKey
	var found bool
	min := int64(1<<63 - 1)
	for k, e := range v.m {
		if u := e.use.Load(); u < min {
			min, victim, found = u, k, true
		}
	}
	if found {
		delete(v.m, victim)
		v.dropped.Inc()
	}
}

// Delete removes one label set (e.g. on session detach), freeing its
// series without counting a cardinality drop. It reports whether the set
// existed.
func (v *Vec[I]) Delete(vals ...string) bool {
	if v == nil {
		return false
	}
	var k labelKey
	copy(k[:], vals)
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.m[k]; !ok {
		return false
	}
	delete(v.m, k)
	return true
}

// VecSeries is one exported (label set, instrument) pair.
type VecSeries[I any] struct {
	Values []string // label values, aligned with Vec.Labels()
	Inst   *I
}

// Series returns the live label sets sorted by label values, for export.
func (v *Vec[I]) Series() []VecSeries[I] {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	out := make([]VecSeries[I], 0, len(v.m))
	for _, e := range v.m {
		vals := make([]string, len(v.labels))
		copy(vals, e.vals[:])
		out = append(out, VecSeries[I]{Values: vals, Inst: e.inst})
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Values, out[j].Values
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	return out
}
