package obs

import (
	"fmt"
	"runtime"
	"testing"
)

func TestVecResolvesSameInstrument(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("odr_test_total", "t", "session")
	a := v.With1("s1")
	b := v.With1("s1")
	if a != b {
		t.Fatal("same label set must resolve to the same instrument")
	}
	a.Add(2)
	b.Inc()
	if got := v.With1("s1").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if v.With1("s2") == a {
		t.Fatal("distinct label sets must get distinct instruments")
	}
}

func TestVecKindsIndependent(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeVec("odr_test_ratio", "t", "session").With1("s1")
	g.Set(0.5)
	c := r.CounterVec("odr_test_total", "t", "session").With1("s1")
	c.Add(7)
	if g.Value() != 0.5 || c.Value() != 7 {
		t.Fatalf("gauge=%v counter=%d", g.Value(), c.Value())
	}
}

// TestVecCardinalityBound drives 10k unique session labels through a vec
// and pins the bound: live series never exceed DefaultMaxLabelSets, every
// overflow increments obs_dropped_label_sets_total, and the handles that
// were evicted keep working (writes just stop being exported).
func TestVecCardinalityBound(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("odr_session_fps", "t", "session")
	const churn = 10_000
	first := v.With1("s0")
	for i := 0; i < churn; i++ {
		v.With1(fmt.Sprintf("s%d", i)).Set(float64(i))
	}
	if got := v.Len(); got != DefaultMaxLabelSets {
		t.Fatalf("live label sets = %d, want %d", got, DefaultMaxLabelSets)
	}
	wantDropped := int64(churn - DefaultMaxLabelSets)
	if got := r.DroppedLabelSets().Value(); got != wantDropped {
		t.Fatalf("dropped = %d, want %d", got, wantDropped)
	}
	// The evicted handle stays safe to use.
	first.Set(42)
	// Export stays bounded too.
	if got := len(v.Series()); got != DefaultMaxLabelSets {
		t.Fatalf("exported series = %d, want %d", got, DefaultMaxLabelSets)
	}
}

func TestVecEvictsLeastRecentlyUsed(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("odr_test_total", "t", "session")
	for i := 0; i < DefaultMaxLabelSets; i++ {
		v.With1(fmt.Sprintf("s%d", i))
	}
	v.With1("s0") // refresh s0 so s1 is now the LRU
	v.With1("overflow")
	if v.Len() != DefaultMaxLabelSets {
		t.Fatalf("len = %d", v.Len())
	}
	for _, s := range v.Series() {
		if s.Values[0] == "s1" {
			t.Fatal("s1 should have been evicted as least recently used")
		}
	}
	if r.DroppedLabelSets().Value() != 1 {
		t.Fatalf("dropped = %d, want 1", r.DroppedLabelSets().Value())
	}
}

// TestVecDeleteIsNotADrop pins that the orderly Delete path (session
// detach) frees the series without counting a cardinality overflow.
func TestVecDeleteIsNotADrop(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("odr_session_fps", "t", "session")
	v.With1("s1").Set(60)
	if !v.Delete("s1") {
		t.Fatal("Delete should report the set existed")
	}
	if v.Delete("s1") {
		t.Fatal("second Delete should report absence")
	}
	if v.Len() != 0 {
		t.Fatalf("len = %d after delete", v.Len())
	}
	if got := r.DroppedLabelSets().Value(); got != 0 {
		t.Fatalf("Delete counted as a drop: %d", got)
	}
}

func TestNilVecIsNoop(t *testing.T) {
	var v *CounterVec
	if v.With1("x") != nil || v.Len() != 0 || v.Name() != "" || v.Labels() != nil || v.Series() != nil {
		t.Fatal("nil vec must be inert")
	}
	v.With1("x").Inc() // nil instrument: must not panic
	if v.Delete("x") {
		t.Fatal("nil vec Delete must report false")
	}
	var r *Registry
	if r.CounterVec("n", "h", "l") != nil || r.GaugeVec("n", "h", "l") != nil {
		t.Fatal("nil registry must hand out nil vecs")
	}
}

// TestVecHotPathAllocs pins the zero-allocation contract of the labeled
// hot path: resolving an existing label set (With1/With2) and recording
// through the handle must not allocate.
func TestVecHotPathAllocs(t *testing.T) {
	if runtime.Compiler != "gc" {
		t.Skip("allocation accounting needs the gc compiler")
	}
	r := NewRegistry()
	cv := r.CounterVec("odr_test_total", "t", "tile_outcome")
	gv := r.GaugeVec("odr_test_ratio", "t", "session", "component")
	cv.With1("dirty")
	gv.With2("s1", "render")

	if n := testing.AllocsPerRun(1000, func() { cv.With1("dirty").Inc() }); n != 0 {
		t.Errorf("CounterVec.With1+Inc allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { gv.With2("s1", "render").Set(1) }); n != 0 {
		t.Errorf("GaugeVec.With2+Set allocates %.1f/op, want 0", n)
	}
	h := r.Histogram("odr_test_us")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(17) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op, want 0", n)
	}
}
