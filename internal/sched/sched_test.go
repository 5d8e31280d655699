package sched

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"odr/internal/obs"
	"odr/internal/pictor"
	"odr/internal/pipeline"
	"odr/internal/regulator"
)

func TestMapReturnsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		const n = 1000
		out := Map(workers, n, func(i int) int { return i * i })
		if len(out) != n {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapRunsEachIndexOnce(t *testing.T) {
	const n = 517
	var calls [n]atomic.Int32
	Map(7, n, func(i int) struct{} {
		calls[i].Add(1)
		// Uneven work so stealing actually happens.
		if i%13 == 0 {
			time.Sleep(time.Millisecond)
		}
		return struct{}{}
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if out := Map(4, 0, func(i int) int { return i }); out != nil {
		t.Fatalf("Map over 0 items = %v, want nil", out)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want boom", p)
		}
	}()
	Map(4, 100, func(i int) int {
		if i == 37 {
			panic("boom")
		}
		return i
	})
	t.Fatal("Map returned without panicking")
}

// testCell is a tiny but real simulation cell.
func testCell(seed int64) Cell {
	g := pictor.PlatformGroup{Platform: pictor.PrivateCloud, Resolution: pictor.R720p}
	return Cell{
		PolicyKey: "NoReg",
		Config: pipeline.Config{
			Label:    "NoReg",
			Workload: pictor.IM.Params(),
			Scale:    pictor.Scale(g.Platform, g.Resolution),
			Net:      pictor.Network(g.Platform),
			Policy:   func(ctx *regulator.Ctx) regulator.Policy { return regulator.NewNoReg(ctx) },
			Duration: 2 * time.Second,
			Seed:     seed,
		},
	}
}

func TestCellKeyDiscriminates(t *testing.T) {
	a, ok := CellKey(testCell(1))
	if !ok || a == "" {
		t.Fatal("cell unexpectedly uncacheable")
	}
	b, _ := CellKey(testCell(2))
	if a == b {
		t.Fatal("different seeds hash to the same key")
	}
	c := testCell(1)
	c.PolicyKey = "ODR@60"
	d, _ := CellKey(c)
	if a == d {
		t.Fatal("different policies hash to the same key")
	}
	e, _ := CellKey(testCell(1))
	if a != e {
		t.Fatal("identical cells hash differently")
	}
}

func TestCellKeyUncacheable(t *testing.T) {
	c := testCell(1)
	c.PolicyKey = ""
	if _, ok := CellKey(c); ok {
		t.Fatal("cell without PolicyKey must be uncacheable")
	}
	c = testCell(1)
	c.Config.Trace = &obs.Tracer{}
	if _, ok := CellKey(c); ok {
		t.Fatal("cell with Trace must be uncacheable")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{Workers: 2, Cache: cache})
	cell := testCell(1)

	cold := r.RunOne(cell)
	run, hits, misses := r.Stats()
	if run != 1 || hits != 0 || misses != 1 {
		t.Fatalf("cold stats = run %d hits %d misses %d", run, hits, misses)
	}

	warm := r.RunOne(cell)
	run, hits, misses = r.Stats()
	if run != 1 || hits != 1 || misses != 1 {
		t.Fatalf("warm stats = run %d hits %d misses %d", run, hits, misses)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("cached result differs from the computed one")
	}
}

func TestCacheCorruptArtifactIsAMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cell := testCell(1)
	key, _ := CellKey(cell)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); ok {
		t.Fatal("corrupt artifact served as a hit")
	}
	// The runner must fall back to computing and then repair the entry.
	r := New(Options{Workers: 1, Cache: cache})
	res := r.RunOne(cell)
	if res == nil {
		t.Fatal("nil result")
	}
	if got, ok := cache.Get(key); !ok || !reflect.DeepEqual(got, res) {
		t.Fatal("repaired cache entry missing or wrong")
	}
}

func TestStaleCacheSchemaIsAMiss(t *testing.T) {
	// A policy key ("ODR@60", "Int@60") does not name the algorithm, so only
	// the schema keeps an entry an older algorithm computed from being
	// replayed. Schema 1 entries came from the ODR that paced after encode,
	// schema 2 entries from the Interval with a render grid of its own.
	for _, schema := range []int{1, 2} {
		t.Run(fmt.Sprintf("schema%d", schema), func(t *testing.T) {
			dir := t.TempDir()
			cache, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			cell := testCell(1)
			key, _ := CellKey(cell)
			b, err := json.Marshal(cacheEntry{Schema: schema, Result: New(Options{Workers: 1}).RunOne(cell)})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, key+".json"), b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := cache.Get(key); ok {
				t.Fatalf("schema-%d entry served as a hit", schema)
			}
		})
	}
}

func TestNilCacheAndNilCounters(t *testing.T) {
	// No cache, no metrics: everything must still work.
	r := New(Options{Workers: 2})
	out := r.Run([]Cell{testCell(1), testCell(2)})
	if len(out) != 2 || out[0] == nil || out[1] == nil {
		t.Fatalf("results = %v", out)
	}
	if run, _, _ := r.Stats(); run != 2 {
		t.Fatalf("cells run = %d, want 2", run)
	}
}
