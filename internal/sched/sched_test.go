package sched

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

func TestStaleBuildIsAMiss(t *testing.T) {
	// A policy key ("ODR@60", "Int@60") does not name the algorithm, so only
	// the build an entry records keeps an older algorithm's numbers from
	// being replayed: an entry another executable wrote, or one in the
	// format that versioned entries by a hand-kept schema number, misses,
	// and the same entry stamped with this executable's hash hits.
	cell := testCell(1)
	key, _ := CellKey(cell)
	res := New(Options{Workers: 1}).RunOne(cell)
	for _, tc := range []struct {
		name  string
		entry any
		hit   bool
	}{
		{"other-build", cacheEntry{Build: strings.Repeat("0", 64), Result: res}, false},
		{"schema-entry", struct {
			Schema int              `json:"schema"`
			Result *pipeline.Result `json:"result"`
		}{5, res}, false},
		{"this-build", cacheEntry{Build: executableSum(), Result: res}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(tc.entry)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, key+".json"), b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := cache.Get(key); ok != tc.hit {
				t.Fatalf("Get hit = %v, want %v", ok, tc.hit)
			}
		})
	}
}

func TestUnreadableExecutableTurnsTheCacheOff(t *testing.T) {
	dir := t.TempDir()
	cache := &Cache{dir: dir} // what OpenCache returns when the executable cannot be read
	cell := testCell(1)
	key, _ := CellKey(cell)
	r := New(Options{Workers: 1, Cache: cache})
	r.RunOne(cell)
	r.RunOne(cell)
	if run, hits, _ := r.Stats(); run != 2 || hits != 0 {
		t.Fatalf("stats = run %d hits %d, want every cell run", run, hits)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("cache without a build wrote %d files", len(entries))
	}
	// Not even an entry whose build field is empty too.
	b, err := json.Marshal(cacheEntry{Result: r.RunOne(cell)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); ok {
		t.Fatal("cache without a build served a hit")
	}
}

// TestCellKeyKeysEveryConfigField changes each exported pipeline.Config
// field in turn, nested struct fields included, and wants a new key every
// time: a field added later is keyed without a list to keep up to date.
// Policy, Source and Trace are not keyed (the PolicyKey names the policy;
// a Source or Trace makes the cell uncacheable).
func TestCellKeyKeysEveryConfigField(t *testing.T) {
	base, ok := CellKey(testCell(1))
	if !ok {
		t.Fatal("cell unexpectedly uncacheable")
	}
	unkeyed := map[string]bool{"Policy": true, "Source": true, "Trace": true}
	changed := 0
	var walk func(path string, typ reflect.Type, index []int)
	walk = func(path string, typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := path + f.Name
			idx := append(append([]int(nil), index...), i)
			if !f.IsExported() || (path == "" && unkeyed[f.Name]) {
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				walk(name+".", f.Type, idx)
				continue
			}
			c := testCell(1)
			v := reflect.ValueOf(&c.Config).Elem().FieldByIndex(idx)
			switch v.Kind() {
			case reflect.String:
				v.SetString(v.String() + "x")
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Float32, reflect.Float64:
				v.SetFloat(v.Float()*2 + 1)
			default:
				t.Fatalf("Config.%s: cannot change a %s; extend this test", name, v.Kind())
			}
			if key, ok := CellKey(c); !ok || key == base {
				t.Errorf("changing Config.%s leaves the cell key unchanged", name)
			}
			changed++
		}
	}
	walk("", reflect.TypeOf(pipeline.Config{}), nil)
	if changed < 20 {
		t.Fatalf("changed %d Config fields; the walk missed the nested structs", changed)
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
