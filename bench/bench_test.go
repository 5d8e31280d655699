package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestQuickSuite keeps the benchmark compiling and complete: it builds the
// binary, runs -quick over every workload, and asserts only that every name
// BENCHMARK.json declares comes out, finite, on every declared workload. It
// never asserts a timing, so it does not depend on how fast the host is.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a second each")
	}
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "odrbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	result := filepath.Join(dir, "quick.json")
	cmd := exec.Command(bin, "-quick", "-out", result)
	cmd.Dir = dir // what a run leaves behind (.bench_build) lands in the temp dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("bench -quick: %v\n%s", err, out)
	}
	b, err := os.ReadFile(result)
	if err != nil {
		t.Fatal(err)
	}
	var rep suiteReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Comparable || !rep.Quick {
		t.Errorf("a -quick result must be stamped non-comparable: comparable=%v quick=%v", rep.Comparable, rep.Quick)
	}
	if len(rep.Sets) != 1 || len(rep.Sets[0].Workloads) != len(workloads) {
		t.Fatalf("want 1 set of %d workloads, got %+v", len(workloads), rep.Sets)
	}
	byName := make(map[string]*workloadResult)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, wl := range rep.Sets[0].Workloads {
		byName[wl.Name] = wl
		for _, set := range []metricSet{wl.EndToEnd, wl.PerLayer} {
			for metric, v := range set {
				if !name.MatchString(metric) {
					t.Errorf("%s: metric name %q is outside the allowed alphabet", wl.Name, metric)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s is not finite", wl.Name, metric)
				}
			}
		}
	}
	for _, dw := range decl.Workloads {
		wl := byName[dw.Name]
		if wl == nil {
			t.Errorf("BENCHMARK.json declares workload %q, which the suite did not run", dw.Name)
			continue
		}
		for _, m := range decl.EndToEnd {
			if _, ok := wl.EndToEnd[m.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s missing", dw.Name, m.Name)
			}
		}
		for _, m := range decl.PerLayer {
			if _, ok := wl.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", dw.Name, m.Name)
			}
		}
	}
}
