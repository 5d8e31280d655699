package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestVRRStudyShapes(t *testing.T) {
	rows := VRRStudy(testOptions())
	byName := map[string]VRRRow{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	fixed, vrr := byName["ODRMax+fixed60Hz"], byName["ODRMax+VRR"]
	// VRR keeps the throughput...
	if vrr.ClientFPS < fixed.ClientFPS*0.95 {
		t.Errorf("VRR lost throughput: %.1f vs %.1f", vrr.ClientFPS, fixed.ClientFPS)
	}
	// ...and without latency cost...
	if vrr.MtPMeanMs > fixed.MtPMeanMs*1.2 {
		t.Errorf("VRR latency %.1f >> fixed %.1f", vrr.MtPMeanMs, fixed.MtPMeanMs)
	}
	// ...while eliminating tearing, which the 94FPS-on-60Hz fixed display
	// suffers badly.
	if fixed.Tearing < 0.2 {
		t.Errorf("fixed display tearing %.2f, expected substantial", fixed.Tearing)
	}
	if vrr.Tearing > 0.05 {
		t.Errorf("VRR tearing %.2f, expected ~0", vrr.Tearing)
	}
	if vrr.Rating <= fixed.Rating {
		t.Errorf("VRR rating %.1f not above fixed %.1f", vrr.Rating, fixed.Rating)
	}
}

func TestConsolidationShapes(t *testing.T) {
	// The reference duration: past capacity (x4, no session at QoS) ODR's
	// MtP margin over NoReg is a few ms, inside 15 s runs' noise.
	o := testOptions()
	o.Duration = 60 * time.Second
	rows := Consolidation(o)
	type key struct {
		policy   string
		sessions int
	}
	byKey := map[key]ConsolidationRow{}
	for _, r := range rows {
		byKey[key{r.Policy, r.Sessions}] = r
	}
	// Physical discipline: delivered GPU work never exceeds the capacity.
	for _, r := range rows {
		if r.GPULoad > 1.08 {
			t.Errorf("%s x%d: GPU load %.2f exceeds 1 GPU", r.Policy, r.Sessions, r.GPULoad)
		}
	}
	// ODR is cheaper at partial occupancy...
	if odr1, nr1 := byKey[key{"ODR60", 1}], byKey[key{"NoReg", 1}]; odr1.ServerWatts >= nr1.ServerWatts*0.85 {
		t.Errorf("ODR x1 power %.1f not well below NoReg %.1f", odr1.ServerWatts, nr1.ServerWatts)
	}
	// ...and lower-latency at every occupancy.
	for k := 1; k <= 4; k++ {
		odr, nr := byKey[key{"ODR60", k}], byKey[key{"NoReg", k}]
		if odr.MeanMtPMs >= nr.MeanMtPMs {
			t.Errorf("x%d: ODR MtP %.1f >= NoReg %.1f", k, odr.MeanMtPMs, nr.MeanMtPMs)
		}
	}
	// Both policies saturate the same GPU: neither supports 6 sessions.
	if byKey[key{"ODR60", 6}].QoSMet > 0 || byKey[key{"NoReg", 6}].QoSMet > 0 {
		t.Error("six IM sessions cannot fit one GPU at 60FPS")
	}
	// And both fit two comfortably.
	if byKey[key{"ODR60", 2}].QoSMet != 2 {
		t.Errorf("ODR x2 QoS met = %d", byKey[key{"ODR60", 2}].QoSMet)
	}
}

func TestWriteCSVArtifacts(t *testing.T) {
	m := NewMatrix(Options{Duration: 5 * 1e9, Seed: 1})
	dir := t.TempDir()
	files, err := WriteCSVArtifacts(m, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedCSVRows()
	if len(files) != len(want) {
		t.Fatalf("wrote %d files, want %d", len(files), len(want))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.Count(string(data), "\n") - 1 // minus header
		name := filepath.Base(f)
		if rows != want[name] {
			t.Errorf("%s: %d rows, want %d", name, rows, want[name])
		}
	}
}

func TestFidelityAnchors(t *testing.T) {
	// Shorter runs than the EXPERIMENTS.md reference add noise; allow two
	// marginal anchors to wobble but no more.
	m := NewMatrix(testOptions())
	rows := Fidelity(m)
	if len(rows) < 30 {
		t.Fatalf("only %d anchors", len(rows))
	}
	var missed []string
	for _, r := range rows {
		if !r.OK {
			missed = append(missed, r.Name)
		}
	}
	if len(missed) > 2 {
		t.Fatalf("%d paper anchors out of tolerance: %v", len(missed), missed)
	}
}

func TestConsolidationMixShapes(t *testing.T) {
	rows := ConsolidationMix(testOptions())
	byPolicy := map[string]MixRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	nr, od := byPolicy["NoReg"], byPolicy["ODR60"]
	// The mix fits the GPU: ODR meets QoS for everyone.
	if !od.HeavyQoS || od.LightQoS != od.LightN {
		t.Fatalf("ODR mixed group missed QoS: %+v", od)
	}
	// NoReg's sessions pay a latency premium at equal occupancy.
	if nr.HeavyMtP <= od.HeavyMtP && nr.LightMtP <= od.LightMtP {
		t.Fatalf("NoReg latency premium missing: ITP %.1f vs %.1f, STK %.1f vs %.1f",
			nr.HeavyMtP, od.HeavyMtP, nr.LightMtP, od.LightMtP)
	}
}
