package odr

import (
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/experiments"
	"odr/internal/pictor"
	"odr/internal/testutil"
)

// gapKind says how a gap keeps the stream hub from a paper configuration.
type gapKind int

const (
	// refuses: NewHub panics on the configuration's rule.
	refuses gapKind = iota
	// lacks: the hub cannot state the configuration; it builds another one
	// (its policy reports another label) or has no switch for it.
	lacks
	// differs: the hub builds the configuration, but one of its mechanisms
	// is not the simulator's.
	differs
)

// A gap is one way the hub falls short of what the simulator runs under a
// configuration's name.
type gap struct {
	kind gapKind
	why  string
}

// TestEveryPaperConfigOnBothSubstrates runs every paper configuration (§4,
// §6, Table 2) on the simulator, through the path odrsim takes, and on the
// stream hub either builds it or names each gap that keeps the hub from
// running it as the simulator does. A row that the hub neither builds nor
// lists fails, and so does a listed refusal or lack that the hub has since
// closed, so closing a gap forces its entry out of this table.
func TestEveryPaperConfigOnBothSubstrates(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// The policy table's rows; ODRMax-noPri is the one Table 2 row outside
	// it (ODRMax with PriorityFrame off).
	table := []core.Policy{
		{Rule: core.RuleNoReg},
		{Rule: core.RuleInterval, FPS: 30},
		{Rule: core.RuleInterval, FPS: 60},
		{Rule: core.RuleInterval},
		{Rule: core.RuleRVS, FPS: 30},
		{Rule: core.RuleRVS, FPS: 60},
		{Rule: core.RuleRVS, FPS: core.RVSMaxHz},
		{Rule: core.RuleODR, FPS: 30},
		{Rule: core.RuleODR, FPS: 60},
		{Rule: core.RuleODR},
	}
	const noPri = "ODRMax-noPri"

	gridWait := gap{differs, "Interval: the lane encodes each frame at once; the simulator's proxy waits for the next grid tick (§4.2)"}
	noMax := gap{lacks, "HubConfig.TargetFPS 0 means 60, so the hub has no *Max configuration (nor IntMax's ratchet)"}
	noRVS := gap{refuses, "no RVS: the wire carries no vblank feedback from the client"}
	vsync := gap{differs, "the client displays each frame at decode end, not on the next vblank"}
	mulBuf2 := gap{differs, "the lane never waits on a session (Mul-Buf2 does not block): a full, paced or input-answering viewer skips to the newest frame, so viewers stay independent, while the simulator's one viewer blocks its proxy in buf2.Put"}
	gaps := map[string][]gap{
		"NoReg":  {{differs, "sessions queue encoded frames in a 64-frame pushQueue, not behind the simulator's 4 MB (8 MB on GCE) byte bound"}},
		"Int30":  {gridWait},
		"Int60":  {gridWait},
		"IntMax": {gridWait, noMax},
		"RVS30":  {noRVS, vsync},
		"RVS60":  {noRVS, vsync},
		"RVSMax": {noRVS, vsync},
		"ODR30":  {mulBuf2},
		"ODR60":  {mulBuf2},
		"ODRMax": {mulBuf2, noMax},
		noPri:    {mulBuf2, noMax, {lacks, "HubConfig has no PriorityFrame switch"}},
	}

	// Simulator: every configuration the evaluation matrix runs, at both
	// QoS goals, for 2 simulated seconds.
	m := experiments.NewMatrix(experiments.Options{Duration: 2 * time.Second, Seed: 1})
	simulated := map[string]bool{}
	for _, g := range pictor.Groups {
		if g.Platform != pictor.PrivateCloud {
			continue
		}
		for _, id := range experiments.Table2Policies {
			r := m.Get(pictor.IM, g, id)
			if r.FramesDisplayed == 0 {
				t.Errorf("%s at %s: the simulator displayed no frame", r.Label, g)
			}
			simulated[r.Label] = true
		}
	}
	rows := map[string]*core.Policy{noPri: nil}
	for i := range table {
		rows[table[i].String()] = &table[i]
	}
	for name := range rows {
		if !simulated[name] {
			t.Errorf("%s: no simulator run is labelled with it", name)
		}
	}
	for name := range simulated {
		if _, ok := rows[name]; !ok {
			t.Errorf("the simulator runs %s, which is not a row", name)
		}
	}
	for name := range gaps {
		if _, ok := rows[name]; !ok {
			t.Errorf("gap listed for %s, which is not a row", name)
		}
	}

	// Hub: build each table row and see which configuration it reports.
	for name, p := range rows {
		var built, refused bool
		if p != nil {
			func() {
				defer func() { refused = recover() != nil }()
				h := NewHub(HubConfig{Width: 16, Height: 8, Policy: p.Rule, TargetFPS: p.FPS})
				defer h.Stop()
				fps, _ := h.Snapshot()["target_fps"].(float64)
				built = core.Policy{Rule: p.Rule, FPS: fps}.String() == name
			}()
		}
		listed := map[gapKind][]string{}
		for _, g := range gaps[name] {
			listed[g.kind] = append(listed[g.kind], g.why)
		}
		switch {
		case refused != (len(listed[refuses]) > 0):
			t.Errorf("%s: NewHub panicked = %v, but the refusals listed are %q", name, refused, listed[refuses])
		case built && len(listed[lacks]) > 0:
			t.Errorf("%s: the hub builds it now; delete %q", name, listed[lacks])
		case !built && !refused && len(listed[lacks]) == 0:
			t.Errorf("%s: the hub does not build it and no gap says why", name)
		}
	}
}
