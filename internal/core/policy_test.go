package core_test

import (
	"strings"
	"testing"

	"odr/internal/core"
)

// TestParsePolicyLabels: every name of the command-line vocabulary parses to
// the configuration whose label the paper prints, and any other name is an
// error that lists the vocabulary.
func TestParsePolicyLabels(t *testing.T) {
	for _, c := range []struct {
		name string
		fps  float64
		want string
	}{
		{"noreg", 0, "NoReg"},
		{"noreg", 60, "NoReg"},
		{"int", 30, "Int30"},
		{"int", 60, "Int60"},
		{"int", 0, "IntMax"},
		{"interval", 60, "Int60"},
		{"interval", 0, "IntMax"},
		{"rvs", 30, "RVS30"},
		{"rvs", 60, "RVS60"},
		{"rvs", 0, "RVSMax"},
		{"rvs", 240, "RVSMax"},
		{"odr", 30, "ODR30"},
		{"odr", 60, "ODR60"},
		{"odr", 0, "ODRMax"},
		{"", 0, "ODRMax"},
		{"", 60, "ODR60"},
	} {
		p, err := core.ParsePolicy(c.name, c.fps)
		if err != nil {
			t.Fatalf("ParsePolicy(%q, %v): %v", c.name, c.fps, err)
		}
		if got := p.String(); got != c.want {
			t.Errorf("ParsePolicy(%q, %v) = %s, want %s", c.name, c.fps, got, c.want)
		}
	}
	if p, _ := core.ParsePolicy("rvs", 0); p.FPS != core.RVSMaxHz {
		t.Errorf("rvs at 0 refreshes at %v Hz, want %v", p.FPS, core.RVSMaxHz)
	}
	for _, name := range []string{"ODR", "vsync", "Int60", "max"} {
		_, err := core.ParsePolicy(name, 60)
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) ||
			!strings.Contains(err.Error(), "noreg, int, interval, rvs or odr") {
			t.Errorf("ParsePolicy(%q) err = %v, want it named and the vocabulary listed", name, err)
		}
	}
}

// TestRenderRuleNames: the rule names are the hub's policy label values; a
// rule outside the four says its number.
func TestRenderRuleNames(t *testing.T) {
	for rule, want := range map[core.RenderRule]string{
		core.RuleODR: "ODR", core.RuleInterval: "Interval", core.RuleNoReg: "NoReg", core.RuleRVS: "RVS",
		core.RenderRule(7): "RenderRule(7)",
	} {
		if got := rule.String(); got != want {
			t.Errorf("rule %d = %s, want %s", int(rule), got, want)
		}
	}
}
