package simrun

import (
	"reflect"
	"strings"
	"testing"

	"odr/internal/pictor"
)

// TestConfigRefusesUnknownNames: every name outside the documented set is an
// error naming it — a case or spelling variant included — never a silent
// fallback to a default.
func TestConfigRefusesUnknownNames(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{Benchmark: "im"}, `unknown benchmark "im"`},
		{Spec{Benchmark: "Doom"}, `unknown benchmark "Doom"`},
		{Spec{Platform: "GCE"}, `unknown platform "GCE"`},
		{Spec{Platform: "aws"}, `unknown platform "aws"`},
		{Spec{Resolution: "1440p"}, `unknown resolution "1440p"`},
		{Spec{Resolution: "4k"}, `unknown resolution "4k"`},
		{Spec{Policy: "vsync"}, `unknown policy "vsync"`},
		{Spec{Policy: "ODR"}, `unknown policy "ODR"`},
		{Spec{Replay: "no/such/trace.csv"}, "opening trace"},
	} {
		if _, err := Config(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: err = %v, want %q", c.spec, err, c.want)
		}
	}
}

// TestConfigMapsNames: the names pick the benchmark, platform, resolution and
// policy they say, and empty ones pick IM on the private cloud at 720p
// under ODR.
func TestConfigMapsNames(t *testing.T) {
	for _, c := range []struct {
		spec  Spec
		bench pictor.Benchmark
		plat  pictor.Platform
		res   pictor.Resolution
		label string
	}{
		{Spec{}, pictor.IM, pictor.PrivateCloud, pictor.R720p, "ODRMax"},
		{Spec{Benchmark: "STK", Platform: "gce", Resolution: "1080p", Policy: "int", FPS: 30},
			pictor.STK, pictor.GoogleGCE, pictor.R1080p, "Int30"},
		{Spec{Platform: "priv", Resolution: "720p", Policy: "rvs"}, pictor.IM, pictor.PrivateCloud, pictor.R720p, "RVSMax"},
		{Spec{Policy: "rvs", FPS: 60}, pictor.IM, pictor.PrivateCloud, pictor.R720p, "RVS60"},
		{Spec{Benchmark: "0AD", Policy: "noreg"}, pictor.ZAD, pictor.PrivateCloud, pictor.R720p, "NoReg"},
		{Spec{Policy: "odr", FPS: 60}, pictor.IM, pictor.PrivateCloud, pictor.R720p, "ODR60"},
		{Spec{Policy: "interval", FPS: 60}, pictor.IM, pictor.PrivateCloud, pictor.R720p, "Int60"},
	} {
		cfg, err := Config(c.spec)
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		if !reflect.DeepEqual(cfg.Workload, c.bench.Params()) || cfg.Scale != pictor.Scale(c.plat, c.res) ||
			cfg.Net != pictor.Network(c.plat) {
			t.Errorf("%+v: not %s on %s at %s", c.spec, c.bench, c.plat, c.res)
		}
		if cfg.Label != c.label {
			t.Errorf("%+v: policy %s, want %s", c.spec, cfg.Label, c.label)
		}
	}
}
