package obs

import (
	"strings"
	"testing"
)

func lintErrs(t *testing.T, r *Registry, wantSubstr string) {
	t.Helper()
	errs := Lint(r)
	for _, err := range errs {
		if strings.Contains(err.Error(), wantSubstr) {
			return
		}
	}
	t.Errorf("Lint should flag %q, got %v", wantSubstr, errs)
}

func TestLintCleanRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("odr_frames_encoded_total")
	r.Gauge("odr_dirty_tile_ratio")
	r.Histogram("odr_encode_us")
	r.CounterVec("odr_tiles_outcome_total", "Tiles by outcome.", "tile_outcome")
	r.GaugeVec("odr_session_fps", "FPS.", "session")
	if errs := Lint(r); len(errs) != 0 {
		t.Fatalf("clean registry flagged: %v", errs)
	}
	MustLint(r) // must not panic
	if errs := Lint(nil); errs != nil {
		t.Fatalf("nil registry lint = %v", errs)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	badName := NewRegistry()
	badName.Counter("FramesEncoded_total")
	lintErrs(t, badName, "does not match convention")

	badCounter := NewRegistry()
	badCounter.Counter("odr_frames_encoded")
	lintErrs(t, badCounter, "must end in _total")

	badHist := NewRegistry()
	badHist.Histogram("odr_encode_time")
	lintErrs(t, badHist, "unit suffix")

	badLabel := NewRegistry()
	badLabel.GaugeVec("odr_session_fps", "h", "Session-ID")
	lintErrs(t, badLabel, `label "Session-ID"`)

	dupHelp := NewRegistry()
	dupHelp.CounterVec("odr_a_total", "Same words.", "x")
	dupHelp.GaugeVec("odr_b_ratio", "Same words.", "x")
	lintErrs(t, dupHelp, "share the help string")
}

func TestMustLintPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLint should panic on a violation")
		}
	}()
	r := NewRegistry()
	r.Counter("not a metric name")
	MustLint(r)
}
