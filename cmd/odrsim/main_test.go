package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"odr/internal/simrun"
)

// TestCheckArgs: every bad command line is refused before anything runs,
// and the good ones pass.
func TestCheckArgs(t *testing.T) {
	for _, c := range []struct {
		names, set []string
		spec       simrun.Spec
		want       string // "" = accepted
	}{
		{names: []string{"fig1", "Table2", "fig14", "report"}, set: []string{"duration", "cache"}},
		{names: []string{"cdf", "fps"}, set: []string{"policy"}, spec: simrun.Spec{Policy: "odr", FPS: 60}},
		{names: []string{"fig1", "timeline-csv"}},
		{names: []string{"bogus"}, want: `unknown experiment or export "bogus"`},
		{names: []string{"trace"}, want: `unknown experiment or export "trace"`},
		{names: []string{"fig1"}, set: []string{"seed", "fps"}, want: "-fps names the exported run, but no export is named"},
		{names: []string{"frames"}, spec: simrun.Spec{Benchmark: "Doom"}, want: `unknown benchmark "Doom"`},
		{names: []string{"cdf"}, spec: simrun.Spec{Platform: "GCE"}, want: `unknown platform "GCE"`},
		{names: []string{"fps"}, spec: simrun.Spec{Resolution: "1440p"}, want: `unknown resolution "1440p"`},
		{names: []string{"timeline"}, spec: simrun.Spec{Policy: "vsync"}, want: `unknown policy "vsync"`},
	} {
		err := checkArgs(c.names, c.set, c.spec)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("checkArgs(%v, %v, %+v) = %v, want %q", c.names, c.set, c.spec, err, c.want)
		}
	}
}

// TestExportOnlyOpensNoCache: a command line of exports alone runs no
// scheduler cell, so it neither creates the result cache nor prints the
// scheduler's lines; an experiment run still does both.
func TestExportOnlyOpensNoCache(t *testing.T) {
	for _, c := range []struct {
		args      []string
		wantCache bool
	}{
		{[]string{"-duration", "1s", "fps", "timeline"}, false},
		{[]string{"-duration", "1s", "-parallel", "1", "fig1"}, true},
	} {
		cache := filepath.Join(t.TempDir(), "cache")
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-cache", cache}, c.args...), &stdout, &stderr); code != 0 {
			t.Fatalf("odrsim %v exited %d: %s", c.args, code, stderr.String())
		}
		_, err := os.Stat(cache)
		if created := err == nil; created != c.wantCache {
			t.Errorf("odrsim %v: cache directory created = %v, want %v", c.args, created, c.wantCache)
		}
		if printed := strings.Contains(stderr.String(), "cells run"); printed != c.wantCache {
			t.Errorf("odrsim %v: stderr %q", c.args, stderr.String())
		}
		if stdout.Len() == 0 {
			t.Errorf("odrsim %v wrote nothing to stdout", c.args)
		}
	}
}

// TestFramesExportReplaysExactly: a run replaying a frames export costs each
// of its frames exactly as some exported frame, to the nanosecond.
func TestFramesExportReplaysExactly(t *testing.T) {
	spec := simrun.Spec{Policy: "noreg", Duration: 3 * time.Second, Seed: 1}
	var out bytes.Buffer
	if err := export(&out, "frames", spec); err != nil {
		t.Fatal(err)
	}
	spec.Replay = filepath.Join(t.TempDir(), "frames.csv")
	if err := os.WriteFile(spec.Replay, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var replayed bytes.Buffer
	if err := export(&replayed, "frames", spec); err != nil {
		t.Fatal(err)
	}
	costs := func(b []byte) [][]string {
		recs, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]string
		for _, r := range recs[1:] {
			rows = append(rows, r[1:7]) // render_ms .. complexity
		}
		return rows
	}
	exported := costs(out.Bytes())
	rows := costs(replayed.Bytes())
	if len(rows) != 200 {
		t.Fatalf("replay exported %d frames, want 200", len(rows))
	}
	for i, r := range rows {
		if !slices.ContainsFunc(exported, func(e []string) bool { return slices.Equal(e, r) }) {
			t.Fatalf("replayed frame %d costs %v, which no exported frame does", i, r)
		}
	}
}
