package stream

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/obs"
	"odr/internal/obs/scrape"
)

// TestHubObservability runs a traced, metered hub with a live debug server:
// a real client streams frames over a pipe while /debug/odr, /metrics and
// /debug/pprof/ are scraped from a loopback listener, and Stop must log a
// final summary.
func TestHubObservability(t *testing.T) {
	tr := obs.NewTracer(1 << 14)
	reg := obs.NewRegistry()
	var logMu sync.Mutex
	var logged []string
	h := NewHub(HubConfig{
		Width: 48, Height: 27, TargetFPS: 90,
		Trace:   tr,
		Metrics: reg,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	go h.Run()

	ds, err := obs.ServeDebugRegistry("127.0.0.1:0", reg, func() any {
		return map[string]any{"hub": h.Snapshot()}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	cli, _, clean := attachClient(t, h, 0)
	waitFrames(t, cli, 20, 10*time.Second)

	// Poke the game so the input path is traced too.
	if _, err := cli.SendInput(); err != nil {
		t.Fatalf("SendInput: %v", err)
	}
	waitFrames(t, cli, 25, 10*time.Second)

	get := func(path string) []byte {
		resp, err := http.Get("http://" + ds.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	var snap struct {
		Hub struct {
			Rendered int64            `json:"rendered"`
			Clients  []map[string]any `json:"clients"`
		} `json:"hub"`
	}
	if err := json.Unmarshal(get("/debug/odr"), &snap); err != nil {
		t.Fatalf("/debug/odr is not valid JSON: %v", err)
	}
	if snap.Hub.Rendered == 0 {
		t.Error("/debug/odr reports zero rendered frames")
	}
	if len(snap.Hub.Clients) != 1 {
		t.Errorf("/debug/odr reports %d clients, want 1", len(snap.Hub.Clients))
	}
	metrics, err := scrape.ParseBytes(get("/metrics"))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if metrics.Number(NameFramesRendered) == 0 {
		t.Errorf("/metrics reports no %s", NameFramesRendered)
	}
	if !strings.Contains(string(get("/debug/pprof/goroutine?debug=1")), "goroutine") {
		t.Error("/debug/pprof/goroutine did not return a goroutine dump")
	}

	clean()
	h.Stop()

	logMu.Lock()
	defer logMu.Unlock()
	if len(logged) == 0 {
		t.Fatal("Stop did not log a final summary via Logf")
	}
	if !strings.Contains(logged[0], "rendered=") || !strings.Contains(logged[0], "sessions_served=") {
		t.Errorf("summary line missing counters: %q", logged[0])
	}

	// The tracer saw the whole lifecycle: render and encode spans, tx spans,
	// and the input instant from SendInput.
	seen := map[string]bool{}
	for _, ev := range tr.Events() {
		seen[ev.Name] = true
	}
	for _, want := range []string{"render", "encode", "tx", "input"} {
		if !seen[want] {
			t.Errorf("tracer never recorded %q events (saw %v)", want, seen)
		}
	}

	if reg.Counter(NameFramesRendered).Value() == 0 {
		t.Error("frames_rendered counter never incremented")
	}
	if reg.Histogram(NameEncodeUs).Count() == 0 {
		t.Error("encode_us histogram empty")
	}
}

// TestHubWritesEveryFrameInstrument holds the hub to what it exports: an
// unpaced viewer and a 10-FPS viewer (whose skipped frames count as drops)
// stream while inputs arrive, until every frame-path counter and histogram
// (the exported fields of the hub's instruments) has counted and every such
// gauge reads non-zero. It ranges over the struct's fields, so a frame-path
// instrument added later is held to the same rule.
func TestHubWritesEveryFrameInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 60, Metrics: reg})
	defer stop()
	cli, _, cleanFast := attachClient(t, h, 0)
	defer cleanFast()
	_, _, cleanSlow := attachClient(t, h, 10)
	defer cleanSlow()

	ins := reflect.ValueOf(h.ins).Elem()
	unwritten := func() []string {
		var out []string
		for i := 0; i < ins.NumField(); i++ {
			name := ins.Type().Field(i).Name
			if !ins.Type().Field(i).IsExported() {
				continue
			}
			var written bool
			switch v := ins.Field(i).Interface().(type) {
			case *obs.Counter:
				written = v.Value() > 0
			case *obs.Histogram:
				written = v.Count() > 0
			case *obs.Gauge:
				written = v.Value() != 0
			default:
				t.Fatalf("instruments.%s is a %T, not a counter, histogram or gauge", name, v)
			}
			if !written {
				out = append(out, name)
			}
		}
		return out
	}
	deadline := time.Now().Add(10 * time.Second)
	for missing := unwritten(); len(missing) > 0; missing = unwritten() {
		if time.Now().After(deadline) {
			t.Fatalf("a live hub never wrote frame instruments %v", missing)
		}
		if _, err := cli.SendInput(); err != nil {
			t.Fatalf("SendInput: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHubSnapshotTotalsSurviveDetach checks the lifetime totals: a session's
// counters must fold into the hub snapshot after it detaches.
func TestHubSnapshotTotalsSurviveDetach(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 120})
	defer stop()
	cli, stats, clean := attachClient(t, h, 0)
	waitFrames(t, cli, 10, 10*time.Second)
	clean()
	var st SessionStats
	select {
	case st = <-stats:
	case <-time.After(10 * time.Second):
		t.Fatal("detach callback never fired")
	}
	// Wait for the detach goroutine to fold totals in.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := h.Snapshot()
		if snap["sessions_served"].(int64) == 1 && snap["sent"].(int64) == st.Sent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("totals never reflected detached session: %+v vs %+v", snap, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHubObservabilityOffIsInert checks a hub built without Trace or
// Metrics: it streams, keeps its counts in a registry of its own, and
// Snapshot reports from that registry.
func TestHubObservabilityOffIsInert(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 90})
	defer stop()
	cli, _, clean := attachClient(t, h, 0)
	defer clean()
	waitFrames(t, cli, 10, 10*time.Second)
	reg := h.cfg.Metrics
	if reg == nil {
		t.Fatal("a hub built with Metrics: nil has no registry")
	}
	snap := h.Snapshot()
	if r := snap["rendered"].(int64); r == 0 || r > reg.Counter(NameFramesRendered).Value() {
		t.Fatalf("snapshot rendered=%d, registry %d", r, reg.Counter(NameFramesRendered).Value())
	}
	if s := snap["sent"].(int64); s == 0 || s > reg.Counter(NameFramesDisplayed).Value() {
		t.Fatalf("snapshot sent=%d, registry %d", s, reg.Counter(NameFramesDisplayed).Value())
	}
	// Probes are live too: the shared probe's series and the viewer's.
	if n := reg.GaugeVec(NameSessionFPS, "", "session").Len(); n != 2 {
		t.Fatalf("%d odr_session_fps series, want 2 (shared + one viewer)", n)
	}
}

// TestSnapshotTotalsMatchRegistry pins the hub's one bookkeeping path. A
// NoReg renderer outruns its lane encoder (lane drops), a viewer sends an
// input, and a viewer that never reads is evicted; after Stop every Snapshot
// total equals its registry counter, and SenderBatchStats counts the
// displayed frames.
func TestSnapshotTotalsMatchRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	h, stop := startHub(t, HubConfig{
		Width: 48, Height: 27, Policy: core.RuleNoReg, Metrics: reg,
		WriteTimeout: 50 * time.Millisecond,
	})
	cli, _, clean := attachClient(t, h, 0)
	stuck, peer := net.Pipe()
	defer peer.Close()
	h.Attach(stuck, 0, nil)
	waitFrames(t, cli, 20, 10*time.Second)
	if _, err := cli.SendInput(); err != nil {
		t.Fatal(err)
	}
	ins := h.ins
	pollUntil(t, 10*time.Second, "a drop, an input and an eviction", func() bool {
		return ins.Dropped.Value() > 0 && ins.Inputs.Value() > 0 && h.Evicted() > 0
	})
	clean()
	stop()

	snap := h.Snapshot()
	for key, name := range map[string]string{
		"rendered": NameFramesRendered,
		"inputs":   NameInputs,
		"sent":     NameFramesDisplayed,
		"dropped":  NameFramesDropped,
		"evicted":  NameSessionsEvicted,
	} {
		if got, want := snap[key].(int64), reg.Counter(name).Value(); got != want {
			t.Errorf("snapshot %s = %d, %s = %d", key, got, name, want)
		}
	}
	started := reg.CounterVec(NameSessionsStarted, "", "policy").With1("NoReg").Value()
	if got := snap["sessions_served"].(int64); got != started || got != 2 {
		t.Errorf("snapshot sessions_served = %d, %s{policy=NoReg} = %d, want 2", got, NameSessionsStarted, started)
	}
	passes, frames := h.SenderBatchStats()
	if displayed := ins.Displayed.Value(); frames != displayed || passes == 0 || passes > frames {
		t.Errorf("SenderBatchStats = %d passes / %d frames, %s = %d", passes, frames, NameFramesDisplayed, displayed)
	}
}
