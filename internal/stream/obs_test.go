package stream

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"odr/internal/obs"
)

// TestHubObservability runs a traced, metered hub with a live debug server:
// a real client streams frames over a pipe while /debug/odr and /debug/pprof/
// are scraped from a loopback listener, and Stop must log a final summary.
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

	ds, err := obs.ServeDebug("127.0.0.1:0", func() any {
		return map[string]any{"hub": h.Snapshot(), "metrics": reg.Snapshot()}
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
		Metrics map[string]any `json:"metrics"`
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
	if _, ok := snap.Metrics[obs.NameFramesRendered]; !ok {
		t.Errorf("/debug/odr metrics missing odr_frames_rendered_total: %v", snap.Metrics)
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

	if reg.Counter(obs.NameFramesRendered).Value() == 0 {
		t.Error("frames_rendered counter never incremented")
	}
	if reg.Histogram(obs.NameEncodeUs).Count() == 0 {
		t.Error("encode_us histogram empty")
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

// TestHubObservabilityOffIsInert checks a hub without Trace/Metrics still
// streams (the nil fast paths) and Snapshot works standalone.
func TestHubObservabilityOffIsInert(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 90})
	defer stop()
	cli, _, clean := attachClient(t, h, 0)
	defer clean()
	waitFrames(t, cli, 10, 10*time.Second)
	snap := h.Snapshot()
	if snap["rendered"].(int64) == 0 {
		t.Fatal("no frames rendered with observability off")
	}
}
