package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"odr/internal/obs"
	"odr/internal/stream"
	"odr/internal/testutil"
)

// register is a test shorthand for a direct (in-process) registration.
func mustRegister(t *testing.T, m *Master, id, addr string, load LoadReport) {
	t.Helper()
	resp := m.register(RegisterRequest{ID: id, Addr: addr, Load: load})
	if !resp.OK {
		t.Fatalf("register %s: %s", id, resp.Error)
	}
}

// TestMasterPlacementByScore: placement always picks the lowest score, the
// score weighs sessions, watts and dirty ratio, pending placements bill
// against the target until its next load report, and score ties break by ID.
func TestMasterPlacementByScore(t *testing.T) {
	m := NewMaster(MasterConfig{})
	mustRegister(t, m, "w1", "a1", LoadReport{Sessions: 2})
	mustRegister(t, m, "w2", "a2", LoadReport{})

	// w2 is idle: the first two placements go there (its pending count rises
	// to parity with w1), the third breaks the 2-2 tie toward w1.
	want := []string{"w2", "w2", "w1"}
	for i, w := range want {
		id, addr, err := m.Place()
		if err != nil {
			t.Fatalf("Place %d: %v", i, err)
		}
		if id != w {
			t.Fatalf("Place %d = %s, want %s", i, id, w)
		}
		if id == "w2" && addr != "a2" {
			t.Fatalf("Place %d addr = %s, want a2", i, addr)
		}
	}

	// A fresh load report clears w2's pending bill; with equal sessions the
	// energy and dirty-ratio terms steer placement to the cooler worker.
	m.heartbeat(HeartbeatRequest{ID: "w2", Load: LoadReport{Sessions: 2, Watts: 40}})
	m.heartbeat(HeartbeatRequest{ID: "w1", Load: LoadReport{Sessions: 2, Watts: 10, DirtyRatio: 0.5}})
	// Scores: w1 = 2 + 1 + 1.0 = 4.0 (one pending from above), w2 = 2 + 4 = 6.
	id, _, err := m.Place()
	if err != nil {
		t.Fatal(err)
	}
	if id != "w1" {
		t.Fatalf("energy-weighted placement = %s, want w1", id)
	}
}

// TestMasterPlaceNoWorkers: an empty (or all-dead) registry refuses
// placement with ErrNoWorkers.
func TestMasterPlaceNoWorkers(t *testing.T) {
	m := NewMaster(MasterConfig{})
	if _, _, err := m.Place(); err != ErrNoWorkers {
		t.Fatalf("Place on empty registry = %v, want ErrNoWorkers", err)
	}
}

// TestMasterHeartbeatUnknownWorker: a heartbeat from a worker the master
// does not know gets OK false — the re-register signal.
func TestMasterHeartbeatUnknownWorker(t *testing.T) {
	m := NewMaster(MasterConfig{})
	if resp := m.heartbeat(HeartbeatRequest{ID: "ghost"}); resp.OK {
		t.Fatal("heartbeat from unknown worker accepted")
	}
}

// TestMasterReapDeclaresDead: a worker that misses the deadline is declared
// dead — no placements, heartbeats answered OK false — and re-registration
// revives it.
func TestMasterReapDeclaresDead(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMaster(MasterConfig{HeartbeatInterval: 10 * time.Millisecond, Metrics: reg})
	mustRegister(t, m, "w1", "a1", LoadReport{})

	// Pretend the deadline has long passed.
	m.reap(time.Now().Add(time.Hour))
	if ws := m.Workers(); len(ws) != 1 || ws[0].State != "dead" {
		t.Fatalf("workers after reap = %+v, want one dead", ws)
	}
	if _, _, err := m.Place(); err != ErrNoWorkers {
		t.Fatalf("Place with only a dead worker = %v, want ErrNoWorkers", err)
	}
	if resp := m.heartbeat(HeartbeatRequest{ID: "w1"}); resp.OK {
		t.Fatal("heartbeat from dead worker accepted; want OK false (re-register)")
	}
	if got := reg.Counter(NameClusterWorkerFailures).Value(); got != 1 {
		t.Fatalf("worker failures counter = %d, want 1", got)
	}

	mustRegister(t, m, "w1", "a1", LoadReport{})
	if ws := m.Workers(); ws[0].State != "alive" {
		t.Fatalf("state after re-register = %s, want alive", ws[0].State)
	}
	if _, _, err := m.Place(); err != nil {
		t.Fatalf("Place after revival: %v", err)
	}
}

// TestMasterDrainWorkflow: a drain order stops placements immediately, rides
// the next heartbeat, and deregistration removes the record.
func TestMasterDrainWorkflow(t *testing.T) {
	m := NewMaster(MasterConfig{})
	mustRegister(t, m, "w1", "a1", LoadReport{})
	if err := m.DrainWorker("w1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Place(); err != ErrNoWorkers {
		t.Fatalf("Place on draining worker = %v, want ErrNoWorkers", err)
	}
	resp := m.heartbeat(HeartbeatRequest{ID: "w1"})
	if !resp.OK || !resp.Drain {
		t.Fatalf("draining heartbeat = %+v, want OK with Drain", resp)
	}
	m.deregister("w1")
	if ws := m.Workers(); len(ws) != 0 {
		t.Fatalf("workers after deregister = %+v, want none", ws)
	}
	if err := m.DrainWorker("nope"); err == nil {
		t.Fatal("drain of unknown worker accepted")
	}
}

// TestMasterHandlerRoundTrip drives the register/place/workers flow over
// real HTTP with JSON bodies — the wire surface the worker agent and the
// resolver speak.
func TestMasterHandlerRoundTrip(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	m := NewMaster(MasterConfig{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	body, _ := json.Marshal(RegisterRequest{ID: "w1", Addr: "127.0.0.1:7311"})
	hr, err := http.Post(srv.URL+PathRegister, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rr RegisterResponse
	if err := json.NewDecoder(hr.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if !rr.OK || rr.Interval <= 0 || rr.Deadline < rr.Interval {
		t.Fatalf("register response %+v", rr)
	}

	hr, err = http.Get(srv.URL + PathPlace)
	if err != nil {
		t.Fatal(err)
	}
	var pr PlaceResponse
	if err := json.NewDecoder(hr.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if !pr.OK || pr.Worker != "w1" || pr.Addr != "127.0.0.1:7311" {
		t.Fatalf("place response %+v", pr)
	}

	hr, err = http.Get(srv.URL + PathWorkers)
	if err != nil {
		t.Fatal(err)
	}
	var ws []WorkerInfo
	if err := json.NewDecoder(hr.Body).Decode(&ws); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if len(ws) != 1 || ws[0].ID != "w1" || ws[0].State != "alive" {
		t.Fatalf("workers response %+v", ws)
	}

	body, _ = json.Marshal(DrainRequest{ID: "w1"})
	hr, err = http.Post(srv.URL+PathDrain, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var dr DrainResponse
	if err := json.NewDecoder(hr.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if !dr.OK {
		t.Fatalf("drain response %+v", dr)
	}
	if ws := m.Workers(); ws[0].State != "draining" {
		t.Fatalf("state after drain RPC = %s, want draining", ws[0].State)
	}

	// Malformed JSON is a 400, not a panic or a silent zero-value register.
	hr, err = http.Post(srv.URL+PathRegister, "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed register = HTTP %d, want 400", hr.StatusCode)
	}
	http.DefaultClient.CloseIdleConnections()
}

// TestClusterMetricsLintClean holds the full odr_cluster_* surface — joined
// with the hub families a worker exports — to
// the repo's naming conventions. A clean union means odrmaster's surface
// (the cluster families alone) and odrserver's are each clean too.
func TestClusterMetricsLintClean(t *testing.T) {
	reg := obs.NewRegistry()
	stream.RegisterLiveMetrics(reg)
	RegisterClusterMetrics(reg)
	if errs := obs.Lint(reg); len(errs) > 0 {
		t.Fatalf("lint violations: %v", errs)
	}
}

// TestLoadFromScrape derives a load report from a real /metrics document
// rendered by the obs encoder and parsed back — the exact surface a worker
// self-scrapes.
func TestLoadFromScrape(t *testing.T) {
	reg := obs.NewRegistry()
	stream.RegisterLiveMetrics(reg)
	fps := reg.GaugeVec("odr_session_fps", "", "session")
	fps.With1("s1").Set(60)
	fps.With1("s2").Set(30)
	fps.With1("shared").Set(60) // the hub's own probe: not a session
	watts := reg.GaugeVec("odr_session_watts", "", "session")
	watts.With1("s1").Set(10)
	watts.With1("s2").Set(5)
	outcome := reg.CounterVec("odr_tiles_outcome_total", "", "tile_outcome")
	outcome.With1("dirty").Add(30)
	outcome.With1("clean").Add(70)

	load := LoadFromRegistry(reg)
	if load.Sessions != 2 {
		t.Errorf("Sessions = %d, want 2 (shared excluded)", load.Sessions)
	}
	if load.Watts != 15 {
		t.Errorf("Watts = %v, want 15", load.Watts)
	}
	if load.DirtyRatio != 0.3 {
		t.Errorf("DirtyRatio = %v, want 0.3", load.DirtyRatio)
	}
	if got := LoadFromRegistry(obs.NewRegistry()); got != (LoadReport{}) {
		t.Errorf("LoadFromRegistry(empty) = %+v, want zeros", got)
	}
}

// TestLoadFromScrapeParkedHub: a worker whose hub has served and then lost
// its last viewer scrapes as idle — no sessions and, the point of the hub
// parking, no watts for placement to mistake for load.
func TestLoadFromScrapeParkedHub(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	reg := obs.NewRegistry()
	hub := stream.NewHub(stream.HubConfig{Width: 32, Height: 18, Metrics: reg})
	go hub.Run()
	defer hub.Stop()
	poll := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	sc, cc := net.Pipe()
	hub.Attach(sc, 0, nil)
	go io.Copy(io.Discard, cc)
	// Power is published from the second half-second flush on.
	poll("a busy hub to report watts", func() bool { l := LoadFromRegistry(reg); return l.Sessions == 1 && l.Watts > 0 })
	cc.Close()
	target := reg.Gauge(stream.NameHubRenderTargetFPS)
	poll("the hub to park", func() bool { return hub.Clients() == 0 && target.Value() == 0 })
	if l := LoadFromRegistry(reg); l.Sessions != 0 || l.Watts != 0 {
		t.Fatalf("parked hub scrapes as %+v, want no sessions and 0 W", l)
	}
}
