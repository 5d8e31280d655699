// Package cluster is the master/worker control plane: a master process
// registers odrserver workers over JSON-over-HTTP control RPCs, health-checks
// them with heartbeat deadlines, places incoming sessions on the
// least-loaded worker, and drains or migrates sessions on worker failure or
// scale-down.
//
// The data plane is untouched: clients still speak the stream protocol
// straight to a worker's hub over TCP. What the cluster adds is placement
// (the client asks the master where to connect) and migration, which reuses
// machinery the stream layer already has — a handoff is "drain, redirect,
// reconnect, keyreq": the worker's hub drains (orderly msgBye per session),
// each client redials through its Resolver, the master places it on a
// surviving worker, and the keyframe-resync path repairs the stream there.
//
// Everything is stdlib: net/http for the control RPCs, encoding/json for the
// wire types in this file. Load reports are derived from the worker's
// existing /metrics surface (sessions, watts, dirty-tile ratio) via
// LoadFromRegistry, so the control plane reads the same telemetry operators do.
package cluster

import (
	"bytes"
	"time"

	"odr/internal/obs"
	"odr/internal/obs/scrape"
)

// Control-RPC paths served by Master.Handler.
const (
	PathRegister   = "/cluster/register"
	PathHeartbeat  = "/cluster/heartbeat"
	PathDeregister = "/cluster/deregister"
	PathPlace      = "/cluster/place"
	PathWorkers    = "/cluster/workers"
	PathDrain      = "/cluster/drain"
)

// LoadReport is a worker's self-reported load, the inputs to the master's
// placement score. The fields mirror the worker's /metrics surface: live
// session count, estimated power draw, and the dirty-tile ratio (the share
// of encoder work that is real change rather than excessive rendering — a
// proxy for how busy the content is).
type LoadReport struct {
	Sessions   int     `json:"sessions"`
	Watts      float64 `json:"watts"`
	DirtyRatio float64 `json:"dirty_ratio"`
}

// RegisterRequest announces a worker to the master. Addr is the data-plane
// address clients will dial; ID must be stable across re-registration so a
// worker that lost contact (and was declared dead) revives its record
// instead of duplicating it.
type RegisterRequest struct {
	ID   string     `json:"id"`
	Addr string     `json:"addr"`
	Load LoadReport `json:"load"`
}

// RegisterResponse acknowledges registration and dictates the heartbeat
// contract: beat every Interval; miss Deadline and you are declared dead.
type RegisterResponse struct {
	OK       bool          `json:"ok"`
	Error    string        `json:"error,omitempty"`
	Interval time.Duration `json:"interval"`
	Deadline time.Duration `json:"deadline"`
}

// HeartbeatRequest carries a worker's liveness proof and current load.
type HeartbeatRequest struct {
	ID   string     `json:"id"`
	Load LoadReport `json:"load"`
}

// HeartbeatResponse is the master's piggybacked command channel. OK false
// means the master does not know this worker (it was declared dead, or the
// master restarted) — the worker must re-register. Drain true orders the
// worker to drain its sessions (orderly msgBye each) and deregister; its
// clients re-resolve through the master and land on surviving workers.
type HeartbeatResponse struct {
	OK    bool `json:"ok"`
	Drain bool `json:"drain"`
}

// DeregisterRequest removes a worker on orderly shutdown or after a drain.
type DeregisterRequest struct {
	ID string `json:"id"`
}

// DrainRequest is the operator-facing scale-down order: the named worker
// stops receiving placements immediately and is told to drain on its next
// heartbeat.
type DrainRequest struct {
	ID string `json:"id"`
}

// DrainResponse acknowledges (or refuses) a drain order.
type DrainResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// PlaceResponse answers a client's placement query with the worker to dial.
type PlaceResponse struct {
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
	Worker string `json:"worker"`
	Addr   string `json:"addr"`
}

// WorkerInfo is the master's view of one worker (the /cluster/workers debug
// surface and the failure-matrix assertions).
type WorkerInfo struct {
	ID       string     `json:"id"`
	Addr     string     `json:"addr"`
	State    string     `json:"state"` // alive, draining, dead
	Load     LoadReport `json:"load"`
	Score    float64    `json:"score"`
	LastBeat time.Time  `json:"last_beat"`
}

// Metric families the worker's load report is derived from. They are spelled
// here (rather than imported from internal/stream) so the control plane
// depends only on the wire surface, exactly like an external scraper.
const (
	sessionFPSFamily   = "odr_session_fps"
	sessionWattsFamily = "odr_session_watts"
	tilesOutcomeFamily = "odr_tiles_outcome_total"
)

// LoadFromRegistry derives a LoadReport from reg's /metrics exposition, the
// same document an operator scrapes: it renders reg, parses it back and reads
// the load from the parsed samples. A render or parse error reports zeros.
func LoadFromRegistry(reg *obs.Registry) LoadReport {
	var buf bytes.Buffer
	if err := obs.WritePrometheusWith(&buf, reg, false); err != nil {
		return LoadReport{}
	}
	sc, err := scrape.ParseBytes(buf.Bytes())
	if err != nil {
		return LoadReport{}
	}
	return loadFromScrape(sc)
}

// loadFromScrape reads a LoadReport off a parsed /metrics document:
// sessions is the number of odr_session_fps series (the hub's own
// session="shared" probe excluded), watts sums odr_session_watts across all
// series, and the dirty ratio comes from the odr_tiles_outcome_total
// counters. A worker that has served nothing reports zeros.
func loadFromScrape(sc *scrape.Scrape) LoadReport {
	var load LoadReport
	for _, sm := range sc.Series(sessionFPSFamily) {
		if sm.Label("session") != "shared" {
			load.Sessions++
		}
	}
	for _, sm := range sc.Series(sessionWattsFamily) {
		load.Watts += sm.Value
	}
	dirty := sc.Number(tilesOutcomeFamily, scrape.Label{Name: "tile_outcome", Value: "dirty"})
	clean := sc.Number(tilesOutcomeFamily, scrape.Label{Name: "tile_outcome", Value: "clean"})
	if dirty+clean > 0 {
		load.DirtyRatio = dirty / (dirty + clean)
	}
	return load
}
