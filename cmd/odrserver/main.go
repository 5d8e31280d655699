// Command odrserver runs the real-time streaming server: it listens for
// clients, renders the synthetic 3D application, regulates it with the
// chosen policy, encodes frames and streams them.
//
// Usage:
//
//	odrserver [-addr :7311] [-policy odr|int|interval|noreg] [-fps 60]
//	          [-width 640] [-height 360] [-once]
//	          [-debug-addr :8099]
//
// Every client attaches to one hub: all of them share one rendered game, and
// clients at the same resolution also share one encoder (each frame is
// encoded once and fanned out; late joiners get spliced catch-up keyframes)
// while pacing and session buffering stay per-client. -policy sets the hub's
// regulation policy, named as core.ParsePolicy names it; rvs is refused
// before the server listens, since a hub has no RVS. With -once the server
// exits when its first client detaches.
//
// With -debug-addr, the server exposes live observability over HTTP:
// /debug/odr (JSON snapshot of the regulation state and telemetry
// registry), /metrics (Prometheus text exposition of the same registry,
// including the per-session QoE/energy series), /debug/vars (expvar) and
// /debug/pprof/ (profiles).
//
// With -master, the server joins a cluster as a worker: it registers its
// data-plane address with the odrmaster control plane, heartbeats with a
// load report derived from its own /metrics surface (sessions, watts,
// dirty-tile ratio), and obeys drain orders — the hub drains (orderly
// goodbye per session), the worker deregisters, and the process exits while
// clients re-resolve through the master onto surviving workers. -advertise
// overrides the data-plane address registered with
// the master when -addr is not dialable from clients (e.g. ":7311").
//
// -metrics-lint validates the full metric surface against the registry
// naming conventions and exits (0 clean, 1 with violations printed); the
// same lint also guards normal startup.
//
// On SIGINT/SIGTERM the server shuts down gracefully and logs a final
// telemetry summary (one line per instrument, sorted by name) before
// exiting.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"odr"
	"odr/internal/cluster"
	"odr/internal/core"
	"odr/internal/obs"
	"odr/internal/stream"
)

// registerAll pre-registers every metric family odrserver can export: the
// shared frame-pipeline instruments and the labeled live-session surface.
func registerAll(reg *odr.MetricsRegistry) {
	obs.NewFrameInstruments(reg)
	stream.RegisterLiveMetrics(reg)
}

// lintMetrics builds the full surface in a scratch registry and reports
// convention violations (-metrics-lint, and the make metrics-check target).
func lintMetrics() int {
	reg := odr.NewMetricsRegistry()
	registerAll(reg)
	errs := obs.Lint(reg)
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "metrics-lint: %v\n", err)
	}
	if len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "metrics-lint: %d violation(s)\n", len(errs))
		return 1
	}
	fmt.Printf("metrics-lint: %d families clean\n", len(reg.Names()))
	return 0
}

func main() {
	addr := flag.String("addr", ":7311", "listen address")
	policy := flag.String("policy", "odr", "regulation policy: odr, int (or interval), noreg")
	fps := flag.Float64("fps", 60, "target FPS (0 means 60)")
	width := flag.Int("width", 640, "frame width")
	height := flag.Int("height", 360, "frame height")
	once := flag.Bool("once", false, "exit when the first client detaches")
	master := flag.String("master", "", "join this odrmaster control plane as a cluster worker")
	workerID := flag.String("worker-id", "", "stable worker ID for -master (default: the advertised address)")
	advertise := flag.String("advertise", "", "data-plane address registered with -master (default: the listen address)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/odr, /metrics, /debug/vars and /debug/pprof/ on this address")
	metricsLint := flag.Bool("metrics-lint", false, "validate the metric naming conventions and exit")
	flag.Parse()

	if *metricsLint {
		os.Exit(lintMetrics())
	}

	pol, err := core.ParsePolicy(*policy, *fps)
	if err == nil {
		err = stream.CheckRule(pol.Rule)
	}
	if err != nil {
		log.Fatalf("odrserver: -policy %s: %v", *policy, err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("odrserver: %s policy, target %.0f FPS, %dx%d, listening on %s",
		pol.Rule, *fps, *width, *height, ln.Addr())

	reg := odr.NewMetricsRegistry()
	// Pre-register every family this process can export, then hold startup
	// to the naming conventions — a misnamed instrument is a bug caught
	// here, not a broken dashboard discovered later.
	registerAll(reg)
	obs.MustLint(reg)
	hub := odr.NewHub(odr.HubConfig{
		Width: *width, Height: *height, Policy: pol.Rule, TargetFPS: *fps,
		Metrics: reg,
		Logf:    log.Printf,
	})
	go hub.Run()

	if *debugAddr != "" {
		ds, err := odr.ServeDebugWithMetrics(*debugAddr, reg, func() any {
			return map[string]any{"metrics": reg.Snapshot(), "hub": hub.Snapshot()}
		})
		if err != nil {
			log.Fatal(err)
		}
		defer ds.Close()
		log.Printf("debug endpoint on http://%s/debug/odr (Prometheus at /metrics, pprof at /debug/pprof/)", ds.Addr())
	}

	// Graceful shutdown: close the listener so Accept unblocks, stop the
	// hub, then log the final telemetry summary. The signal handler, a
	// cluster drain order and -once's first detach all end up here.
	done := make(chan struct{})
	var shutdownOnce sync.Once
	shutdown := func(reason string) {
		shutdownOnce.Do(func() {
			log.Printf("%s: shutting down", reason)
			close(done)
			ln.Close()
		})
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { shutdown(fmt.Sprintf("received %v", <-sig)) }()

	if *master != "" {
		masterURL := *master
		if strings.HasPrefix(masterURL, ":") {
			masterURL = "127.0.0.1" + masterURL
		}
		if !strings.Contains(masterURL, "://") {
			masterURL = "http://" + masterURL
		}
		adAddr := *advertise
		if adAddr == "" {
			adAddr = ln.Addr().String()
			// ":7311" listens on every interface but is not dialable; give
			// the master a loopback address unless told otherwise.
			if h, p, err := net.SplitHostPort(adAddr); err == nil && (h == "" || h == "::") {
				adAddr = net.JoinHostPort("127.0.0.1", p)
			}
		}
		id := *workerID
		if id == "" {
			id = adAddr
		}
		agent := odr.NewClusterWorker(odr.ClusterWorkerConfig{
			ID:        id,
			MasterURL: masterURL,
			Addr:      adAddr,
			// The load report is derived from the same /metrics surface
			// operators scrape: live session series, watts, dirty-tile ratio.
			Load: func() cluster.LoadReport { return cluster.LoadFromRegistry(reg) },
			OnDrain: func() {
				log.Printf("cluster: drain ordered; draining hub")
				if err := hub.Drain(15 * time.Second); err != nil {
					log.Printf("cluster: hub drain: %v", err)
				}
			},
			Logf: log.Printf,
		})
		defer agent.Stop()
		go func() {
			if err := agent.Run(); err != nil {
				log.Printf("cluster: worker agent: %v", err)
			}
			// The agent only returns on Stop or after a completed drain; in
			// the drain case the hub is empty and the process should exit.
			shutdown("cluster: worker agent exited")
		}()
		log.Printf("cluster worker %s: data plane %s, master %s", id, adAddr, masterURL)
	}
	finish := func() {
		hub.Stop() // logs its own summary via Logf
		// One line per instrument, sorted by canonical name — the same
		// ordering /metrics exports.
		var b strings.Builder
		if err := reg.WriteSummary(&b); err != nil {
			log.Printf("final stats: <unserializable: %v>", err)
			return
		}
		log.Printf("final stats:\n%s", strings.TrimRight(b.String(), "\n"))
	}
	defer finish()

	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-done:
				return
			default:
			}
			log.Fatal(err)
		}
		remote := conn.RemoteAddr()
		log.Printf("client connected: %s", remote)
		hub.Attach(conn, 0, func(st odr.SessionStats) {
			log.Printf("client %s detached: sent %d, dropped %d", remote, st.Sent, st.Dropped)
			if *once {
				shutdown("-once: first client detached")
			}
		})
	}
}
