// Command odrserver runs the real-time streaming server: it listens for a
// client, renders the synthetic 3D application, regulates it with the
// chosen policy, encodes frames and streams them.
//
// Usage:
//
//	odrserver [-addr :7311] [-policy odr|interval|noreg] [-fps 60]
//	          [-width 640] [-height 360] [-once] [-hub]
//	          [-debug-addr :8099]
//
// With -hub, all connected clients share one rendered game: clients at the
// same resolution also share one encoder (each frame is encoded once and
// fanned out; late joiners get spliced catch-up keyframes) while pacing
// stays per-client. Without it, each client gets a private session.
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
// clients re-resolve through the master onto surviving workers. -master
// implies -hub. -advertise overrides the data-plane address registered with
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
	"bytes"
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
	"odr/internal/obs"
	"odr/internal/obs/scrape"
	"odr/internal/stream"
)

// active tracks the live private sessions for the /debug/odr snapshot.
type active struct {
	mu   sync.Mutex
	next int
	m    map[int]*odr.StreamServer
}

func (a *active) add(s *odr.StreamServer) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.m == nil {
		a.m = make(map[int]*odr.StreamServer)
	}
	a.next++
	a.m[a.next] = s
	return a.next
}

func (a *active) remove(id int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.m, id)
}

func (a *active) snapshots() []map[string]any {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]map[string]any, 0, len(a.m))
	for _, s := range a.m {
		out = append(out, s.DebugSnapshot())
	}
	return out
}

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
	policy := flag.String("policy", "odr", "regulation policy: odr, interval, noreg")
	fps := flag.Float64("fps", 60, "target FPS (0 = maximize)")
	width := flag.Int("width", 640, "frame width")
	height := flag.Int("height", 360, "frame height")
	once := flag.Bool("once", false, "serve a single client, then exit")
	hubMode := flag.Bool("hub", false, "share one game across all clients (spectating)")
	master := flag.String("master", "", "join this odrmaster control plane as a cluster worker (implies -hub)")
	workerID := flag.String("worker-id", "", "stable worker ID for -master (default: the advertised address)")
	advertise := flag.String("advertise", "", "data-plane address registered with -master (default: the listen address)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/odr, /metrics, /debug/vars and /debug/pprof/ on this address")
	metricsLint := flag.Bool("metrics-lint", false, "validate the metric naming conventions and exit")
	flag.Parse()

	if *metricsLint {
		os.Exit(lintMetrics())
	}
	if *master != "" {
		// A cluster worker serves many migrating clients out of one shared
		// game; private sessions cannot be re-placed.
		*hubMode = true
	}

	var kind odr.StreamPolicy
	switch *policy {
	case "odr":
		kind = odr.StreamODR
	case "interval", "int":
		kind = odr.StreamInterval
	case "noreg":
		kind = odr.StreamNoReg
	default:
		log.Fatalf("unknown policy %q", *policy)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("odrserver: %s policy, target %.0f FPS, %dx%d, listening on %s",
		kind, *fps, *width, *height, ln.Addr())

	reg := odr.NewMetricsRegistry()
	// Pre-register every family this process can export, then hold startup
	// to the naming conventions — a misnamed instrument is a bug caught
	// here, not a broken dashboard discovered later.
	registerAll(reg)
	obs.MustLint(reg)
	var sessions active
	var hub *odr.Hub
	if *hubMode {
		hub = odr.NewHub(odr.HubConfig{
			Width: *width, Height: *height, TargetFPS: *fps,
			Metrics: reg,
			Logf:    log.Printf,
		})
		go hub.Run()
	}

	if *debugAddr != "" {
		ds, err := odr.ServeDebugWithMetrics(*debugAddr, reg, func() any {
			snap := map[string]any{"metrics": reg.Snapshot()}
			if hub != nil {
				snap["hub"] = hub.Snapshot()
			} else {
				snap["sessions"] = sessions.snapshots()
			}
			return snap
		})
		if err != nil {
			log.Fatal(err)
		}
		defer ds.Close()
		log.Printf("debug endpoint on http://%s/debug/odr (Prometheus at /metrics, pprof at /debug/pprof/)", ds.Addr())
	}

	// Graceful shutdown: close the listener so Accept unblocks, stop the
	// hub if any, then log the final telemetry summary. Both the signal
	// handler and a cluster drain order end up here.
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
			Load: func() cluster.LoadReport {
				var buf bytes.Buffer
				if err := obs.WritePrometheusWith(&buf, reg, false); err != nil {
					return cluster.LoadReport{}
				}
				sc, err := scrape.ParseBytes(buf.Bytes())
				if err != nil {
					return cluster.LoadReport{}
				}
				return cluster.LoadFromScrape(sc)
			},
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
		if hub != nil {
			hub.Stop() // logs its own summary via Logf
		}
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

	var connSeq int
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
		if hub != nil {
			remote := conn.RemoteAddr()
			log.Printf("hub client connected: %s", remote)
			hub.Attach(conn, 0, func(st odr.SessionStats) {
				log.Printf("hub client %s detached: sent %d, dropped %d", remote, st.Sent, st.Dropped)
			})
			continue
		}
		log.Printf("client connected: %s", conn.RemoteAddr())
		connSeq++
		srv := odr.NewStreamServer(conn, odr.StreamServerConfig{
			Width: *width, Height: *height, Policy: kind, TargetFPS: *fps,
			Metrics:      reg,
			SessionLabel: fmt.Sprintf("s%d", connSeq),
		})
		id := sessions.add(srv)
		start := time.Now()
		if err := srv.Run(); err != nil {
			log.Printf("session error: %v", err)
		}
		sessions.remove(id)
		st := srv.Stats().Snapshot()
		secs := time.Since(start).Seconds()
		log.Printf("session done after %.1fs: rendered %d (%.1f/s), sent %d (%.1f/s), dropped %d, priority %d",
			secs, st.Rendered, float64(st.Rendered)/secs, st.Sent, float64(st.Sent)/secs, st.Dropped, st.Priority)
		if *once {
			return
		}
	}
}
