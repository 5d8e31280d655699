// Command odrmaster runs the cluster control plane: it registers odrserver
// workers (started with -master), health-checks them against a heartbeat
// deadline, answers client placement queries with the least-loaded worker,
// and drains or migrates sessions on worker failure or scale-down.
//
// Usage:
//
//	odrmaster [-addr :7400] [-hb 250ms] [-deadline 1s]
//	          [-debug-addr :8098] [-drain worker-id]
//
// The control surface is JSON over HTTP on -addr:
//
//	POST /cluster/register    worker announce (odrserver -master does this)
//	POST /cluster/heartbeat   liveness + load report; piggybacks drain orders
//	POST /cluster/deregister  orderly worker removal
//	POST /cluster/drain       operator scale-down order for one worker
//	GET  /cluster/place       placement query: the worker a client should dial
//	GET  /cluster/workers     registry snapshot (id, state, load, score)
//
// With -drain ID the command acts as an operator client instead: it posts a
// drain order for the named worker to -addr and exits.
//
// With -debug-addr, the master exposes /metrics (the odr_cluster_* families:
// fleet size by state, placements, heartbeats, worker failures, drain
// orders, per-worker load score), /debug/odr (the worker registry as JSON)
// and /debug/pprof/. Startup registers the whole cluster metric surface and
// panics if a family breaks the registry naming conventions (obs.MustLint);
// on SIGINT/SIGTERM the master logs the final telemetry as the Prometheus
// document /metrics serves.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"odr"
	"odr/internal/cluster"
	"odr/internal/obs"
)

// orderDrain posts an operator drain order to a running master.
func orderDrain(addr, id string) int {
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	body, _ := json.Marshal(cluster.DrainRequest{ID: id})
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Post(addr+cluster.PathDrain, "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "odrmaster: drain: %v\n", err)
		return 1
	}
	defer resp.Body.Close()
	var dr cluster.DrainResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		fmt.Fprintf(os.Stderr, "odrmaster: drain: %v\n", err)
		return 1
	}
	if !dr.OK {
		fmt.Fprintf(os.Stderr, "odrmaster: drain refused: %s\n", dr.Error)
		return 1
	}
	fmt.Printf("drain ordered for worker %s\n", id)
	return 0
}

func main() {
	addr := flag.String("addr", ":7400", "control-plane listen address")
	hb := flag.Duration("hb", 250*time.Millisecond, "heartbeat interval dictated to workers")
	deadline := flag.Duration("deadline", 0, "heartbeat deadline before a worker is declared dead (0 = 4x the interval)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/odr and /debug/pprof/ on this address")
	drainID := flag.String("drain", "", "act as an operator client: order this worker to drain, then exit")
	flag.Parse()

	if *drainID != "" {
		os.Exit(orderDrain(*addr, *drainID))
	}

	reg := odr.NewMetricsRegistry()
	// Pre-register the whole cluster surface, then hold startup to the
	// naming conventions — same gate as odrserver.
	odr.RegisterClusterMetrics(reg)
	obs.MustLint(reg)

	m := odr.NewClusterMaster(odr.ClusterMasterConfig{
		HeartbeatInterval: *hb,
		HeartbeatDeadline: *deadline,
		Metrics:           reg,
		Logf:              log.Printf,
	})
	go m.Run()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: m.Handler()}
	log.Printf("odrmaster: control plane on %s (beat every %v)", ln.Addr(), *hb)

	if *debugAddr != "" {
		ds, err := odr.ServeDebugWithMetrics(*debugAddr, reg, func() any {
			return map[string]any{"workers": m.Workers()}
		})
		if err != nil {
			log.Fatal(err)
		}
		defer ds.Close()
		log.Printf("debug endpoint on http://%s/debug/odr (Prometheus at /metrics)", ds.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %v: shutting down", s)
	case err := <-serveErr:
		log.Printf("control listener: %v", err)
	}
	srv.Close()
	m.Stop()

	var b strings.Builder
	if err := obs.WritePrometheusWith(&b, reg, false); err != nil {
		log.Printf("final stats: <unserializable: %v>", err)
		return
	}
	log.Printf("final stats:\n%s", strings.TrimRight(b.String(), "\n"))
}
