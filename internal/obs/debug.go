package obs

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the optional live-telemetry HTTP listener: it serves the
// standard Go debug surfaces (expvar at /debug/vars, pprof at
// /debug/pprof/), /debug/odr, a JSON document of the caller's own state
// (hub sessions, pacer state, worker registry, ...), and — when built
// with a registry — /metrics in Prometheus text exposition format.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebugRegistry starts a debug listener on addr (":0" picks a free
// port) and serves until Close. snapshot is invoked per /debug/odr
// request; it may be nil, in which case /debug/odr serves an empty object.
// When reg is non-nil, /metrics serves the registry's canonical
// instruments (plus Go runtime stats and odr_build_info) in text
// exposition format — the single read path of a registry, which soaks,
// dashboards (cmd/odrtop) and CI regression gates scrape.
func ServeDebugRegistry(addr string, reg *Registry, snapshot func() any) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/odr", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var v any = map[string]any{}
		if snapshot != nil {
			v = snapshot()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
	if reg != nil {
		mux.Handle("/metrics", PromHandler(reg))
	}
	d := &DebugServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = d.srv.Serve(ln) }()
	return d, nil
}

// Addr returns the listener's address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the listener and closes idle connections.
func (d *DebugServer) Close() error { return d.srv.Close() }
