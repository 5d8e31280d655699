package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"odr"
	"odr/internal/obs"
)

// viewerClass is one listener of the server child: every connection it
// accepts is attached with the same options, so the viewer's pacing and
// resolution are chosen server-side, as a deployment would.
type viewerClass struct {
	Name      string  `json:"name"`
	ClientFPS float64 `json:"client_fps"`
	Downscale int     `json:"downscale"`
}

// serveConfig is everything the server child is told. It carries no seed and
// no workload name: the system under test sees only generated traffic.
type serveConfig struct {
	Width       int           `json:"width"`
	Height      int           `json:"height"`
	TargetFPS   float64       `json:"target_fps"`
	Trace       bool          `json:"trace"`
	TraceEvents int           `json:"trace_events"`
	Classes     []viewerClass `json:"classes"`
}

// serveReady is the one line the child prints once it is accepting.
type serveReady struct {
	PID        int               `json:"pid"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Debug      string            `json:"debug"`
	Listeners  map[string]string `json:"listeners"`
	// EpochUnixNs is the wall-clock instant the hub's trace offsets count
	// from (sampled around odr.NewHub, which samples its own epoch inside).
	EpochUnixNs int64 `json:"epoch_unix_ns"`
}

// serveDump is what the child writes (gob) after it has stopped the hub.
type serveDump struct {
	// FinalMetrics is the registry in Prometheus text form, taken after
	// Hub.Stop, when the counter identities hold exactly.
	FinalMetrics []byte
	Events       []odr.TraceEvent
	TraceDropped uint64
}

// serveSnapshot is the child's /debug/odr document.
type serveSnapshot struct {
	Hub           map[string]any `json:"hub"`
	SenderPasses  int64          `json:"sender_passes"`
	SenderFrames  int64          `json:"sender_frames"`
	Mallocs       uint64         `json:"mallocs"`
	QueueDepthMax float64        `json:"queue_depth_max"`
	WheelLagUsMax float64        `json:"wheel_lag_us_max"`
}

// gaugeMaxSampleEvery is how often the child samples the two engine gauges
// whose maximum over a window is reported: a gauge scraped twice cannot show
// a peak between the scrapes.
const gaugeMaxSampleEvery = 10 * time.Millisecond

// serveMain is the system under test: an odr.Hub on real loopback listeners
// with the codec options cmd/odrserver -hub uses, until stdin closes.
func serveMain(cfgJSON string) error {
	var cfg serveConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		return fmt.Errorf("serve config: %w", err)
	}
	reg := odr.NewMetricsRegistry()
	var tr *odr.Tracer
	if cfg.Trace {
		tr = odr.NewTracer(cfg.TraceEvents)
	}
	before := time.Now()
	hub := odr.NewHub(odr.HubConfig{
		Width: cfg.Width, Height: cfg.Height, TargetFPS: cfg.TargetFPS,
		Codec:   odr.CodecOptions{},
		Metrics: reg,
		Trace:   tr,
	})
	epoch := before.Add(time.Since(before) / 2)
	go hub.Run()

	ready := serveReady{
		PID:         os.Getpid(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Listeners:   make(map[string]string),
		EpochUnixNs: epoch.UnixNano(),
	}
	var accepting sync.WaitGroup
	var listeners []net.Listener
	for _, class := range cfg.Classes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners = append(listeners, ln)
		ready.Listeners[class.Name] = ln.Addr().String()
		opts := odr.HubAttachOptions{ClientFPS: class.ClientFPS, Downscale: class.Downscale}
		accepting.Add(1)
		go func() {
			defer accepting.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				hub.AttachWithOptions(conn, opts)
			}
		}()
	}

	queueGauge := reg.Gauge(odr.NameHubSenderQueueDepth)
	lagGauge := reg.Gauge(odr.NameHubTimerwheelLagUs)
	var maxMu sync.Mutex
	var queueMax, lagMax float64
	stopSampling := make(chan struct{})
	var sampling sync.WaitGroup
	sampling.Add(1)
	go func() {
		defer sampling.Done()
		tick := time.NewTicker(gaugeMaxSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				maxMu.Lock()
				queueMax = max(queueMax, queueGauge.Value())
				lagMax = max(lagMax, lagGauge.Value())
				maxMu.Unlock()
			}
		}
	}()

	ds, err := odr.ServeDebugWithMetrics("127.0.0.1:0", reg, func() any {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		passes, frames := hub.SenderBatchStats()
		snap := serveSnapshot{
			Hub:          hub.Snapshot(),
			SenderPasses: passes,
			SenderFrames: frames,
			Mallocs:      ms.Mallocs,
		}
		// Each read returns the peaks since the previous read, so the parent's
		// window-start and window-end reads bracket exactly the window.
		maxMu.Lock()
		snap.QueueDepthMax, snap.WheelLagUsMax = queueMax, lagMax
		queueMax, lagMax = 0, 0
		maxMu.Unlock()
		return snap
	})
	if err != nil {
		return err
	}
	ready.Debug = ds.Addr()

	line, err := json.Marshal(ready)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(os.Stdout, "%s\n", line); err != nil {
		return err
	}

	// The parent closes our stdin to end the run.
	_, _ = io.Copy(io.Discard, os.Stdin)

	for _, ln := range listeners {
		ln.Close()
	}
	accepting.Wait()
	hub.Stop()
	close(stopSampling)
	sampling.Wait()
	ds.Close()

	var final bytes.Buffer
	if err := obs.WritePrometheusWith(&final, reg, false); err != nil {
		return err
	}
	dump := serveDump{FinalMetrics: final.Bytes(), Events: tr.Events(), TraceDropped: tr.Dropped()}
	return gob.NewEncoder(os.Stdout).Encode(dump)
}
