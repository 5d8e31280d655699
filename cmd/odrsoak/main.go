// Command odrsoak churn-tests the streaming stack under deterministic fault
// injection: N reconnecting clients attach to one hub through chaos-wrapped
// connections running a named (or custom) fault schedule, survive the faults
// for the configured duration, and then the run ends with a graceful drain.
//
// Usage:
//
//	odrsoak [-clients 8] [-schedule flaky] [-seed 1] [-duration 10s]
//	        [-fps 240] [-width 64] [-height 36] [-retry 8] [-v]
//	odrsoak -fanout 1000 [-width 48] [-height 27] [-fps 10] ...
//	odrsoak -cluster [-workers 3] [-clients 8] ...
//
// With -fanout N the run switches to the encode-once scale test (see
// fanout.go): N same-resolution viewers share one lane encoder, a slice of
// them churns through chaos-wrapped reconnects, and the invariants assert
// the hub encoded O(frames) — not O(viewers x frames) — while every viewer
// decoded byte-identical pixels.
//
// With -cluster the run switches to the control-plane failover test (see
// cluster.go): an odrmaster-equivalent master places chaos-churned clients
// across -workers in-process workers, one worker is killed and another
// drained mid-run, and the invariants assert zero sessions lost, bounded
// resync gaps, pixel identity across migration and clean cluster accounting.
//
// The run finishes with a pass/fail invariant report and a nonzero exit on
// any failure:
//
//   - liveness: every client loop exits after the drain — no deadlock;
//     a watchdog dumps all goroutine stacks and exits 2 if the process
//     wedges entirely
//   - pixel identity: the codec is run lossless, the game is deterministic
//     and clients send no inputs, so every decoded frame must be
//     byte-identical to an independently rendered reference for its
//     sequence number — corruption must be caught, never displayed
//   - resume or clean detach: fault-hit sessions either reconnect and
//     resume or end with a reported error, never a silent wedge
//   - no goroutine leaks: after the drain, the goroutine count returns to
//     the pre-run baseline
//   - tile accounting: the exported tile counters must agree with the
//     frame counters — odr_tiles_coded_total is exactly
//     odr_frames_encoded_total x tiles-per-frame, and odr_tiles_dirty_total
//     never exceeds it
//
// The run also scrapes its own /metrics endpoint (the Prometheus surface
// odrserver exposes) through internal/obs/scrape and asserts metric
// predicates against the parsed samples: frame conservation across the
// pipeline counters, agreement between the Prometheus and /debug/odr JSON
// views of the registry (the hub snapshot's totals included), tile-outcome
// accounting of the labeled odr_tiles_outcome_total series, bounded
// per-session series cardinality with zero label-set evictions, and
// non-negative per-session energy.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"odr"
	"odr/internal/chaos"
	"odr/internal/codec"
	"odr/internal/obs"
	"odr/internal/obs/scrape"
	"odr/internal/stream"
	"odr/internal/testutil"
)

// scrapeMetrics fetches and parses one exposition document from url.
func scrapeMetrics(url string) (*scrape.Scrape, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return scrape.Parse(resp.Body)
}

// refTable lazily renders the deterministic reference frames and memoizes
// their hashes by render sequence number.
type refTable struct {
	mu     sync.Mutex
	game   *stream.Game
	hashes [][sha256.Size]byte
}

func newRefTable(w, h int) *refTable {
	return &refTable{game: stream.NewGame(w, h)}
}

func (r *refTable) hash(seq uint64) [sha256.Size]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	for uint64(len(r.hashes)) < seq {
		pix := make([]byte, r.game.FrameBytes())
		r.game.Render(pix)
		r.hashes = append(r.hashes, sha256.Sum256(pix))
	}
	return r.hashes[seq-1]
}

// soakClient is one churning viewer and its outcome counters.
type soakClient struct {
	idx        int
	cli        *odr.StreamClient
	runErr     chan error
	sessions   int64
	mismatches int64
	finalErr   error
	hung       bool
}

func main() {
	clients := flag.Int("clients", 8, "number of concurrent reconnecting clients")
	schedule := flag.String("schedule", "flaky", "fault schedule: a named one (clean, flaky, lossy, degraded, partition) or a spec like latency@0:2ms,disc@65536")
	seed := flag.Int64("seed", 1, "base RNG seed (per-client, per-session seeds derive from it)")
	duration := flag.Duration("duration", 10*time.Second, "how long to churn before draining")
	fps := flag.Float64("fps", 240, "hub render FPS")
	width := flag.Int("width", 64, "frame width")
	height := flag.Int("height", 36, "frame height")
	retry := flag.Int("retry", 8, "per-client consecutive reconnect budget")
	fanout := flag.Int("fanout", 0, "fan-out mode: attach this many shared-lane viewers instead of the classic churn run")
	clusterMode := flag.Bool("cluster", false, "cluster mode: master + workers with a mid-run kill and drain (see cluster.go)")
	workers := flag.Int("workers", 3, "worker count for -cluster")
	verbose := flag.Bool("v", false, "log per-client progress")
	faildump := flag.String("faildump", "", "fan-out mode: write a full goroutine dump to this path when invariants fail")
	flag.Parse()

	sched, err := chaos.Named(*schedule)
	if err != nil {
		if sched, err = chaos.Parse(*schedule); err != nil {
			log.Fatalf("odrsoak: %v", err)
		}
	}
	if *fanout > 0 {
		runFanout(*fanout, sched, *seed, *duration, *fps, *width, *height, *retry, *verbose, *faildump)
		return
	}
	if *clusterMode {
		runCluster(*clients, *workers, sched, *seed, *duration, *fps, *width, *height, *retry, *verbose)
		return
	}
	log.Printf("odrsoak: %d clients, schedule %q -> %q, seed %d, %v at %dx%d@%.0ffps",
		*clients, *schedule, sched.String(), *seed, *duration, *width, *height, *fps)

	// Baseline before anything the run owns is spawned.
	base := testutil.Snapshot()

	ref := newRefTable(*width, *height)
	metrics := odr.NewMetricsRegistry()
	hubCfg := odr.HubConfig{
		Width: *width, Height: *height, TargetFPS: *fps,
		// Lossless on purpose: pixel identity against the reference is the
		// corruption-detection invariant.
		Codec:   odr.CodecOptions{QuantShift: 0},
		Metrics: metrics,
	}
	if *verbose {
		hubCfg.Logf = log.Printf
	}
	hub := odr.NewHub(hubCfg)
	go hub.Run()

	// The run scrapes its own Prometheus surface for the metric-predicate
	// invariants — the same endpoint odrserver -debug-addr exposes.
	debug, err := odr.ServeDebugWithMetrics("127.0.0.1:0", metrics, nil)
	if err != nil {
		log.Fatalf("odrsoak: debug listener: %v", err)
	}

	// The watchdog catches a full wedge: if the run (including drain and
	// shutdown) takes 3x its nominal length plus a minute, something is
	// deadlocked — dump every stack and fail hard.
	watchdog := time.AfterFunc(3*(*duration)+time.Minute, func() {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "odrsoak: WATCHDOG: run wedged; goroutine dump:\n%s\n", buf[:n])
		os.Exit(2)
	})

	all := make([]*soakClient, *clients)
	for i := range all {
		sc := &soakClient{idx: i, runErr: make(chan error, 1)}
		all[i] = sc
		dial := func() (net.Conn, error) {
			session := atomic.AddInt64(&sc.sessions, 1)
			hubEnd, clientEnd := net.Pipe()
			// Distinct deterministic seed per (client, session): runs with
			// the same flags replay the same faults everywhere.
			connSeed := *seed + int64(sc.idx)*1009 + session*101
			hub.Attach(odr.WrapChaos(hubEnd, sched, connSeed), 0, nil)
			return clientEnd, nil
		}
		sc.cli = odr.NewReconnectingStreamClient(dial, odr.ReconnectPolicy{
			MaxAttempts: *retry,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
			IdleTimeout: 2 * time.Second,
			Seed:        *seed + int64(i),
		})
		sc.cli.OnFrame(func(seq uint64, pix []byte) {
			if seq == 0 {
				return
			}
			if sha256.Sum256(pix) != ref.hash(seq) {
				atomic.AddInt64(&sc.mismatches, 1)
			}
		})
		go func(sc *soakClient) { sc.runErr <- sc.cli.Run() }(sc)
	}

	time.Sleep(*duration)

	// End-of-run churn: half the clients stop abruptly (the user closing the
	// viewer), the rest are seen out gracefully by the hub drain.
	for _, sc := range all[:len(all)/2] {
		sc.cli.Stop()
	}
	drainErr := hub.Drain(15 * time.Second)

	for _, sc := range all {
		select {
		case sc.finalErr = <-sc.runErr:
		case <-time.After(20 * time.Second):
			sc.hung = true
		}
		sc.cli.Stop() // idempotent; frees a hung client's conn if any
	}
	watchdog.Stop()
	// Scrape the Prometheus surface while the counters are final (hub
	// drained), then close the listener so its goroutines are gone before
	// the leak check runs.
	scraped, scrapeErr := scrapeMetrics("http://" + debug.Addr() + "/metrics")
	debug.Close()
	leakErr := base.Check(5 * time.Second)

	// ----- Invariant report -------------------------------------------------
	var frames, resyncs, reconnects, mismatches, errored, hung int64
	for _, sc := range all {
		rep := sc.cli.Report()
		frames += rep.Frames
		resyncs += rep.Resyncs
		reconnects += rep.Reconnects
		mismatches += atomic.LoadInt64(&sc.mismatches)
		if sc.hung {
			hung++
		}
		if sc.finalErr != nil {
			errored++
		}
		if *verbose {
			log.Printf("client %2d: frames=%5d resyncs=%d reconnects=%d sessions=%d mismatches=%d err=%v hung=%v",
				sc.idx, rep.Frames, rep.Resyncs, rep.Reconnects,
				atomic.LoadInt64(&sc.sessions), atomic.LoadInt64(&sc.mismatches), sc.finalErr, sc.hung)
		}
	}
	log.Printf("totals: frames=%d resyncs=%d reconnects=%d evicted=%d detached-with-error=%d",
		frames, resyncs, reconnects, hub.Evicted(), errored)

	fail := 0
	check := func(name string, ok bool, detail string) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
			fail++
		}
		log.Printf("%s  %-24s %s", verdict, name, detail)
	}
	check("liveness", hung == 0, fmt.Sprintf("%d/%d client loops exited", int64(len(all))-hung, len(all)))
	check("pixel-identity", mismatches == 0, fmt.Sprintf("%d decoded frames, %d mismatched the reference", frames, mismatches))
	check("frames-delivered", frames > 0, fmt.Sprintf("%d frames decoded under schedule %q", frames, *schedule))
	check("graceful-drain", drainErr == nil, fmt.Sprintf("hub.Drain: %v", drainErr))
	leakDetail := "goroutines returned to baseline"
	if leakErr != nil {
		leakDetail = strings.SplitN(leakErr.Error(), "\n", 2)[0]
	}
	check("no-goroutine-leaks", leakErr == nil, leakDetail)

	// Tile accounting: every encoded frame contributes exactly
	// ceil(h/DefaultTileRows) tiles to odr_tiles_coded_total, and only a
	// subset of them can be dirty. A drift here means the encoder and its
	// telemetry disagree about what was put on the wire.
	snap := metrics.Snapshot()
	encoded, _ := snap[obs.NameFramesEncoded].(int64)
	tilesCoded, _ := snap[obs.NameTilesCoded].(int64)
	tilesDirty, _ := snap[obs.NameTilesDirty].(int64)
	perFrame := int64((*height + codec.DefaultTileRows - 1) / codec.DefaultTileRows)
	check("tile-accounting",
		encoded > 0 && tilesCoded == encoded*perFrame && tilesDirty > 0 && tilesDirty <= tilesCoded,
		fmt.Sprintf("%d frames x %d tiles = %d coded, %d dirty", encoded, perFrame, tilesCoded, tilesDirty))

	// ----- Scrape-driven metric predicates ---------------------------------
	// The same surface a Prometheus server or odrtop would read; the hub is
	// drained, so the counters are final and the two views must agree.
	check("metrics-scrape", scrapeErr == nil, fmt.Sprintf("GET /metrics parsed: %v", scrapeErr))
	if scrapeErr == nil {
		s := scraped
		renderedP := s.Number("odr_frames_rendered_total")
		encodedP := s.Number("odr_frames_encoded_total")
		displayedP := s.Number("odr_frames_displayed_total")
		// The hub encodes each frame once per lane and fans it out, so
		// displayed can exceed encoded (many viewers per encode) — but the
		// encoder must never outrun the renderer.
		check("prom-frame-conservation",
			renderedP > 0 && encodedP > 0 && encodedP <= renderedP && displayedP > 0,
			fmt.Sprintf("rendered=%.0f >= encoded=%.0f (shared), displayed=%.0f", renderedP, encodedP, displayedP))
		// The hub's own snapshot totals are read from the same registry, so
		// each must equal its scraped counter exactly.
		hubSnap := hub.Snapshot()
		policy, _ := hubSnap["policy"].(string)
		hubTotals := []struct {
			key  string
			prom float64
		}{
			{"rendered", renderedP},
			{"inputs", s.Number(obs.NameInputs)},
			{"sent", displayedP},
			{"dropped", s.Number(obs.NameFramesDropped)},
			{"evicted", s.Number(obs.NameSessionsEvicted)},
			{"sessions_served", s.Number(stream.NameSessionsStarted, scrape.Label{Name: "policy", Value: policy})},
		}
		hubDetail := "all six hub totals agree"
		var hubOff []string
		for _, ht := range hubTotals {
			if v, _ := hubSnap[ht.key].(int64); float64(v) != ht.prom {
				hubOff = append(hubOff, fmt.Sprintf("%s=%d vs %.0f", ht.key, v, ht.prom))
			}
		}
		if len(hubOff) > 0 {
			hubDetail = "hub totals differ: " + strings.Join(hubOff, ", ")
		}
		check("prom-vs-json",
			int64(encodedP) == encoded && int64(s.Number("odr_tiles_coded_total")) == tilesCoded && len(hubOff) == 0,
			fmt.Sprintf("/metrics encoded=%.0f tiles=%.0f vs /debug/odr %d/%d; %s",
				encodedP, s.Number("odr_tiles_coded_total"), encoded, tilesCoded, hubDetail))
		dirtyOut := s.Number("odr_tiles_outcome_total", scrape.Label{Name: "tile_outcome", Value: "dirty"})
		cleanOut := s.Number("odr_tiles_outcome_total", scrape.Label{Name: "tile_outcome", Value: "clean"})
		check("prom-tile-outcomes",
			int64(dirtyOut+cleanOut) == tilesCoded && int64(dirtyOut) == tilesDirty,
			fmt.Sprintf("dirty=%.0f + clean=%.0f = %.0f, want %d coded / %d dirty",
				dirtyOut, cleanOut, dirtyOut+cleanOut, tilesCoded, tilesDirty))
		// Tile-cache conservation: every payload tile the encoders coded and
		// every tile a splice included did exactly one cache lookup, so after
		// the drain the cache's hit+miss total must equal dirty tiles plus
		// spliced tiles — a drift means lookups are being double-counted,
		// skipped, or attributed to the wrong path.
		cacheHits := s.Number(odr.NameCodecTileCacheHits)
		cacheMisses := s.Number(odr.NameCodecTileCacheMisses)
		var splicedTiles float64
		for _, sm := range s.Series(odr.NameHubSplicedTiles) {
			splicedTiles += sm.Value
		}
		check("prom-cache-conservation",
			cacheHits+cacheMisses > 0 && cacheHits+cacheMisses == dirtyOut+splicedTiles,
			fmt.Sprintf("hits=%.0f + misses=%.0f = %.0f, want dirty=%.0f + spliced=%.0f = %.0f",
				cacheHits, cacheMisses, cacheHits+cacheMisses,
				dirtyOut, splicedTiles, dirtyOut+splicedTiles))
		sessSeries := s.SeriesCount("odr_session_fps")
		droppedSets := s.Number("obs_dropped_label_sets_total")
		check("prom-session-cardinality",
			sessSeries <= *clients+1 && droppedSets == 0,
			fmt.Sprintf("%d live odr_session_fps series (<= %d viewers + shared), %.0f label sets evicted",
				sessSeries, *clients, droppedSets))
		renderJ := s.Number("odr_session_energy_joules",
			scrape.Label{Name: "session", Value: "shared"}, scrape.Label{Name: "component", Value: "render"})
		negEnergy := 0
		for _, sm := range s.Series("odr_session_energy_joules") {
			if sm.Value < 0 {
				negEnergy++
			}
		}
		check("prom-energy-sane", renderJ > 0 && negEnergy == 0,
			fmt.Sprintf("shared render energy %.2f J, %d negative series", renderJ, negEnergy))
	}

	if fail > 0 {
		log.Printf("odrsoak: FAIL (%d invariant(s) violated)", fail)
		os.Exit(1)
	}
	log.Printf("odrsoak: PASS")
}
