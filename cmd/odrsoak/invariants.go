package main

import (
	"fmt"
	"strings"
	"time"

	"odr"
	"odr/internal/cluster"
	"odr/internal/codec"
	"odr/internal/obs/scrape"
	"odr/internal/stream"
)

const (
	// In fan-out mode one viewer in churnEvery reconnects through chaos,
	// and one steady viewer in pacedEvery is paced at half the hub rate, so
	// the timer wheel is exercised at session scale.
	churnEvery = 16
	pacedEvery = 8
	// bytesPerViewer bounds steady-state heap per attached viewer: decoder,
	// display and read buffers client-side, session bookkeeping,
	// latest-wins buffer and splice scratch hub-side, plus allocator slack.
	// What it must not cover is a per-session encoder.
	bytesPerViewer = 256 << 10
	// gapBound is the longest a cluster viewer may go between two decoded
	// frames: fault detection (idle timeout), master failover (heartbeat
	// deadline) and reconnect backoff.
	gapBound = 10 * time.Second
)

// newMode turns the flags into a mode. Its invariants are named in the order
// the report prints them; each name keys a predicate below.
func newMode(c config) mode {
	switch {
	case c.fanout > 0:
		// The encode-once scale test: every viewer shares one lane encoder.
		return mode{
			name: "fan-out", workers: 1, viewers: c.fanout, minFrames: int64(c.fanout),
			churnEvery: churnEvery, pacedEvery: pacedEvery, stagger: true,
			script: drainOnly, drain: 60 * time.Second, wait: 60 * time.Second, sharedWait: true,
			leakWait: 15 * time.Second, slack: 2 * time.Minute,
			invariants: strings.Fields(`liveness pixel-identity frames-delivered graceful-drain
				no-goroutine-leaks flat-memory goroutine-budget metrics-scrape encode-once
				fanout-amplification spliced-keyframes cache-conservation coalesced-writes
				sender-queue-exported timerwheel-lag-exported`),
		}
	case c.cluster:
		// The control-plane failover test.
		return mode{
			name: "cluster", workers: c.workers, viewers: c.clients, churnEvery: 1,
			script: killThenDrain, wait: 20 * time.Second, leakWait: 5 * time.Second, slack: time.Minute,
			invariants: strings.Fields(`liveness zero-session-loss post-migration-progress
				bounded-resync-gap pixel-identity frames-delivered migration-exercised
				cluster-accounting no-goroutine-leaks`),
		}
	}
	return mode{
		name: "classic", workers: 1, viewers: c.clients, churnEvery: 1,
		script: stopHalfThenDrain, drain: 15 * time.Second, wait: 20 * time.Second,
		leakWait: 5 * time.Second, slack: time.Minute,
		invariants: strings.Fields(`liveness pixel-identity frames-delivered graceful-drain
			no-goroutine-leaks tile-accounting metrics-scrape prom-frame-conservation prom-vs-json
			prom-tile-outcomes prom-cache-conservation prom-session-cardinality prom-energy-sane`),
	}
}

// predicate is one pass/fail test over a finished run.
type predicate func(r *run) (ok bool, detail string)

// predicates holds every invariant a mode can name.
var predicates = map[string]predicate{
	// Every viewer loop exits after the end of the run: no deadlock.
	"liveness": func(r *run) (bool, string) {
		return r.hung == 0, fmt.Sprintf("%d/%d viewer loops exited", int64(len(r.views))-r.hung, len(r.views))
	},
	// The codec runs lossless, the game is deterministic and the viewers send
	// no inputs, so every decoded frame must hash equal to an independent
	// reference render of its sequence number: corruption must be caught,
	// never displayed.
	"pixel-identity": func(r *run) (bool, string) {
		return r.mismatches == 0, fmt.Sprintf("%d decoded frames, %d mismatched the reference", r.frames, r.mismatches)
	},
	"frames-delivered": func(r *run) (bool, string) {
		return r.frames > r.mode.minFrames, fmt.Sprintf("%d frames decoded across %d viewers under schedule %q",
			r.frames, len(r.views), r.cfg.schedName)
	},
	"graceful-drain": func(r *run) (bool, string) {
		return r.drainErr == nil, fmt.Sprintf("hub.Drain: %v", r.drainErr)
	},
	// After teardown the goroutine count returns to the pre-run baseline. The
	// leftover goroutines' stacks go to the fail dump.
	"no-goroutine-leaks": func(r *run) (bool, string) {
		if r.leakErr != nil {
			return false, strings.SplitN(r.leakErr.Error(), "\n", 2)[0]
		}
		return true, "goroutines returned to baseline"
	},
	// No viewer exhausted its retry budget: a master-issued redirect resets it.
	"zero-session-loss": func(r *run) (bool, string) {
		return r.errored == 0, fmt.Sprintf("%d/%d clients survived kill+drain to the end", int64(len(r.views))-r.errored, len(r.views))
	},
	// Every viewer ends the run streaming from a survivor.
	"post-migration-progress": func(r *run) (bool, string) {
		return r.stalled == 0, fmt.Sprintf("%d/%d clients decoded frames after the drain", int64(len(r.views))-r.stalled, len(r.views))
	},
	"bounded-resync-gap": func(r *run) (bool, string) {
		return r.maxGap < gapBound, fmt.Sprintf("max inter-frame gap %v (bound %v)", r.maxGap.Round(time.Millisecond), gapBound)
	},
	"migration-exercised": func(r *run) (bool, string) {
		return r.redirects >= 1 && r.reconnects >= 1,
			fmt.Sprintf("%d redirects, %d reconnects across the fleet", r.redirects, r.reconnects)
	},
	// No per-session encoder state: heap per viewer, measured after a forced
	// GC while every viewer is attached, stays bounded.
	"flat-memory": func(r *run) (bool, string) {
		return r.heapPerViewer < bytesPerViewer,
			fmt.Sprintf("%d B/viewer steady-state heap (bound %d)", r.heapPerViewer, bytesPerViewer)
	},
	"goroutine-budget": func(r *run) (bool, string) {
		budget := len(r.views) + 256
		return r.goroutines <= budget,
			fmt.Sprintf("%d goroutines at steady state for %d viewers (bound %d: harness Run loops + O(pool) hub)",
				r.goroutines, len(r.views), budget)
	},
	// Every encoded frame contributes exactly ceil(h/DefaultTileRows) coded
	// tiles, and only a subset of them can be dirty; a drift means the
	// encoder and its telemetry disagree about what went on the wire.
	"tile-accounting": func(r *run) (bool, string) {
		encoded, coded, dirty := registryTiles(r)
		perFrame := int64((r.cfg.height + codec.DefaultTileRows - 1) / codec.DefaultTileRows)
		return encoded > 0 && coded == encoded*perFrame && dirty > 0 && dirty <= coded,
			fmt.Sprintf("%d frames x %d tiles = %d coded, %d dirty", encoded, perFrame, coded, dirty)
	},
	// The master's odr_cluster_* counters and final registry: the kill was
	// detected (a floor: a scheduler stall may flap a healthy worker dead and
	// back, which is the master working as designed), exactly one drain
	// order, one worker dead and the drained one deregistered.
	"cluster-accounting": func(r *run) (bool, string) {
		failures := r.masterReg.Counter(cluster.NameClusterWorkerFailures).Value()
		drains := r.masterReg.Counter(cluster.NameClusterDrains).Value()
		inState := map[string]int{}
		var states []string
		for _, wi := range r.finalWorkers {
			inState[wi.State]++
			states = append(states, wi.ID+"="+wi.State)
		}
		w := len(r.fleet)
		return failures >= 1 && drains == 1 && inState["alive"] == w-2 && inState["dead"] == 1 && len(r.finalWorkers) == w-1,
			fmt.Sprintf("failures=%d drains=%d, final registry: %s", failures, drains, strings.Join(states, " "))
	},

	// The rest read the first hub's /metrics after the drain: the surface a
	// Prometheus server or odrtop reads, with every counter final.
	"metrics-scrape": func(r *run) (bool, string) {
		return r.scrapeErr == nil, fmt.Sprintf("GET /metrics parsed: %v", r.scrapeErr)
	},
	// The hub encodes once per lane and fans out, so displayed may exceed
	// encoded, but the encoder never outruns the renderer.
	"prom-frame-conservation": scraped(func(s *scrape.Scrape, _ *run) (bool, string) {
		rendered, encoded := s.Number("odr_frames_rendered_total"), s.Number("odr_frames_encoded_total")
		displayed := s.Number("odr_frames_displayed_total")
		return rendered > 0 && encoded > 0 && encoded <= rendered && displayed > 0,
			fmt.Sprintf("rendered=%.0f >= encoded=%.0f (shared), displayed=%.0f", rendered, encoded, displayed)
	}),
	// The hub's counters, read directly, and its /debug/odr snapshot totals
	// come from the same instruments as /metrics, so each equals its scraped
	// counter.
	"prom-vs-json": scraped(func(s *scrape.Scrape, r *run) (bool, string) {
		encoded, coded, _ := registryTiles(r)
		hubSnap := r.fleet[0].hub.Snapshot()
		policy, _ := hubSnap["policy"].(string)
		keys := []string{"rendered", "inputs", "sent", "dropped", "evicted", "sessions_served"}
		proms := []float64{s.Number("odr_frames_rendered_total"), s.Number(stream.NameInputs),
			s.Number("odr_frames_displayed_total"), s.Number(stream.NameFramesDropped), s.Number(stream.NameSessionsEvicted),
			s.Number(stream.NameSessionsStarted, scrape.Label{Name: "policy", Value: policy})}
		hubDetail := "all six hub totals agree"
		var hubOff []string
		for i, key := range keys {
			if v, _ := hubSnap[key].(int64); float64(v) != proms[i] {
				hubOff = append(hubOff, fmt.Sprintf("%s=%d vs %.0f", key, v, proms[i]))
			}
		}
		if len(hubOff) > 0 {
			hubDetail = "hub totals differ: " + strings.Join(hubOff, ", ")
		}
		encodedP, codedP := s.Number("odr_frames_encoded_total"), s.Number("odr_tiles_coded_total")
		return int64(encodedP) == encoded && int64(codedP) == coded && len(hubOff) == 0,
			fmt.Sprintf("/metrics encoded=%.0f tiles=%.0f vs counters %d/%d; %s", encodedP, codedP, encoded, coded, hubDetail)
	}),
	"prom-tile-outcomes": scraped(func(s *scrape.Scrape, r *run) (bool, string) {
		_, coded, dirty := registryTiles(r)
		dirtyOut, cleanOut := tileOutcome(s, "dirty"), tileOutcome(s, "clean")
		return int64(dirtyOut+cleanOut) == coded && int64(dirtyOut) == dirty,
			fmt.Sprintf("dirty=%.0f + clean=%.0f = %.0f, want %d coded / %d dirty", dirtyOut, cleanOut, dirtyOut+cleanOut, coded, dirty)
	}),
	"prom-cache-conservation": scraped(cacheConservation),
	"cache-conservation":      scraped(cacheConservation),
	"prom-session-cardinality": scraped(func(s *scrape.Scrape, r *run) (bool, string) {
		series, droppedSets := s.SeriesCount("odr_session_fps"), s.Number("obs_dropped_label_sets_total")
		return series <= len(r.views)+1 && droppedSets == 0,
			fmt.Sprintf("%d live odr_session_fps series (<= %d viewers + shared), %.0f label sets evicted",
				series, len(r.views), droppedSets)
	}),
	"prom-energy-sane": scraped(func(s *scrape.Scrape, _ *run) (bool, string) {
		renderJ := s.Number("odr_session_energy_joules",
			scrape.Label{Name: "session", Value: "shared"}, scrape.Label{Name: "component", Value: "render"})
		negative := 0
		for _, sm := range s.Series("odr_session_energy_joules") {
			if sm.Value < 0 {
				negative++
			}
		}
		return renderJ > 0 && negative == 0, fmt.Sprintf("shared render energy %.2f J, %d negative series", renderJ, negative)
	}),
	// The architectural invariant: one shared encode per encoded frame,
	// bounded by the render count, so encode work is O(frames), not
	// O(viewers x frames).
	"encode-once": scraped(func(s *scrape.Scrape, _ *run) (bool, string) {
		rendered, encoded := s.Number("odr_frames_rendered_total"), s.Number("odr_frames_encoded_total")
		shared := s.Number(odr.NameHubSharedEncodes, lane1)
		return encoded > 0 && shared == encoded && encoded <= rendered,
			fmt.Sprintf("rendered=%.0f >= encoded=%.0f == shared-lane encodes=%.0f", rendered, encoded, shared)
	}),
	"fanout-amplification": scraped(func(s *scrape.Scrape, r *run) (bool, string) {
		displayed, encoded := s.Number("odr_frames_displayed_total"), s.Number("odr_frames_encoded_total")
		return displayed >= 10*encoded,
			fmt.Sprintf("displayed=%.0f >= 10x encoded=%.0f across %d viewers", displayed, encoded, len(r.views))
	}),
	// Late joiners and resyncing churners are served catch-up keyframes
	// spliced from shared encoder state, never a keyframe forced into every
	// viewer's stream.
	"spliced-keyframes": scraped(func(s *scrape.Scrape, _ *run) (bool, string) {
		keys := s.Number(odr.NameHubSplicedKeyframes, lane1)
		return keys > 0, fmt.Sprintf("%.0f catch-up keyframes spliced for joiners/resyncs", keys)
	}),
	// At fan-out scale many sessions flush per sender wakeup.
	"coalesced-writes": scraped(func(s *scrape.Scrape, _ *run) (bool, string) {
		n := s.Number(odr.NameHubCoalescedWrites)
		return n > 0, fmt.Sprintf("%.0f frames flushed in multi-frame sender batches", n)
	}),
	"sender-queue-exported": scraped(func(s *scrape.Scrape, _ *run) (bool, string) {
		depth, ok := s.Value(odr.NameHubSenderQueueDepth)
		return ok && depth >= 0, fmt.Sprintf("odr_hub_sender_queue_depth=%.0f", depth)
	}),
	// The paced viewers made the wheel fire, so its lag gauge carries a real
	// observation (non-negative by construction).
	"timerwheel-lag-exported": scraped(func(s *scrape.Scrape, _ *run) (bool, string) {
		lag, ok := s.Value(odr.NameHubTimerwheelLagUs)
		return ok && lag >= 0, fmt.Sprintf("odr_hub_timerwheel_lag_us=%.0f (paced 1-in-%d viewers rode the wheel)", lag, pacedEvery)
	}),
}

// scraped lifts a predicate over the post-drain scrape into one that fails
// when the scrape did.
func scraped(p func(s *scrape.Scrape, r *run) (bool, string)) predicate {
	return func(r *run) (bool, string) {
		if r.scrapeErr != nil {
			return false, "no /metrics scrape"
		}
		return p(r.scraped, r)
	}
}

// registryTiles reads the first hub's frame and tile counters straight off
// the instruments the hub writes, not through any export.
func registryTiles(r *run) (encoded, coded, dirty int64) {
	reg := r.fleet[0].reg
	return reg.Counter(stream.NameFramesEncoded).Value(), reg.Counter(stream.NameTilesCoded).Value(),
		reg.Counter(stream.NameTilesDirty).Value()
}

func tileOutcome(s *scrape.Scrape, outcome string) float64 {
	return s.Number("odr_tiles_outcome_total", scrape.Label{Name: "tile_outcome", Value: outcome})
}

var lane1 = scrape.Label{Name: "lane", Value: "1"}

// cacheConservation: every payload tile the encoders coded and every tile a
// splice included did exactly one tile-cache lookup, so after the drain
// hits+misses equal dirty tiles plus spliced tiles; a drift means lookups
// are double-counted, skipped, or attributed to the wrong path.
func cacheConservation(s *scrape.Scrape, _ *run) (bool, string) {
	hits, misses := s.Number(odr.NameCodecTileCacheHits), s.Number(odr.NameCodecTileCacheMisses)
	dirty := tileOutcome(s, "dirty")
	var spliced float64
	for _, sm := range s.Series(odr.NameHubSplicedTiles) {
		spliced += sm.Value
	}
	return hits+misses > 0 && hits+misses == dirty+spliced,
		fmt.Sprintf("hits=%.0f + misses=%.0f = %.0f, want dirty=%.0f + spliced=%.0f = %.0f",
			hits, misses, hits+misses, dirty, spliced, dirty+spliced)
}
