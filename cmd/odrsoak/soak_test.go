package main

import (
	"slices"
	"strings"
	"testing"
	"time"

	"odr/internal/chaos"
)

// TestSoakModes runs each mode once at a small size and checks that every
// invariant passed and that each mode reports exactly its own checks.
func TestSoakModes(t *testing.T) {
	sched, err := chaos.Named("flaky")
	if err != nil {
		t.Fatal(err)
	}
	base := config{clients: 2, workers: 3, retry: 8, schedName: "flaky", sched: sched, seed: 1,
		duration: time.Second, fps: 240, width: 64, height: 36}
	fanout := base
	fanout.fanout, fanout.width, fanout.height, fanout.fps = 64, 48, 27, 10
	clustered := base
	clustered.cluster, clustered.clients, clustered.duration = true, 4, 3*time.Second
	for _, tc := range []struct {
		name string
		cfg  config
		want string
	}{
		{"classic", base, `liveness pixel-identity frames-delivered graceful-drain no-goroutine-leaks
			tile-accounting metrics-scrape prom-frame-conservation prom-vs-json prom-tile-outcomes
			prom-cache-conservation prom-session-cardinality prom-energy-sane`},
		{"fan-out", fanout, `liveness pixel-identity frames-delivered graceful-drain no-goroutine-leaks
			flat-memory goroutine-budget metrics-scrape encode-once fanout-amplification
			spliced-keyframes cache-conservation coalesced-writes sender-queue-exported
			timerwheel-lag-exported`},
		{"cluster", clustered, `liveness zero-session-loss post-migration-progress bounded-resync-gap
			pixel-identity frames-delivered migration-exercised cluster-accounting no-goroutine-leaks`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := soak(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, c := range res.checks {
				names = append(names, c.name)
				if !c.ok {
					t.Errorf("FAIL %s: %s", c.name, c.detail)
				}
			}
			if want := strings.Fields(tc.want); !slices.Equal(names, want) {
				t.Errorf("checks = %v, want %v", names, want)
			}
		})
	}
}

// TestEveryInvariantHasAPredicate guards the modes' name lists against a
// name no predicate answers to.
func TestEveryInvariantHasAPredicate(t *testing.T) {
	for _, c := range []config{{clients: 1}, {fanout: 1}, {cluster: true, workers: 3}} {
		for _, name := range newMode(c).invariants {
			if predicates[name] == nil {
				t.Errorf("%s mode names %q, which has no predicate", newMode(c).name, name)
			}
		}
	}
}
