# Common workflows for the ODR reproduction.

GO ?= go

.PHONY: all build test race serve-smoke bench-smoke bench-codec bench-codec-check bench-go report report-md artifacts fidelity examples trace soak soak-hub soak-cluster fuzz metrics-check clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Chaos soak: churning reconnecting clients against a hub under the flaky
# fault schedule, with the race detector and a pass/fail invariant report.
# Every soak target leaves a full goroutine dump (the leak check's stacks
# first) in soak-<mode>-goroutines.txt when an invariant fails; DESIGN.md
# §10.5 lists each mode's invariants.
soak:
	$(GO) run -race ./cmd/odrsoak -clients 16 -schedule flaky -seed 1 -duration 20s -faildump soak-classic-goroutines.txt

# Encode-once fan-out soak: 2000 same-resolution viewers share one lane
# encoder, one in 16 churning through chaos reconnects, one in 8 paced at
# half rate through the timer wheel; invariants assert O(frames) encoding,
# spliced catch-up keyframes, byte-identical pixels, flat per-viewer memory
# and an O(pool) goroutine budget. Runs under the race detector.
soak-hub:
	$(GO) run -race ./cmd/odrsoak -fanout 2000 -width 48 -height 27 -fps 10 -schedule flaky -seed 1 -duration 15s -faildump soak-hub-goroutines.txt

# Cluster failover soak: a master places chaos-churned clients across three
# in-process workers, one worker is killed and another drained mid-run;
# invariants assert zero sessions lost, bounded resync gaps, byte-identical
# pixels across migration, clean odr_cluster_* accounting and no goroutine
# leaks. Runs under the race detector.
soak-cluster:
	$(GO) run -race ./cmd/odrsoak -cluster -workers 3 -clients 8 -schedule flaky -seed 1 -duration 15s -faildump soak-cluster-goroutines.txt

# Fuzz smoke over the wire framing, the chaos schedule parser, the codec
# bitstream decoder, the tile payload coder, the content-addressed tile
# cache, and the metrics scrape parser.
fuzz:
	$(GO) test -fuzz=FuzzReadMsg -fuzztime=10s -run '^$$' ./internal/stream
	$(GO) test -fuzz=FuzzFrameRoundTrip -fuzztime=10s -run '^$$' ./internal/stream
	$(GO) test -fuzz=FuzzParseSchedule -fuzztime=10s -run '^$$' ./internal/chaos
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run '^$$' ./internal/codec
	$(GO) test -fuzz=FuzzV2RoundTrip -fuzztime=10s -run '^$$' ./internal/codec
	$(GO) test -fuzz=FuzzTilePayload -fuzztime=10s -run '^$$' ./internal/codec
	$(GO) test -fuzz=FuzzTileCache -fuzztime=10s -run '^$$' ./internal/codec
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -run '^$$' ./internal/obs/scrape

# Metrics-surface lint: pre-register every family the server and the cluster
# master can export and hold the registries to the
# odr_<subsystem>_<noun>_<unit> naming convention (the same lint gates
# odrserver and odrmaster startup).
metrics-check:
	$(GO) run ./cmd/odrserver -metrics-lint
	$(GO) run ./cmd/odrmaster -metrics-lint
	$(GO) test -run 'TestRegisterLiveMetricsIsLintClean|TestLint|TestClusterMetricsLintClean' ./internal/stream ./internal/obs ./internal/cluster

# CLI smoke: for each of -policy odr|interval|noreg, odrserver -once on a
# fixed loopback port and odrclient against it for 2 s; fails unless the
# client decoded frames and the server exited after its client left.
serve-smoke:
	GO=$(GO) bash scripts/serve-smoke.sh

# Frame-path benchmark smoke: bench/ is a nested module that `go test ./...`
# at the root never reaches, so this is what tells a hub change that it broke
# the driver protocol, one of the benchmark's correctness checks or the
# energy-flush alignment before the pipeline's own run does. The module's
# tests, then every workload once with ~1 s windows (numbers non-comparable;
# exits non-zero on a failed check or a tripped validity flag). A one-second
# window holds ten inputs, so a single late generator write on a busy host
# trips gen.input_late_p95_ms; that is weather, a real breakage fails every
# time, hence up to three attempts.
bench-smoke:
	cd bench && $(GO) test ./...
	for try in 1 2 3; do bash bench/run.sh -quick && exit 0; done; exit 1

# Tile-codec suite -> BENCH_codec.json: static/scrolling/mixed/noise content
# at 720p/1080p/4K and the synthetic game at 320x180/640x360 (QuantShift 0 and
# 2) through the tile coder in the hub configuration (keyframe striping +
# shared tile cache) at 1-16 workers, with a parallel-equals-serial
# byte-identity check per cell group and a host fingerprint (CPU count,
# GOMAXPROCS, commit).
bench-codec:
	$(GO) run ./cmd/odrbench -codec -codec-out BENCH_codec.json

# Regression gate: re-run the suite and fail when a static/scrolling/mixed
# cell's bytes/frame grow at all against the committed BENCH_codec.json
# baseline (game, noise: >10%), game content codes above 0.16x raw, noise
# above 1.02x raw, a static cell's cache hit ratio falls below 0.9, a static
# cell shows a keyframe-shaped latency spike, or a worker count's bitstream
# differs from the serial one. Times are reported, not gated.
bench-codec-check:
	$(GO) run ./cmd/odrbench -codec-check BENCH_codec.json

# The full Go benchmark suite with allocation reporting.
bench-go:
	$(GO) test -bench=. -benchmem ./...

# Full experiment report (every table and figure, 60s per configuration).
report:
	$(GO) run ./cmd/odrsim

# Live-measured markdown results report.
report-md:
	$(GO) run ./cmd/odrreport -o report.md

# Plot-ready CSVs for Table 2 and Figures 9-13.
artifacts:
	$(GO) run ./cmd/odrsim -csv artifacts table2

# Executable paper-anchor suite (33 tolerance-checked anchors at the 60 s
# reference duration), recomputed without the result cache on seeds 1-5; exits
# non-zero on the first seed with a miss. CI runs exactly this.
fidelity:
	$(GO) build -o odrsim ./cmd/odrsim
	for seed in 1 2 3 4 5; do ./odrsim -cache '' -seed $$seed fidelity || exit 1; done

# Frame-lifecycle timeline of an ODR run as Chrome trace-event JSON
# (open artifacts/timeline.json in chrome://tracing or ui.perfetto.dev).
trace:
	mkdir -p artifacts
	$(GO) run ./cmd/odrtrace -kind timeline -policy odr -trace-out artifacts/timeline.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/publiccloud
	$(GO) run ./examples/gamestream
	$(GO) run ./examples/spectate
	$(GO) run ./examples/regulator_compare

clean:
	rm -rf artifacts report.md
