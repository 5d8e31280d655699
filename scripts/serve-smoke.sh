#!/usr/bin/env bash
# The real-time CLIs end to end. For each regulation policy, start
# `odrserver -once` on a fixed loopback port, play `odrclient` against it for
# two seconds, and fail unless the client decoded frames and the server exited
# once its client detached. ODR runs twice: at the default 60 FPS target and
# uncapped (-fps 100000), where the renderer waits on its lane for every frame,
# so a renderer stranded in that wait fails here instead of hanging the -once
# server. Then ask for RVS, which a hub does not run, and fail unless odrserver
# exits non-zero without listening.
#
#   bash scripts/serve-smoke.sh            (or: make serve-smoke)
#
# SERVE_SMOKE_ADDR overrides the port (default 127.0.0.1:7391); GO the
# toolchain. Binaries and logs live in a temporary directory that is removed
# on exit.
set -euo pipefail

addr=${SERVE_SMOKE_ADDR:-127.0.0.1:7391}
go=${GO:-go}
tmp=$(mktemp -d)
srv=
cleanup() {
	if [ -n "$srv" ]; then kill "$srv" 2>/dev/null || true; fi
	rm -rf "$tmp"
}
trap cleanup EXIT

"$go" build -o "$tmp/odrserver" ./cmd/odrserver
"$go" build -o "$tmp/odrclient" ./cmd/odrclient

fail() {
	echo "serve-smoke: -policy $policy -fps $fps: $*" >&2
	echo "--- odrserver log" >&2
	cat "$tmp/server.log" >&2
	echo "--- odrclient log" >&2
	cat "$tmp/client.log" >&2 2>/dev/null || true
	exit 1
}

for pass in "odr 60" "odr 100000" "interval 60" "noreg 60"; do
	read -r policy fps <<<"$pass"
	rm -f "$tmp/client.log"
	"$tmp/odrserver" -once -policy "$policy" -fps "$fps" -addr "$addr" -width 96 -height 54 2>"$tmp/server.log" &
	srv=$!
	for _ in $(seq 100); do
		grep -q 'listening on' "$tmp/server.log" && break
		sleep 0.05
	done
	grep -q 'listening on' "$tmp/server.log" || fail "odrserver never listened"

	"$tmp/odrclient" -addr "$addr" -duration 2s 2>"$tmp/client.log" || fail "odrclient failed"
	frames=$(sed -n 's/.*frames \([0-9]*\)  FPS.*/\1/p' "$tmp/client.log" | tail -n 1)
	[ -n "$frames" ] && [ "$frames" -gt 0 ] || fail "client decoded no frames"

	for _ in $(seq 100); do
		kill -0 "$srv" 2>/dev/null || break
		sleep 0.05
	done
	kill -0 "$srv" 2>/dev/null && fail "odrserver -once still running after its client left"
	wait "$srv" || fail "odrserver exited with an error"
	srv=
	echo "serve-smoke: -policy $policy -fps $fps: client decoded $frames frames; server exited after it left"
done

# A hub has no RVS: odrserver must say so and exit before it listens.
policy=rvs
fps=60
rm -f "$tmp/client.log"
if timeout 10 "$tmp/odrserver" -once -policy rvs -addr "$addr" 2>"$tmp/server.log"; then
	fail "odrserver exited 0"
fi
grep -q 'listening on' "$tmp/server.log" && fail "odrserver listened"
grep -q 'the hub has no RVS' "$tmp/server.log" || fail "odrserver did not say the hub has no RVS"
echo "serve-smoke: -policy rvs: refused before listening"
