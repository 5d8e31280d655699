// Command odrbench runs the tile-codec sweep (codecsuite.go):
//
//   - `odrbench -codec` sweeps static/scrolling/mixed/noise content at
//     720p/1080p/4K and the synthetic game (what the stack serves, with an
//     input flash every 7th frame, lossless and at QuantShift 2) at
//     320x180/640x360 through the tile coder in the hub's configuration
//     (keyframe striping + shared tile cache) at 1-16 workers, verifies
//     parallel/serial byte identity, and writes BENCH_codec.json with a host
//     fingerprint;
//   - `odrbench -codec-check BENCH_codec.json` re-runs the sweep and exits
//     nonzero when a static/scrolling/mixed cell's bytes/frame grow at all
//     against the committed baseline (game and noise: >10%), game content
//     codes above 0.16x raw or noise above 1.02x raw, a static cell's cache
//     hit ratio falls below 0.9, or a static cell shows a keyframe-shaped
//     latency spike. ns/frame and MB/s are reported, not gated: codec time is
//     measured parent-vs-change on one host by the frame-path benchmark
//     (bench/, codec.encode_us_per_frame / codec.decode_us_per_frame).
//
// Usage:
//
//	odrbench -codec [-codec-out BENCH_codec.json] [-codec-budget 250ms]
//	odrbench -codec-check BENCH_codec.json [-codec-budget 250ms]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	codecRun := flag.Bool("codec", false, "run the tile-codec sweep and write -codec-out")
	codecOut := flag.String("codec-out", "BENCH_codec.json", "output file for the tile-codec sweep")
	codecCheck := flag.String("codec-check", "", "baseline BENCH_codec.json: re-run the sweep and fail on bytes/frame growth or a tripped absolute gate")
	codecBudget := flag.Duration("codec-budget", 250*time.Millisecond, "minimum measurement time per sweep cell")
	flag.Parse()

	var err error
	switch {
	case *codecCheck != "":
		err = checkCodecRegression(*codecCheck, *codecBudget)
	case *codecRun:
		var rep *codecSuiteReport
		if rep, err = codecSuite(*codecBudget); err == nil {
			err = writeCodecReport(rep, *codecOut)
		}
		if err == nil {
			fmt.Fprintf(os.Stderr, "odrbench: %d codec cells -> %s\n", len(rep.Cells), *codecOut)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "odrbench:", err)
		os.Exit(1)
	}
}
