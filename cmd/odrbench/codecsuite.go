package main

// The tile-codec benchmark suite: encode throughput and bytes per frame
// across content kinds, resolutions and worker counts (the tile coder at
// 1-16 workers on private pools, with keyframe striping and a shared
// encoded-tile cache — the hub's configuration). Two families of content:
//
//   - static / scrolling / mixed / noise: synthetic noise-pixel frames at
//     720p / 1080p / 4K, QuantShift 2 — the skip, cache and worst-case
//     paths, where nothing but the quantization factor is compressible;
//   - game: stream.Game, the content every hub, soak and bench workload
//     actually serves, with an input flash every seventh frame, rendered on
//     the fly so it never repeats, at the resolutions the stack streams
//     (320x180, 640x360), lossless and at QuantShift 2 — the class that
//     shows whether the codec compresses.
//
// Each group re-checks the determinism contract — every worker count must
// produce the serial bitstream byte-for-byte, with and without the
// cache+striping — before any timing runs.
//
// The emitted BENCH_codec.json carries a host fingerprint and reports
// absolute ns/frame for the machine it ran on plus bytes/frame, cache hit
// ratios and p99/median spike ratios; CI regression checking (-codec-check)
// compares the byte counts — which transfer across machines — and gates
// compression (game, noise) and the static-mix cache hit ratio and
// keyframe-spike columns absolutely. Times are reported, never gated here.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"odr/internal/codec"
	"odr/internal/stream"
	"odr/internal/wpool"
)

var codecWorkerCounts = []int{1, 2, 4, 8, 16}

// codecKeyInterval is the stripe cycle length used for every bench row
// (the codec default; spelled out because warm-up spans depend on it).
const codecKeyInterval = 120

type codecCell struct {
	Content       string  `json:"content"`
	Width         int     `json:"width"`
	Height        int     `json:"height"`
	QuantShift    uint    `json:"quant_shift"`
	Workers       int     `json:"workers"`
	NsPerFrame    float64 `json:"ns_per_frame"`
	MedianNs      float64 `json:"median_ns_per_frame"`
	P99Ns         float64 `json:"p99_ns_per_frame"`
	SpikeRatio    float64 `json:"p99_spike_ratio"` // p99 / median per-frame encode time
	KeySpikes     int     `json:"keyframe_spikes"` // frames >2x median that coded >= half their tiles
	MBPerSec      float64 `json:"mb_per_sec"`
	BytesPerFrame float64 `json:"bytes_per_frame"`
	DirtyRatio    float64 `json:"dirty_tile_ratio"`
	CacheHitRatio float64 `json:"cache_hit_ratio"` // over the measured window
}

type codecSuiteReport struct {
	GeneratedAt string      `json:"generated_at"`
	GoVersion   string      `json:"go_version"`
	NumCPU      int         `json:"num_cpu"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	Commit      string      `json:"git_commit"` // git describe --always --dirty of the tree measured
	FrameBudget string      `json:"frame_budget_per_cell"`
	Cells       []codecCell `json:"cells"`
}

// gameInputEvery is the input cadence of the game content class: one flash
// every seventh frame (~8.6 Hz at 60 FPS, next to the frame-path bench's
// 10 Hz), so the measured window mixes quiet deltas with whole-frame ones.
const gameInputEvery = 7

// gameSource returns the game content class as an endless, never-repeating
// frame source: call i renders frame i (calls must be consecutive from 0)
// into one reused buffer, which the encoder is done with when EncodeAppend
// returns.
func gameSource(w, h int) func(i int) []byte {
	g := stream.NewGame(w, h)
	buf := make([]byte, g.FrameBytes())
	return func(i int) []byte {
		if i%gameInputEvery == 0 {
			g.OnInput()
		}
		g.Render(buf)
		return buf
	}
}

// cycleSource serves a fixed frame set round-robin.
func cycleSource(frames [][]byte) func(i int) []byte {
	return func(i int) []byte { return frames[i%len(frames)] }
}

// contentFrames builds the frame sequence for one content kind. Frame
// count shrinks with resolution so a 4K noise set stays within a few
// hundred MB.
func contentFrames(kind string, w, h int) [][]byte {
	if kind == "game" {
		src := gameSource(w, h)
		frames := make([][]byte, 8)
		for f := range frames {
			frames[f] = append([]byte(nil), src(f)...)
		}
		return frames
	}
	frameBytes := w * h * 4
	n := 8
	if frameBytes > 16<<20 {
		n = 3
	}
	st := uint64(0x9E3779B97F4A7C15) ^ uint64(frameBytes)
	next := func() byte { st ^= st << 13; st ^= st >> 7; st ^= st << 17; return byte(st) }
	base := make([]byte, frameBytes)
	for i := range base {
		base[i] = next()
	}
	scrolled := func(f int) []byte {
		fr := make([]byte, frameBytes)
		copy(fr, base)
		start := f * frameBytes / n
		end := min(start+frameBytes/10, frameBytes)
		for i := start; i < end; i++ {
			fr[i] = next()
		}
		return fr
	}
	frames := make([][]byte, n)
	switch kind {
	case "static":
		// Identical frames: the all-clean fast path. One backing array.
		for f := range frames {
			frames[f] = base
		}
	case "scrolling":
		// A moving ~10% dirty band over a static background: the paper's
		// mostly-static cloud-UI shape.
		for f := range frames {
			frames[f] = scrolled(f)
		}
	case "mixed":
		// Alternating hold/scroll: even frames repeat the background
		// verbatim, odd frames move the band — the scene-then-interact
		// rhythm of a real cloud 3D session, and the mix where prediction
		// (clean frames) and the cache (repeating band content) both matter.
		for f := range frames {
			if f%2 == 0 {
				frames[f] = base
			} else {
				frames[f] = scrolled(f / 2)
			}
		}
	case "noise":
		// Fully-dynamic content: every tile dirty, worst case for skipping.
		for f := range frames {
			fr := make([]byte, frameBytes)
			for i := range fr {
				fr[i] = next()
			}
			frames[f] = fr
		}
	default:
		panic("unknown content kind " + kind)
	}
	return frames
}

// contentWarmFrames returns how many warm-up encodes a cell needs before
// timings and cache ratios are steady-state. The doorkeeper admits a tile's
// content on its second sighting, and on static content a tile is only
// looked up when its stripe comes around — once per KeyInterval frames — so
// the static warm-up must span two full stripe cycles before the measured
// window can run at its true hit ratio.
func contentWarmFrames(kind string, nFrames int) int {
	if kind == "static" {
		return 2*codecKeyInterval + nFrames
	}
	// Content repeats with period nFrames: sighting, admission, hit. Noise
	// needs this too — otherwise the measured window straddles the
	// doorkeeper's admission transient and the hit ratio depends on where
	// the time budget happens to cut off.
	return 3 * nFrames
}

// contentMinFrames is the measured-window floor. Cells need at least a full
// stripe cycle so the median/p99 columns see every per-frame cost the stream
// has; noise stays small (frames are maximally expensive and have no
// periodic structure to cover).
func contentMinFrames(kind string) int {
	if kind != "noise" {
		return 150
	}
	return 3
}

// contentCycleFrames returns the alignment quantum for the measured window:
// cells measure a whole number of stripe cycles, so bytes/frame
// averages exactly one intra refresh per tile per cycle instead of over- or
// under-weighting stripe-heavy phases by where the budget happened to cut
// off. Noise is exempt (its per-frame cost has no phase structure, and its
// frames are expensive enough that rounding up to a cycle would dominate the
// budget).
func contentCycleFrames(kind string) int {
	if kind != "noise" {
		return codecKeyInterval
	}
	return 1
}

// encTiming is one cell's measured window.
type encTiming struct {
	nsPerFrame    float64
	medianNs      float64
	p99Ns         float64
	spikeRatio    float64
	keySpikes     int
	bytesPerFrame float64
	dirtyRatio    float64
	cacheHitRatio float64
}

// timeEncode drives enc over the frames src yields for roughly budget of
// encode time (and at least minFrames, rounded up to a multiple of cycle)
// after warm warm-up encodes, and reports per-frame statistics. Only
// EncodeAppend is timed — a source that renders on the fly costs the window
// nothing. Bytes/frame and the dirty ratio are taken over the window's
// first minFrames rounded up to a whole cycle: a fixed stretch of the
// source, so a game cell's bytes are the coder's alone, not those of however
// many frames the host's speed fits in the budget. The hit ratio of cache
// (the encoder's) is computed over the measured window only (warm-up
// lookups excluded).
func timeEncode(enc *codec.Encoder, src func(i int) []byte, budget time.Duration, warm, minFrames, cycle int, cache *codec.TileCache) encTiming {
	buf := make([]byte, 0, enc.FrameSize()/2)
	var err error
	for i := 0; i < warm; i++ { // warm the scratches, reference and cache
		if buf, err = enc.EncodeAppend(buf[:0], src(i)); err != nil {
			panic(err)
		}
	}
	h0, m0, _ := cache.Stats()
	fixed := (minFrames + cycle - 1) / cycle * cycle
	var n, tileSum, dirtySum int
	var outBytes int64
	samples := make([]float64, 0, 512)
	var frameNs []float64
	var frameFull []bool // frame coded >= half its tiles (keyframe-shaped)
	var elapsed time.Duration
	for n < minFrames || elapsed < budget || (cycle > 1 && n%cycle != 0) {
		pix := src(warm + n)
		f0 := time.Now()
		if buf, err = enc.EncodeAppend(buf[:0], pix); err != nil {
			panic(err)
		}
		d := time.Since(f0)
		elapsed += d
		ns := float64(d.Nanoseconds())
		samples = append(samples, ns)
		tiles, dirty := enc.TileStats()
		if n < fixed {
			outBytes += int64(len(buf))
			tileSum += tiles
			dirtySum += dirty
		}
		frameNs = append(frameNs, ns)
		frameFull = append(frameFull, dirty*2 >= tiles)
		n++
	}
	t := encTiming{
		nsPerFrame:    float64(elapsed.Nanoseconds()) / float64(n),
		bytesPerFrame: float64(outBytes) / float64(fixed),
		dirtyRatio:    float64(dirtySum) / float64(tileSum),
	}
	sort.Float64s(samples)
	t.medianNs = samples[len(samples)/2]
	p99i := len(samples) * 99 / 100
	if p99i >= len(samples) {
		p99i = len(samples) - 1
	}
	t.p99Ns = samples[p99i]
	if t.medianNs > 0 {
		t.spikeRatio = t.p99Ns / t.medianNs
	}
	// A keyframe spike is structural: a frame that coded at least half its
	// tiles (keys code all of them; striped steady state codes a handful)
	// AND blew past 2x the median. Wall-clock outliers alone are scheduler
	// or GC noise at sub-millisecond medians, so neither signal is gated on
	// by itself.
	for i, ns := range frameNs {
		if frameFull[i] && ns > 2*t.medianNs {
			t.keySpikes++
		}
	}
	h1, m1, _ := cache.Stats()
	if dl := (h1 - h0) + (m1 - m0); dl > 0 {
		t.cacheHitRatio = float64(h1-h0) / float64(dl)
	}
	return t
}

// verifyByteIdentity encodes the frame sequence with a serial encoder and
// with one per worker count, failing loudly if any bitstream differs. Both
// hub-relevant configurations are pinned: the plain keyframed coder, and
// keyframe striping with one cache shared across every worker count (the
// cache must be a pure payload memo — sharing it can never steer bytes).
func verifyByteIdentity(w, h int, quant uint, frames [][]byte, pools map[int]*wpool.Pool) error {
	configs := []struct {
		name   string
		stripe bool
		cache  *codec.TileCache
	}{
		{name: "plain"},
		{name: "striped+cached", stripe: true, cache: codec.NewTileCache(0)},
	}
	for _, cfg := range configs {
		mk := func(workers int) *codec.Encoder {
			return codec.NewEncoder(w, h, codec.Options{
				QuantShift: quant, Workers: workers, Pool: pools[workers],
				StripeKeyframes: cfg.stripe, Cache: cfg.cache,
			})
		}
		serial := mk(1)
		encs := make(map[int]*codec.Encoder, len(codecWorkerCounts))
		for _, k := range codecWorkerCounts[1:] {
			encs[k] = mk(k)
		}
		for i, f := range frames {
			want, err := serial.Encode(f)
			if err != nil {
				return err
			}
			for _, k := range codecWorkerCounts[1:] {
				got, err := encs[k].Encode(f)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("%dx%d frame %d (%s): %d-worker bitstream differs from serial", w, h, i, cfg.name, k)
				}
			}
		}
	}
	return nil
}

// codecGroup is one (content, resolution, QuantShift) group of the grid.
type codecGroup struct {
	content string
	w, h    int
	quant   uint
}

// codecGroups lists the grid: the noise-pixel classes at the three large
// resolutions, then the game class at the resolutions the stack streams.
func codecGroups() []codecGroup {
	var groups []codecGroup
	for _, res := range [][2]int{{1280, 720}, {1920, 1080}, {3840, 2160}} {
		for _, content := range []string{"static", "scrolling", "mixed", "noise"} {
			groups = append(groups, codecGroup{content, res[0], res[1], 2})
		}
	}
	for _, res := range [][2]int{{320, 180}, {640, 360}} {
		for _, quant := range []uint{0, 2} {
			groups = append(groups, codecGroup{"game", res[0], res[1], quant})
		}
	}
	return groups
}

// gitDescribe names the tree being measured ("unknown" outside a checkout).
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// codecSuite runs the full grid and returns the report.
func codecSuite(budget time.Duration) (*codecSuiteReport, error) {
	pools := make(map[int]*wpool.Pool, len(codecWorkerCounts))
	for _, k := range codecWorkerCounts {
		pools[k] = wpool.New(k)
		defer pools[k].Close()
	}

	rep := &codecSuiteReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Commit:      gitDescribe(),
		FrameBudget: budget.String(),
	}
	for _, g := range codecGroups() {
		frames := contentFrames(g.content, g.w, g.h)
		if err := verifyByteIdentity(g.w, g.h, g.quant, frames, pools); err != nil {
			return nil, err
		}
		// Every row of a group sees the same frame sequence: the fixed set
		// round-robin, or the game restarted from its first frame.
		source := func() func(i int) []byte {
			if g.content == "game" {
				return gameSource(g.w, g.h)
			}
			return cycleSource(frames)
		}
		frameMB := float64(g.w*g.h*4) / 1e6
		for _, k := range codecWorkerCounts {
			// Each row runs the hub's configuration: keyframe striping
			// plus a fresh content-addressed cache (fresh per row so a
			// row measures its own steady state, not a sibling's).
			cache := codec.NewTileCache(0)
			enc := codec.NewEncoder(g.w, g.h, codec.Options{
				QuantShift: g.quant, Workers: k, Pool: pools[k],
				KeyInterval: codecKeyInterval, StripeKeyframes: true, Cache: cache,
			})
			t := timeEncode(enc, source(), budget, contentWarmFrames(g.content, len(frames)),
				contentMinFrames(g.content), contentCycleFrames(g.content), cache)
			rep.Cells = append(rep.Cells, codecCell{
				Content: g.content, Width: g.w, Height: g.h, QuantShift: g.quant, Workers: k,
				NsPerFrame: t.nsPerFrame, MedianNs: t.medianNs, P99Ns: t.p99Ns,
				SpikeRatio: t.spikeRatio, KeySpikes: t.keySpikes,
				MBPerSec: frameMB / t.nsPerFrame * 1e9, BytesPerFrame: t.bytesPerFrame,
				DirtyRatio: t.dirtyRatio, CacheHitRatio: t.cacheHitRatio,
			})
		}
		first, last := rep.Cells[len(rep.Cells)-len(codecWorkerCounts)], rep.Cells[len(rep.Cells)-1]
		fmt.Fprintf(os.Stderr, "odrbench: codec %dx%d %-9s q%d  1w %7.2fms  %dw %7.2fms  %.3fx raw  hit %.2f  spike %.2f  keyspikes %d\n",
			g.w, g.h, g.content, g.quant, first.MedianNs/1e6, last.Workers, last.MedianNs/1e6,
			last.BytesPerFrame/(frameMB*1e6), last.CacheHitRatio, last.SpikeRatio, last.KeySpikes)
	}
	return rep, nil
}

// writeCodecReport writes the suite report as indented JSON.
func writeCodecReport(rep *codecSuiteReport, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Absolute gates -codec-check holds the current run to, independent of the
// baseline. On static content the cache must essentially always hit and
// striping must have flattened keyframe cost into the frame cadence (zero
// keyframe-shaped frames over 2x the median — the structural spike detector
// in timeEncode, robust to scheduler noise that a raw p99/median ratio gate
// would flake on). The codec must compress what the system serves (game),
// and what it cannot compress must not grow past the payload coder's
// documented worst case of raw + one byte of header per 1 KiB block, plus
// the tile directory (noise). The game bound sits just above what the coder
// achieves (0.127x raw at 320x180 lossless), so a compression loss of 4 %
// fails it.
const (
	codecMinStaticHitRatio = 0.9
	codecGameMaxRawRatio   = 0.132
	codecNoiseMaxRawRatio  = 1.02
)

// codecBytesGrowthAllowed is the per-cell bytes/frame bound against the
// baseline. The noise-pixel classes repeat with the frame set's period and
// are measured over whole stripe cycles, so their bytes/frame is a constant
// of the coder: any growth is a regression. Game content never repeats and
// noise is not cycle-aligned, so their bytes come from a fixed stretch of
// frames (timeEncode) rather than whole cycles of a repeating set; they keep
// a 10% band on top of their absolute gates.
func codecBytesGrowthAllowed(content string) float64 {
	switch content {
	case "static", "scrolling", "mixed":
		return 1.001
	}
	return 1.10
}

// checkCodecRegression re-runs the suite and compares it against the
// committed baseline: bytes/frame per cell (codecBytesGrowthAllowed), and
// the absolute gates above on every current cell of their class. Both carry
// across machines; ns/frame and MB/s do not and are only reported.
func checkCodecRegression(baselinePath string, budget time.Duration) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var baseline codecSuiteReport
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	rep, err := codecSuite(budget)
	if err != nil {
		return err
	}
	key := func(c codecCell) string {
		return fmt.Sprintf("%s/%dx%d/q%d/w%d", c.Content, c.Width, c.Height, c.QuantShift, c.Workers)
	}
	current := make(map[string]codecCell, len(rep.Cells))
	for _, c := range rep.Cells {
		current[key(c)] = c
	}
	var failures int
	for _, b := range baseline.Cells {
		c, ok := current[key(b)]
		if !ok {
			fmt.Fprintf(os.Stderr, "odrbench: baseline cell %s missing from current run\n", key(b))
			failures++
			continue
		}
		if allowed := codecBytesGrowthAllowed(b.Content); b.BytesPerFrame > 0 && c.BytesPerFrame > b.BytesPerFrame*allowed {
			fmt.Fprintf(os.Stderr, "odrbench: REGRESSION %s: bytes/frame %.0f > baseline %.0f (+%.1f%% allowed)\n",
				key(b), c.BytesPerFrame, b.BytesPerFrame, (allowed-1)*100)
			failures++
		}
	}
	for _, c := range rep.Cells {
		rawBytes := float64(c.Width * c.Height * 4)
		switch c.Content {
		case "static":
			if c.CacheHitRatio < codecMinStaticHitRatio {
				fmt.Fprintf(os.Stderr, "odrbench: GATE %s: static cache hit ratio %.3f < %.2f\n",
					key(c), c.CacheHitRatio, codecMinStaticHitRatio)
				failures++
			}
			if c.KeySpikes > 0 {
				fmt.Fprintf(os.Stderr, "odrbench: GATE %s: %d keyframe spike(s) >2x median (striping not flattening the cadence)\n",
					key(c), c.KeySpikes)
				failures++
			}
		case "game":
			if c.BytesPerFrame > codecGameMaxRawRatio*rawBytes {
				fmt.Fprintf(os.Stderr, "odrbench: GATE %s: %.0f bytes/frame is %.2fx raw, want <= %.2fx (the codec must compress what the system serves)\n",
					key(c), c.BytesPerFrame, c.BytesPerFrame/rawBytes, codecGameMaxRawRatio)
				failures++
			}
		case "noise":
			if c.BytesPerFrame > codecNoiseMaxRawRatio*rawBytes {
				fmt.Fprintf(os.Stderr, "odrbench: GATE %s: %.0f bytes/frame is %.3fx raw, want <= %.2fx (payload worst case exceeded)\n",
					key(c), c.BytesPerFrame, c.BytesPerFrame/rawBytes, codecNoiseMaxRawRatio)
				failures++
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d codec bench cell(s) regressed or failed a gate", failures)
	}
	fmt.Fprintf(os.Stderr, "odrbench: codec bytes/frame within bounds of %s and gates clean (%d cells)\n",
		baselinePath, len(baseline.Cells))
	return nil
}
