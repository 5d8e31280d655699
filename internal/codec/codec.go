// Package codec implements the video-style frame codec used by the
// real-time streaming stack: temporal delta against the previous frame,
// quantization, spatial prediction and entropy coding — Rice-split
// residuals whose quotients are coded in pairs by static prefix tables —
// over independently coded tiles. It stands in for the VirtualGL/TurboVNC video
// streaming the paper builds on — what matters to FPS regulation is that
// encoding takes real, content-dependent time, that static scene regions
// compress away and that moving ones shrink to video size (which is why
// the paper's streams fit in 15–60 Mbps).
//
// There is one bitstream: a 16-byte header, a per-tile directory
// (dirty/intra flags, payload length, CRC-32C) and the tile payloads
// (tile.go for the frame layout, payload.go for the payload coder,
// splice.go for per-session resync frames, cache.go for the
// content-addressed payload cache).
package codec

import (
	"errors"
	"fmt"

	"odr/internal/wpool"
)

const (
	frameKey   = 0
	frameDelta = 1

	// maxDim bounds the decoded frame dimensions. The paper's workloads top
	// out at 4K; 8192 leaves headroom while capping the allocation a hostile
	// header can demand at 8192x8192x4 before any payload byte is validated.
	maxDim = 8192
)

// Errors returned by the decoder.
var (
	ErrBadMagic   = errors.New("codec: bad magic byte")
	ErrTruncated  = errors.New("codec: truncated bitstream")
	ErrDimensions = errors.New("codec: frame dimensions mismatch")
	ErrNoKeyframe = errors.New("codec: delta frame before any keyframe")
	ErrCorrupt    = errors.New("codec: corrupt payload")
	ErrVersion    = errors.New("codec: unsupported bitstream version")
)

// Options configures an Encoder.
type Options struct {
	// QuantShift drops the low bits of each sample before coding
	// (0 = lossless, higher = smaller and lossier). The zero value is the
	// default: lossless.
	QuantShift uint
	// KeyInterval forces a keyframe every N frames (default 120; the
	// first frame is always a keyframe).
	KeyInterval int
	// TileRows is the tile height in pixel rows (default 16). Every tile is
	// an independent encode/decode unit.
	TileRows int
	// Workers caps how many pool workers encode tiles of one frame
	// concurrently (0 = the pool's full width, 1 = serial in the calling
	// goroutine). The bitstream is byte-identical at any setting.
	Workers int
	// Pool overrides the worker pool tiles are encoded on (nil = the
	// process-wide wpool.Default()).
	Pool *wpool.Pool
	// Cache, when non-nil, memoizes encoded tile payloads content-addressed
	// across frames, encoders and splices (see cache.go). Sharing
	// one cache between encoders — of any geometry or QuantShift — is safe
	// and changes no bitstream byte: payloads are pure functions of the
	// coded bytes and the row width, and the cache keys on both.
	Cache *TileCache
	// StripeKeyframes replaces the periodic full keyframe with temporal
	// striping: each delta frame intra-refreshes the tile stripe
	// whose index matches the frame number mod KeyInterval, so every tile
	// is re-anchored once per KeyInterval frames and per-frame encode time
	// stays flat instead of spiking KeyInterval-periodically. The first
	// frame (and any ForceKeyframe) still emits a full key.
	StripeKeyframes bool
}

// Encoder compresses a stream of same-sized RGBA frames.
//
// The encoder holds all working buffers it needs between frames, so the
// steady-state hot path allocates only when the caller's destination slice
// must grow.
type Encoder struct {
	w, h  int
	opts  Options
	prev  []byte // persistent quantized reference; dirty tiles fold into it in place
	count int

	// Tile state (see tile.go, predict.go): per-tile scratches persist
	// across frames, and the wpool.Group embeds the submission bookkeeping,
	// so the parallel path allocates nothing in steady state either.
	tileRows    int
	group       *wpool.Group
	encTask     func(int)
	predTask    func(int)
	refValid    bool     // prev holds a decodable reference
	prevRaw     []byte   // raw pixels behind prev, per tile (see predict.go)
	tileRawOK   []bool   // prevRaw[tile] is a valid raw reference
	tilePayload [][]byte // per-tile payload refs: tileScratch[i] or cache memory
	tileScratch [][]byte // per-tile encoder-owned payload scratch
	tileQ       [][]byte // per-tile quantization scratch
	tileDelta   [][]byte // per-tile delta scratch
	tileCRC     []uint32
	tileDirty   []bool // tile carries a payload this frame
	tileChanged []bool // tile content differs from the reference
	tileIntra   []bool // tile is this frame's keyframe stripe
	tileNanos   []int64
	workList    []int // tiles the pre-pass sent to the pool, ascending
	lastTiles   int
	lastDirty   int
	curPix      []byte // per-frame task input, set before the tile Maps
	curKey      bool
	curPhase    int // this delta frame's stripe phase, -1 when not striping

	// Splice state (splice.go): tileChangedAt[i] is the encode index
	// (Frames() value) of the last frame whose tile i was dirty, and the
	// splice* slices memoize intra-coded tile payloads cut from e.prev so
	// repeated splices of a static tile cost one coding pass, not N.
	tileChangedAt []int64
	splicePayload [][]byte // per-tile intra payload refs: spliceScratch[i] or cache memory
	spliceScratch [][]byte // per-tile encoder-owned splice payload scratch
	spliceCRC     []uint32
	spliceAt      []int64
	// lastSpliceTiles is the tile count of the most recent AppendSplice
	// (read under the caller's encoder lock; feeds cache conservation
	// accounting).
	lastSpliceTiles int

	frames int64
	bytes  int64
}

// NewEncoder returns an encoder for w×h RGBA frames.
func NewEncoder(w, h int, opts Options) *Encoder {
	if opts.QuantShift > 7 {
		opts.QuantShift = 7
	}
	if opts.KeyInterval <= 0 {
		opts.KeyInterval = 120
	}
	e := &Encoder{w: w, h: h, opts: opts, tileRows: opts.TileRows}
	if e.tileRows <= 0 {
		e.tileRows = DefaultTileRows
	}
	e.group = wpool.NewGroup(opts.Pool)
	e.encTask = e.encodeTile
	e.predTask = e.predictTile
	return e
}

// FrameSize returns the raw frame size in bytes.
func (e *Encoder) FrameSize() int { return e.w * e.h * 4 }

// Frames returns the number of frames encoded.
func (e *Encoder) Frames() int64 { return e.frames }

// Bytes returns the total encoded output size.
func (e *Encoder) Bytes() int64 { return e.bytes }

// Encode compresses pix (len must be w*h*4) and returns the bitstream in a
// freshly allocated slice. Callers that recycle payload buffers should use
// EncodeAppend instead.
func (e *Encoder) Encode(pix []byte) ([]byte, error) {
	return e.EncodeAppend(make([]byte, 0, hdr2Len+len(pix)/8), pix)
}

// EncodeAppend compresses pix (len must be w*h*4), appends the bitstream to
// dst, and returns the extended slice. When dst has enough capacity the
// encode allocates nothing.
func (e *Encoder) EncodeAppend(dst, pix []byte) ([]byte, error) {
	if len(pix) != e.FrameSize() {
		return nil, fmt.Errorf("codec: frame is %d bytes, want %d", len(pix), e.FrameSize())
	}
	return e.encodeTiles(dst, pix)
}

// ForceKeyframe makes the next frame a keyframe (e.g. after a client joins).
// The reference buffer is kept (the key frame overwrites every tile anyway);
// only its validity is dropped.
func (e *Encoder) ForceKeyframe() {
	e.count = 0
	e.refValid = false
}

// Decoder decompresses a stream produced by Encoder.
type Decoder struct {
	w, h    int
	cur     []byte
	scratch []byte // payload expansion target; swaps with cur on keyframes

	// Tile state (tile.go): parsed directory scratches plus the optional
	// decode pool (nil = serial decoding).
	group     *wpool.Group
	workers   int
	tileOff   []int
	tileLen   []int
	tileCRC   []uint32
	tileGood  []bool
	tileIntra []bool
	tileErr   []error
	decTask   func(int)
	// per-frame decode task inputs
	curBS      []byte
	curKeyF    bool
	curW, curH int
	curRows    int
	badTiles   []int
}

// NewDecoder returns a decoder; dimensions are learned from the first frame.
func NewDecoder() *Decoder { return &Decoder{} }

// SetPool enables tile-parallel decoding on p (nil = the shared
// wpool.Default()), with at most workers concurrent tiles (0 = the pool's
// full width). The decoded pixels are identical at any setting; the
// default, without SetPool, is serial decoding.
func (d *Decoder) SetPool(p *wpool.Pool, workers int) {
	d.group = wpool.NewGroup(p)
	d.workers = workers
}

// IsKeyframe reports whether the bitstream is a self-contained keyframe —
// decodable with no prior state. Transports use it to tag the delta chain:
// a resyncing client skips frames until one of these arrives.
func IsKeyframe(bs []byte) bool {
	return len(bs) >= 3 && bs[0] == magic2 && bs[1] == version2 && bs[2] == frameKey
}

// Decode decompresses one bitstream frame and returns the reconstructed
// RGBA pixels. The returned slice is owned by the decoder and valid until
// the next Decode. Steady-state decoding allocates nothing.
//
// A frame whose bitstream carries corrupt tiles decodes partially: the
// intact tiles are applied, the corrupt ones keep their previous content,
// and Decode returns the pixels alongside a *TileError (matchable with
// errors.Is(err, ErrTileCRC)) so the caller can resync instead of
// discarding the whole frame.
func (d *Decoder) Decode(bs []byte) ([]byte, error) {
	if len(bs) == 0 {
		return nil, ErrTruncated
	}
	if bs[0] != magic2 {
		return nil, ErrBadMagic
	}
	return d.decodeTiles(bs)
}

// Size returns the current frame dimensions (0,0 before the first frame).
func (d *Decoder) Size() (w, h int) { return d.w, d.h }

// grow returns b resized to n bytes, reusing its backing array when the
// capacity allows and allocating once otherwise.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
