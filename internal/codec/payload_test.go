package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// ---------------------------------------------------------------------------
// Reference coder: the payload format written and read one bit at a time,
// straight from the layout comment in payload.go. It shares only
// riceParams (plain scalar code, pinned by TestRiceEstimateIsUpperBound)
// with the production coder, so byte equality between the two pins every
// word-wide kernel: block statistics, residual/zig-zag/shift, both bit
// packers, and on the way back both bit readers and the reconstruction.
// ---------------------------------------------------------------------------

type refBitWriter struct {
	b []byte
	n int // bits written into b
}

func (w *refBitWriter) bit(v uint) {
	if w.n%8 == 0 {
		w.b = append(w.b, 0)
	}
	w.b[len(w.b)-1] |= byte(v&1) << (w.n % 8)
	w.n++
}

func (w *refBitWriter) align() { w.n = (w.n + 7) &^ 7 }

func refBlockStats(src []byte, i, end int) (st blockStat) {
	for j := i; j < end; j++ {
		x := src[j]
		r := x
		if j >= 4 {
			r -= src[j-4]
		}
		st.or[0] |= x
		st.or[1] |= r
		st.sum[0][j&3] += uint32(zigzag(x))
		st.sum[1][j&3] += uint32(zigzag(r))
	}
	return st
}

func refAppendPayload(src []byte) []byte {
	var out []byte
	for i := 0; i < len(src); {
		end := min(i+blockBytes, len(src))
		st := refBlockStats(src, i, end)
		if st.or[0] == 0 {
			run := uint64(1)
			for end < len(src) {
				next := min(end+blockBytes, len(src))
				if refBlockStats(src, end, next).or[0] != 0 {
					break
				}
				run++
				end = next
			}
			out = binary.AppendUvarint(append(out, blockZeros<<4), run)
			i = end
			continue
		}
		n := end - i
		s, ks, est := riceParams(st.or[0], &st.sum[0], n)
		pred := false
		if s1, ks1, est1 := riceParams(st.or[1], &st.sum[1], n); est1 < est {
			s, ks, est, pred = s1, ks1, est1, true
		}
		if est+8*riceOverhead > 8*n {
			out = append(append(out, blockRaw<<4), src[i:end]...)
			i = end
			continue
		}
		tag := byte(blockRice<<4) | byte(s)
		if pred {
			tag |= tagPred
		}
		out = append(out, tag, ks[0]|ks[1]<<4, ks[2]|ks[3]<<4)
		vals := make([]uint, n)
		for j := i; j < end; j++ {
			r := src[j]
			if pred && j >= 4 {
				r -= src[j-4]
			}
			vals[j-i] = uint(zigzag(r)) >> s
		}
		w := &refBitWriter{}
		for c := 0; c < 4; c++ {
			if ks[c] == kZero {
				continue
			}
			for j := c; j < n; j += 4 {
				for b := uint(0); b < uint(ks[c]); b++ {
					w.bit(vals[j] >> b)
				}
			}
		}
		w.align()
		for c := 0; c < 4; c++ {
			if uint(ks[c]) >= 8-s {
				continue
			}
			for j := c; j < n; j += 4 {
				for q := vals[j] >> ks[c]; q > 0; q-- {
					w.bit(0)
				}
				w.bit(1)
			}
		}
		out = append(out, w.b...)
		i = end
	}
	return out
}

var errRef = errors.New("reference decoder: malformed payload")

// refDecodePayload decodes a well-formed payload; anything else is errRef.
func refDecodePayload(payload []byte, size int) ([]byte, error) {
	dst := make([]byte, size)
	pos := 0
	bitAt := func(base, n int) (uint, bool) {
		if base+n/8 >= len(payload) {
			return 0, false
		}
		return uint(payload[base+n/8]>>(n%8)) & 1, true
	}
	for i := 0; i < size; {
		if pos >= len(payload) {
			return nil, errRef
		}
		tag := payload[pos]
		pos++
		end := min(i+blockBytes, size)
		switch tag >> 4 {
		case blockZeros:
			run, used := binary.Uvarint(payload[pos:])
			if used <= 0 || run == 0 || run > uint64((size-i+blockBytes-1)/blockBytes) {
				return nil, errRef
			}
			pos += used
			i = min(i+int(run)*blockBytes, size)
			continue
		case blockRaw:
			if len(payload)-pos < end-i {
				return nil, errRef
			}
			pos += copy(dst[i:end], payload[pos:])
			i = end
			continue
		case blockRice:
		default:
			return nil, errRef
		}
		if len(payload)-pos < 2 {
			return nil, errRef
		}
		s, pred := uint(tag&7), tag&tagPred != 0
		ks := [4]uint{uint(payload[pos] & 15), uint(payload[pos] >> 4), uint(payload[pos+1] & 15), uint(payload[pos+1] >> 4)}
		pos += 2
		n := end - i
		vals := make([]uint, n)
		bitn := 0
		for c := 0; c < 4; c++ {
			if ks[c] == kZero {
				continue
			}
			for j := c; j < n; j += 4 {
				for b := uint(0); b < ks[c]; b++ {
					v, ok := bitAt(pos, bitn)
					if !ok {
						return nil, errRef
					}
					vals[j] |= v << b
					bitn++
				}
			}
		}
		pos += (bitn + 7) / 8
		bitn = 0
		for c := 0; c < 4; c++ {
			if ks[c] >= 8-s {
				continue
			}
			for j := c; j < n; j += 4 {
				q := uint(0)
				for {
					v, ok := bitAt(pos, bitn)
					if !ok {
						return nil, errRef
					}
					bitn++
					if v == 1 {
						break
					}
					q++
				}
				vals[j] |= q << ks[c]
			}
		}
		pos += (bitn + 7) / 8
		for j := 0; j < n; j++ {
			v := unzigzag(byte(vals[j])) << s
			if pred && i+j >= 4 {
				v += dst[i+j-4]
			}
			dst[i+j] = v
		}
		i = end
	}
	if pos != len(payload) {
		return nil, errRef
	}
	return dst, nil
}

// ---------------------------------------------------------------------------
// Content
// ---------------------------------------------------------------------------

// gameFrames renders n frames of the synthetic game the hubs, soaks and
// benches serve, with an input flash every seventh frame. It repeats
// stream.Game.Render (which this package cannot import: stream imports
// codec) so the coder is tested on the content it exists for.
func gameFrames(w, h, n int) [][]byte {
	t, reaction := 0.0, 0.0
	sat := func(a, b byte) byte {
		if int(a)+int(b) > 255 {
			return 255
		}
		return a + b
	}
	out := make([][]byte, n)
	for f := range out {
		if f%7 == 0 {
			reaction = 1
		}
		t += 0.05
		flash := reaction
		reaction *= 0.8
		cx := float64(w) * (0.5 + 0.3*math.Cos(t))
		cy := float64(h) * (0.5 + 0.3*math.Sin(1.3*t))
		dst := make([]byte, w*h*4)
		i := 0
		for y := 0; y < h; y++ {
			fy := float64(y)
			for x := 0; x < w; x++ {
				fx := float64(x)
				v := math.Sin(fx*0.07+t) + math.Cos(fy*0.09-t*0.7)
				r := byte(128 + 80*v)
				g := byte(128 + 80*math.Sin(v+t*0.5))
				b := byte(128 + 80*math.Cos(v-t*0.3))
				if dx, dy := fx-cx, fy-cy; dx*dx+dy*dy < 25 {
					r, g, b = 255, 255, 220
				}
				if flash > 0.05 {
					r, g, b = sat(r, byte(90*flash)), sat(g, byte(90*flash)), sat(b, byte(90*flash))
				}
				dst[i], dst[i+1], dst[i+2], dst[i+3] = r, g, b, 255
				i += 4
			}
		}
		out[f] = dst
	}
	return out
}

// contentFrames builds n frames of one of the content classes odrbench's
// codec suite measures.
func contentFrames(kind string, w, h, n int) [][]byte {
	if kind == "game" {
		return gameFrames(w, h, n)
	}
	rng := rand.New(rand.NewSource(int64(w*131 + h)))
	size := w * h * 4
	base := randBuf(rng, size)
	scrolled := func(f int) []byte {
		fr := append([]byte(nil), base...)
		start := f * size / n
		copy(fr[start:min(start+size/10+1, size)], randBuf(rng, size/10+1))
		return fr
	}
	out := make([][]byte, n)
	for f := range out {
		switch kind {
		case "static":
			out[f] = base
		case "scrolling":
			out[f] = scrolled(f)
		case "mixed":
			if out[f] = base; f%2 == 1 {
				out[f] = scrolled(f / 2)
			}
		case "noise":
			out[f] = randBuf(rng, size)
		default:
			panic("unknown content kind " + kind)
		}
	}
	return out
}

// payloadCorpus is the byte strings the coder-level tests run over: every
// block type, both prediction modes, every shift, short and odd lengths.
func payloadCorpus() [][]byte {
	rng := rand.New(rand.NewSource(7))
	var corpus [][]byte
	add := func(b []byte) { corpus = append(corpus, b) }
	add(nil)
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 255, 256, 257, 260, 511, 1000, 4096 + 4} {
		add(make([]byte, n))      // zero runs
		add(randBuf(rng, n))      // raw blocks
		smooth := make([]byte, n) // left prediction wins
		ramp := make([]byte, n)   // absolute wins over nothing: constant pixels
		sparse := make([]byte, n) // zero blocks inside content
		for i := range smooth {
			smooth[i] = byte(100 + 30*math.Sin(float64(i/4)*0.05) + float64(i&3)*20)
			ramp[i] = byte(i&3) * 60
			if i%700 < 40 {
				sparse[i] = byte(rng.Intn(7))
			}
		}
		add(smooth)
		add(ramp)
		add(sparse)
		for s := uint(1); s < 8; s++ { // what quantization leaves behind
			q := append([]byte(nil), smooth...)
			maskInto(q, q, 0xFF<<s)
			add(q)
			d := make([]byte, n) // a quantized temporal delta: small signed steps
			for i := range d {
				d[i] = byte(rng.Intn(5)-2) << s
			}
			add(d)
		}
		outlier := append([]byte(nil), smooth...)
		for i := 0; i < n; i += 97 { // sharp edges in smooth content
			outlier[i] = byte(rng.Intn(256))
		}
		add(outlier)
	}
	for _, f := range gameFrames(64, 36, 3) {
		add(f)
	}
	return corpus
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

func TestZigzagLanes(t *testing.T) {
	for v := 0; v < 256; v++ {
		b := byte(v)
		if z := zigzag(b); unzigzag(z) != b {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", b, unzigzag(z))
		}
		if want := byte(uint8(int8(b)<<1) ^ uint8(int8(b)>>7)); zigzag(b) != want {
			t.Fatalf("zigzag(%d) = %d, want %d", b, zigzag(b), want)
		}
		// Each lane in turn, with the others holding a different value, so
		// a carry or borrow leaking across lanes cannot hide.
		for lane := uint(0); lane < 8; lane++ {
			x := uint64(0xA55A3CC3F00F9966)&^(0xFF<<(8*lane)) | uint64(b)<<(8*lane)
			if got := byte(zigzagBytes(x) >> (8 * lane)); got != zigzag(b) {
				t.Fatalf("zigzagBytes lane %d of %#x = %d, want %d", lane, x, got, zigzag(b))
			}
			if got := byte(unzigzagBytes(x) >> (8 * lane)); got != unzigzag(b) {
				t.Fatalf("unzigzagBytes lane %d of %#x = %d, want %d", lane, x, got, unzigzag(b))
			}
		}
	}
}

func TestBlockStatsMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 2000; iter++ {
		src := randBuf(rng, rng.Intn(3*blockBytes))
		if iter%3 == 0 { // saturate the 16-bit lane accumulators
			for i := range src {
				src[i] = 0x80
			}
		}
		for i := 0; i < len(src); i += blockBytes {
			end := min(i+blockBytes, len(src))
			if got, want := blockStats(src, i, end), refBlockStats(src, i, end); got != want {
				t.Fatalf("blockStats(len %d, %d:%d) = %+v, want %+v", len(src), i, end, got, want)
			}
		}
	}
}

func TestAllZeroMatchesByteLoop(t *testing.T) {
	for n := 0; n < 40; n++ {
		b := make([]byte, n)
		if !allZero(b) {
			t.Fatalf("allZero(%d zeros) = false", n)
		}
		for i := range b {
			b[i] = 1
			if allZero(b) {
				t.Fatalf("allZero missed byte %d of %d", i, n)
			}
			b[i] = 0
		}
	}
}

// TestRiceEstimateIsUpperBound pins the property the worst-case guarantee
// and the encoder's scratch sizing rest on: a rice block never takes more
// bits than riceParams said it would.
func TestRiceEstimateIsUpperBound(t *testing.T) {
	for _, src := range payloadCorpus() {
		for i := 0; i < len(src); i += blockBytes {
			end := min(i+blockBytes, len(src))
			st := refBlockStats(src, i, end)
			for mode := 0; mode < 2; mode++ {
				s, ks, est := riceParams(st.or[mode], &st.sum[mode], end-i)
				bitsUsed := 0
				for j := i; j < end; j++ {
					r := src[j]
					if mode == 1 && j >= 4 {
						r -= src[j-4]
					}
					v := uint(zigzag(r)) >> s
					switch k := uint(ks[j&3]); {
					case k == kZero:
						if v != 0 {
							t.Fatalf("channel %d marked all-zero holds %d", j&3, v)
						}
					case k == 8-s:
						bitsUsed += int(k)
					default:
						bitsUsed += int(v>>k) + 1 + int(k)
					}
				}
				if bitsUsed > est {
					t.Fatalf("block %d mode %d: %d bits used, estimate %d", i/blockBytes, mode, bitsUsed, est)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Coder
// ---------------------------------------------------------------------------

func TestPayloadMatchesReferenceCoder(t *testing.T) {
	for n, src := range payloadCorpus() {
		got := appendPayload(nil, src)
		if want := refAppendPayload(src); !bytes.Equal(got, want) {
			t.Fatalf("corpus %d (len %d): payload differs from the reference coder's (%d vs %d bytes)", n, len(src), len(got), len(want))
		}
		if len(got) > maxPayloadLen(len(src)) {
			t.Fatalf("corpus %d: %d payload bytes for %d source bytes, bound %d", n, len(got), len(src), maxPayloadLen(len(src)))
		}
		back := make([]byte, len(src))
		if err := decodePayload(back, got); err != nil {
			t.Fatalf("corpus %d (len %d): decode: %v", n, len(src), err)
		}
		ref, err := refDecodePayload(got, len(src))
		if err != nil {
			t.Fatalf("corpus %d: reference decode: %v", n, err)
		}
		if !bytes.Equal(back, src) || !bytes.Equal(ref, src) {
			t.Fatalf("corpus %d (len %d): round trip differs", n, len(src))
		}
		// Appending must leave what is already in dst alone.
		pre := []byte("prefix")
		if out := appendPayload(pre[:len(pre):len(pre)], src); !bytes.Equal(out[:len(pre)], pre) || !bytes.Equal(out[len(pre):], got) {
			t.Fatalf("corpus %d: appending after a prefix changed the bytes", n)
		}
	}
}

// TestPayloadCleanRegionIsCheap holds the zero-block run to the cost of the
// zero-run token it replaced: one tag and one varint, whatever the length.
func TestPayloadCleanRegionIsCheap(t *testing.T) {
	for _, n := range []int{256, 20480, 122880, 1 << 22} {
		token := 1 + len(binary.AppendUvarint(nil, uint64(n))) // 0x00 <uvarint n>
		if got := len(appendPayload(nil, make([]byte, n))); got > token {
			t.Errorf("%d zero bytes code to %d bytes, zero-run token %d", n, got, token)
		}
	}
	// A constant-colour tile: absolute content that left prediction flattens.
	flat := bytes.Repeat([]byte{10, 200, 30, 255}, 5120)
	if got := len(appendPayload(nil, flat)); got > 4*len(flat)/blockBytes {
		t.Errorf("flat tile of %d bytes codes to %d", len(flat), got)
	}
}

func TestGameContentCompresses(t *testing.T) {
	const w, h = 320, 180
	for _, c := range []struct {
		shift uint
		ratio float64
	}{{0, 0.30}, {2, 0.22}} {
		enc := NewEncoder(w, h, Options{QuantShift: c.shift, StripeKeyframes: true})
		dec := NewDecoder()
		frames := gameFrames(w, h, 30)
		var total int
		for _, f := range frames {
			bs, err := enc.Encode(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Decode(bs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, quantized(f, c.shift)) {
				t.Fatal("decoded pixels differ from the quantized source")
			}
			total += len(bs)
		}
		perFrame := float64(total) / float64(len(frames))
		if limit := c.ratio * w * h * 4; perFrame > limit {
			t.Errorf("QuantShift %d: %.0f bytes/frame, want <= %.0f (%.2fx raw)", c.shift, perFrame, limit, c.ratio)
		}
	}
}

// TestPayloadRoundTripMatrix runs every content class through the frame
// kinds a hub produces — key, delta, intra stripe, spliced key and spliced
// catch-up delta — at every QuantShift and over awkward geometries, with
// one TileCache shared by all of it.
func TestPayloadRoundTripMatrix(t *testing.T) {
	geoms := []struct{ w, h, rows int }{
		{1, 1, 0}, {33, 19, 0}, {7, 40, 0}, {64, 40, 0}, {20, 23, 5},
	}
	cache := NewTileCache(0)
	for _, kind := range []string{"static", "scrolling", "mixed", "noise", "game"} {
		for _, g := range geoms {
			frames := contentFrames(kind, g.w, g.h, 7)
			for shift := uint(0); shift < 8; shift++ {
				enc := NewEncoder(g.w, g.h, Options{
					QuantShift: shift, TileRows: g.rows, KeyInterval: 3,
					StripeKeyframes: true, Cache: cache,
				})
				live, lagging := NewDecoder(), NewDecoder()
				var lagAt int64
				for f, pix := range frames {
					want := quantized(pix, shift)
					bs, err := enc.Encode(pix)
					if err != nil {
						t.Fatal(err)
					}
					check := func(what string, dec *Decoder, bs []byte) {
						t.Helper()
						got, err := dec.Decode(bs)
						if err != nil {
							t.Fatalf("%s %dx%d/%d shift %d frame %d: %s: %v", kind, g.w, g.h, g.rows, shift, f, what, err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s %dx%d/%d shift %d frame %d: %s decodes to other pixels", kind, g.w, g.h, g.rows, shift, f, what)
						}
					}
					check("stream frame", live, bs)
					key, err := enc.AppendSplice(nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					check("spliced key", NewDecoder(), key)
					// A viewer that only takes every third frame catches up
					// through spliced deltas.
					if f == 0 {
						check("first frame", lagging, bs)
						lagAt = enc.Frames()
					} else if f%3 == 0 {
						catchUp, err := enc.AppendSplice(nil, lagAt)
						if err != nil {
							t.Fatal(err)
						}
						check("spliced delta", lagging, catchUp)
						lagAt = enc.Frames()
					}
				}
			}
		}
	}
	if hits, _, _ := cache.Stats(); hits == 0 {
		t.Fatal("the shared cache never hit")
	}
}

// TestSharedCacheAcrossGeometryAndQuant pins the purity the cache key
// relies on: two encoders of different width and QuantShift share one
// cache, and each still decodes to exactly its own quantized frames — a
// payload depends on the coded bytes, never on who coded them.
func TestSharedCacheAcrossGeometryAndQuant(t *testing.T) {
	cache := NewTileCache(0)
	type stream struct {
		w, h  int
		shift uint
		enc   *Encoder
		solo  *Encoder
		dec   *Decoder
	}
	streams := []*stream{{w: 64, h: 48, shift: 0}, {w: 32, h: 48, shift: 3}, {w: 64, h: 48, shift: 3}}
	for _, s := range streams {
		opts := Options{QuantShift: s.shift, StripeKeyframes: true, KeyInterval: 2}
		s.solo = NewEncoder(s.w, s.h, opts)
		opts.Cache = cache
		s.enc = NewEncoder(s.w, s.h, opts)
		s.dec = NewDecoder()
	}
	for round := 0; round < 3; round++ { // later rounds run on cache hits
		for f := 0; f < 6; f++ {
			for _, s := range streams {
				// Flat frames: the narrow stream's tiles hold the same bytes
				// as half-tiles of the wide one, and shift 3 maps neighbouring
				// colours onto one — plenty of chances for a wrong share.
				pix := bytes.Repeat([]byte{byte(40 * f), byte(7 * f), 200, 255}, s.w*s.h)
				copy(pix[f*s.w*4:], gameFrames(s.w, 8, 1)[0])
				bs, err := s.enc.Encode(pix)
				if err != nil {
					t.Fatal(err)
				}
				want, err := s.solo.Encode(pix)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bs, want) {
					t.Fatalf("round %d frame %d %dx%d shift %d: shared cache changed the bitstream", round, f, s.w, s.h, s.shift)
				}
				got, err := s.dec.Decode(bs)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, quantized(pix, s.shift)) {
					t.Fatalf("round %d frame %d %dx%d shift %d: wrong pixels", round, f, s.w, s.h, s.shift)
				}
			}
		}
	}
	if hits, _, _ := cache.Stats(); hits == 0 {
		t.Fatal("the shared cache never hit")
	}
}

// ---------------------------------------------------------------------------
// Hostile payloads
// ---------------------------------------------------------------------------

// riceBlock hand-assembles one rice block: tag, parameters, the two strings.
func riceBlock(tag byte, ks [4]byte, rem, unary []byte) []byte {
	return append(append([]byte{tag, ks[0] | ks[1]<<4, ks[2] | ks[3]<<4}, rem...), unary...)
}

func TestDecodePayloadHostile(t *testing.T) {
	allZeroKs := [4]byte{kZero, kZero, kZero, kZero}
	k0 := [4]byte{0, kZero, kZero, kZero} // channel 0 rice k=0: unary string only
	k1 := [4]byte{1, kZero, kZero, kZero} // channel 0 rice k=1
	ones := func(n int) []byte { return bytes.Repeat([]byte{0xFF}, n) }
	cases := []struct {
		name    string
		size    int
		payload []byte
		want    error
	}{
		{"empty payload", 4, nil, ErrTruncated},
		{"reserved tag bits", 4, []byte{0x40, 0, 0}, ErrCorrupt},
		{"unknown block type", 4, []byte{0x30, 1}, ErrCorrupt},
		{"zeros tag with shift", 4, []byte{blockZeros<<4 | 1, 1}, ErrCorrupt},
		{"raw tag with pred", 4, []byte{blockRaw<<4 | tagPred, 1, 2, 3, 4}, ErrCorrupt},

		{"zero run without count", 4, []byte{blockZeros << 4}, ErrTruncated},
		{"zero run of zero blocks", 4, []byte{blockZeros << 4, 0}, ErrCorrupt},
		{"zero run past the tile", 300, []byte{blockZeros << 4, 3}, ErrCorrupt},
		{"zero run of 2^64-1 blocks", 300, append([]byte{blockZeros << 4}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), ErrCorrupt},
		{"zero run count overflows", 300, append([]byte{blockZeros << 4}, bytes.Repeat([]byte{0x80}, 11)...), ErrCorrupt},
		{"zero run count cut short", 300, []byte{blockZeros << 4, 0x80}, ErrTruncated},

		{"raw block cut short", 8, []byte{blockRaw << 4, 1, 2, 3}, ErrTruncated},
		{"output short by one block", 257, []byte{blockZeros << 4, 1}, ErrTruncated},
		{"output short by one byte", 257, append([]byte{blockZeros << 4, 1}, blockRaw<<4), ErrTruncated},
		{"output long by one byte", 4, []byte{blockZeros << 4, 1, 0}, ErrCorrupt},
		{"second block after the tile", 4, []byte{blockZeros << 4, 1, blockZeros << 4, 1}, ErrCorrupt},

		{"rice parameters cut short", 4, []byte{0x00, 0xFF}, ErrTruncated},
		{"parameter above the sample width", 4, riceBlock(0x05, [4]byte{4, kZero, kZero, kZero}, nil, nil), ErrCorrupt},
		{"parameter 9 unshifted", 4, riceBlock(0x00, [4]byte{9, kZero, kZero, kZero}, nil, nil), ErrCorrupt},
		{"all-zero block then junk", 4, riceBlock(0x00, allZeroKs, nil, []byte{0}), ErrCorrupt},

		{"unary run past the payload", 256, riceBlock(0x00, k0, nil, ones(7)), ErrTruncated},
		{"unary string missing", 256, riceBlock(0x00, k0, nil, nil), ErrTruncated},
		{"unary zeros to the end", 256, riceBlock(0x00, k0, nil, make([]byte, 31)), ErrTruncated},
		{"unary run longer than any sample", 256, riceBlock(0x00, k0, nil, append(make([]byte, 40), ones(8)...)), ErrCorrupt},
		{"quotient too big for the parameter", 256, riceBlock(0x00, k1, ones(8), append([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, ones(8)...)), ErrCorrupt},
		{"quotient too big for the shift", 256, riceBlock(0x07, k0, nil, append([]byte{0x04}, ones(8)...)), ErrCorrupt},
		{"remainder string cut short", 256, riceBlock(0x00, k1, ones(7), nil), ErrTruncated},
		{"remainder padding bits set", 12, riceBlock(0x00, k1, []byte{0xFF}, []byte{0x07}), ErrCorrupt},
		{"unary padding bits set", 12, riceBlock(0x00, k1, []byte{0x07}, []byte{0x0F}), ErrCorrupt},
		{"trailing byte after the strings", 12, riceBlock(0x00, k1, []byte{0x07}, []byte{0x07, 0x00}), ErrCorrupt},
		{"verbatim sample wider than the shift allows", 4, riceBlock(0x04, [4]byte{4, kZero, kZero, kZero}, []byte{0x1F}, nil), ErrCorrupt},
	}
	// The last two rice cases are one set bit away from these, which decode.
	for _, ok := range []struct {
		size    int
		payload []byte
	}{
		{12, riceBlock(0x00, k1, []byte{0x07}, []byte{0x07})},
		{4, riceBlock(0x04, [4]byte{4, kZero, kZero, kZero}, []byte{0x0F}, nil)},
	} {
		if err := decodePayload(make([]byte, ok.size), ok.payload); err != nil {
			t.Fatalf("control payload %x rejected: %v", ok.payload, err)
		}
	}
	for _, c := range cases {
		// The payload sits in the middle of a larger buffer of set bits: a
		// decoder that over-reads sees ones where it expects padding, and
		// one that over-writes trips the canary after dst.
		buf := append(append(ones(16), c.payload...), ones(16)...)
		payload := buf[16 : 16+len(c.payload) : 16+len(c.payload)]
		out := append(make([]byte, c.size), 0xEE)
		err := decodePayload(out[:c.size:c.size], payload)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if out[c.size] != 0xEE {
			t.Errorf("%s: wrote past dst", c.name)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = decodePayload(out[:c.size], payload) }); allocs != 0 {
			t.Errorf("%s: %.0f allocations decoding a hostile payload", c.name, allocs)
		}
	}
}

// TestDecodePayloadEveryTruncationAndFlip cuts valid payloads at every
// length and flips every bit: each variant must either fail cleanly or
// decode (a flip can land on another valid payload) — never panic, never
// touch memory outside dst.
func TestDecodePayloadEveryTruncationAndFlip(t *testing.T) {
	quantNoise := randBuf(rand.New(rand.NewSource(3)), 300) // verbatim channels
	maskInto(quantNoise, quantNoise, 0xF0)
	for _, src := range [][]byte{gameFrames(16, 5, 1)[0], quantNoise} {
		valid := appendPayload(nil, src)
		out := append(make([]byte, len(src)), 0xEE)
		for cut := 0; cut < len(valid); cut++ {
			if err := decodePayload(out[:len(src):len(src)], valid[:cut:cut]); err == nil {
				t.Fatalf("payload cut to %d of %d bytes decoded", cut, len(valid))
			}
		}
		for bit := 0; bit < 8*len(valid); bit++ {
			mut := append([]byte(nil), valid...)
			mut[bit/8] ^= 1 << (bit % 8)
			_ = decodePayload(out[:len(src):len(src)], mut)
		}
		if out[len(src)] != 0xEE {
			t.Fatal("a mutated payload wrote past dst")
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

func TestPayloadSteadyStateAllocs(t *testing.T) {
	src := gameFrames(64, 16, 1)[0]
	buf := appendPayload(nil, src) // sized on first use
	if allocs := testing.AllocsPerRun(100, func() { buf = appendPayload(buf[:0], src) }); allocs != 0 {
		t.Errorf("appendPayload allocates %.1f objects per tile with a warm buffer", allocs)
	}
	back := make([]byte, len(src))
	if allocs := testing.AllocsPerRun(100, func() {
		if err := decodePayload(back, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decodePayload allocates %.1f objects per tile", allocs)
	}
}

// TestSpliceSteadyStateAllocs pins the splice paths: a key splice and a
// catch-up delta splice into a recycled buffer, through the cache and
// through the per-encoder memo.
func TestSpliceSteadyStateAllocs(t *testing.T) {
	const w, h = 64, 64
	frames := gameFrames(w, h, 6)
	for _, cached := range []bool{false, true} {
		opts := Options{StripeKeyframes: true}
		if cached {
			opts.Cache = NewTileCache(0)
		}
		enc := NewEncoder(w, h, opts)
		var bs, splice []byte
		var err error
		for _, f := range frames {
			if bs, err = enc.EncodeAppend(bs[:0], f); err != nil {
				t.Fatal(err)
			}
		}
		for _, parent := range []int64{0, enc.Frames() - 2} {
			for i := 0; i < 3; i++ { // size the buffer, pass the doorkeeper
				if splice, err = enc.AppendSplice(splice[:0], parent); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(50, func() {
				if splice, err = enc.AppendSplice(splice[:0], parent); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("cached=%v parent=%d: AppendSplice allocates %.1f objects", cached, parent, allocs)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Fuzzing and benchmarks
// ---------------------------------------------------------------------------

// FuzzTilePayload holds the payload coder to its contracts on arbitrary
// bytes: encode matches the reference coder and stays within the worst-case
// bound, decode(encode(x)) == x, and decoding x itself as a payload (for a
// fuzzer-chosen tile size) never panics, over-reads or writes past dst.
func FuzzTilePayload(f *testing.F) {
	for _, src := range payloadCorpus() {
		if len(src) <= 1100 {
			f.Add(src, uint16(len(src)))
			f.Add(appendPayload(nil, src), uint16(len(src)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, size uint16) {
		enc := appendPayload(nil, data)
		if !bytes.Equal(enc, refAppendPayload(data)) {
			t.Fatal("payload differs from the reference coder's")
		}
		if len(enc) > maxPayloadLen(len(data)) {
			t.Fatalf("%d payload bytes for %d source bytes", len(enc), len(data))
		}
		back := make([]byte, len(data))
		if err := decodePayload(back, enc); err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("round trip mismatch")
		}
		out := append(make([]byte, int(size)%5000), 0xEE)
		n := len(out) - 1
		err := decodePayload(out[:n:n], data[:len(data):len(data)])
		if out[n] != 0xEE {
			t.Fatal("decode wrote past dst")
		}
		if ref, refErr := refDecodePayload(data, n); err == nil {
			// The production decoder is the stricter of the two only in
			// what it rejects; what it accepts, the reference reads the same.
			if refErr != nil || !bytes.Equal(ref, out[:n]) {
				t.Fatalf("accepted payload decodes differently from the reference (ref err %v)", refErr)
			}
		}
	})
}

func gameDeltaTiles(shift uint) [][]byte {
	const w, h = 320, 180
	frames := gameFrames(w, h, 12)
	mask := byte(0xFF) << shift
	prev := make([]byte, w*h*4)
	maskInto(prev, frames[0], mask)
	var tiles [][]byte
	for _, f := range frames[1:] {
		d := make([]byte, w*h*4)
		maskSubInto(d, f, prev, mask)
		for ti := 0; ti < tileCount(h, DefaultTileRows); ti++ {
			s, e := tileRange(w, h, DefaultTileRows, ti)
			tiles = append(tiles, d[s:e])
		}
		maskInto(prev, f, mask)
	}
	return tiles
}

func BenchmarkPayloadEncodeGame(b *testing.B) {
	tiles := gameDeltaTiles(0)
	var buf []byte
	b.SetBytes(int64(len(tiles[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendPayload(buf[:0], tiles[i%len(tiles)])
	}
}

func BenchmarkPayloadDecodeGame(b *testing.B) {
	tiles := gameDeltaTiles(0)
	enc := make([][]byte, len(tiles))
	for i, t := range tiles {
		enc[i] = appendPayload(nil, t)
	}
	dst := make([]byte, len(tiles[0]))
	b.SetBytes(int64(len(tiles[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(tiles)
		if err := decodePayload(dst[:len(tiles[j])], enc[j]); err != nil {
			b.Fatal(err)
		}
	}
}
