package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// ---------------------------------------------------------------------------
// Reference coder: the payload format written and read one bit at a time,
// straight from the layout comment in payload.go. It shares only riceParams
// (plain scalar code) and the committed code lengths pairLens with the
// production coder: its predictors, statistics, table choice, canonical
// codes, bit strings and reconstruction are its own, and it writes the
// unary table as two unary codes, so byte equality between the two pins
// every word-wide kernel — the four-mode analysis, the clamped sums, the
// three bit packers, the escape scan, and on the way back the table lookups,
// the bit readers and both reconstruction passes.
// ---------------------------------------------------------------------------

type refBitWriter struct {
	b []byte
	n int // bits written into b
}

func (w *refBitWriter) bits(v uint, n uint) {
	for i := uint(0); i < n; i++ {
		if w.n%8 == 0 {
			w.b = append(w.b, 0)
		}
		w.b[len(w.b)-1] |= byte(v>>i&1) << (w.n % 8)
		w.n++
	}
}

func (w *refBitWriter) align() { w.n = (w.n + 7) &^ 7 }

// refAt reads src[p], or 0 before the tile start.
func refAt(src []byte, p int) byte {
	if p < 0 {
		return 0
	}
	return src[p]
}

// refResidual is the residual of src[p] under mode, planar written as
// a+b-c rather than as H of the V difference.
func refResidual(src []byte, p, rowBytes, mode int) byte {
	left, up, corner := refAt(src, p-4), refAt(src, p-rowBytes), refAt(src, p-rowBytes-4)
	switch mode {
	case 0:
		return src[p]
	case modeLeft:
		return src[p] - left
	case modeUp:
		return src[p] - up
	}
	return src[p] - (left + up - corner)
}

func refAppendPayload(src []byte, rowBytes int) []byte {
	var out []byte
	zero := func(b []byte) bool { return bytes.Count(b, []byte{0}) == len(b) }
	for i := 0; i < len(src); {
		end := min(i+blockBytes, len(src))
		if zero(src[i:end]) {
			run := uint64(1)
			for end < len(src) && zero(src[end:min(end+blockBytes, len(src))]) {
				run++
				end = min(end+blockBytes, len(src))
			}
			out = binary.AppendUvarint(append(out, blockZeros<<tagTypeShift), run)
			i = end
			continue
		}
		n := end - i
		var or byte // of every residual of every mode
		var sum [4][4]uint32
		for j := i; j < end; j++ {
			for m := 0; m < 4; m++ {
				r := refResidual(src, j, rowBytes, m)
				or |= r
				sum[m][j&3] += uint32(zigzag(r))
			}
		}
		s := uint(bits.TrailingZeros8(or))
		modes := 4
		if rowBytes < 8 {
			modes = 2
		}
		mode, best := 0, 0
		for m := 0; m < modes; m++ {
			var mag [4]uint32
			for c := range mag {
				mag[c] = sum[m][c] >> s
			}
			if _, est := riceParams(s, &mag, &mag, n); m == 0 || est < best {
				mode, best = m, est
			}
		}
		var mag, cmag [4]uint32
		v := make([]uint, n)
		for j := i; j < end; j++ {
			v[j-i] = uint(zigzag(refResidual(src, j, rowBytes, mode))) >> s
			cmag[j&3] += uint32(min(v[j-i], kClamp))
		}
		for c := range mag {
			mag[c] = sum[mode][c] >> s
		}
		ks, est := riceParams(s, &mag, &cmag, n)
		if est+8*riceOverhead <= 8*n {
			if blk := refRiceBlock(v, s, mode, ks); len(blk) <= n {
				out = append(out, blk...)
				i = end
				continue
			}
		}
		out = append(append(out, blockRaw<<tagTypeShift), src[i:end]...)
		i = end
	}
	return out
}

// refLen is the code length of tokens (a, b) in table t.
func refLen(t, a, b int) int {
	if t == unaryTable {
		return a + 1 + b + 1
	}
	return int(pairLens[t][a*pairTokens+b])
}

// refCodes holds the canonical codes of the fitted tables, most significant
// (first) bit first: the pairs sorted by length and then by index take
// consecutive values, shifted left where the length grows.
var refCodes = func() (codes [unaryTable][pairSyms]uint) {
	for t := range codes {
		order := make([]int, pairSyms)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool { return pairLens[t][order[x]] < pairLens[t][order[y]] })
		code, prevLen := uint(0), 0
		for n, i := range order {
			l := int(pairLens[t][i])
			if n > 0 {
				code = (code + 1) << (l - prevLen)
			}
			codes[t][i], prevLen = code, l
		}
	}
	return codes
}()

// refToken is the token of sample value x at parameter k.
func refToken(x, k uint) int { return int(min(x>>k, riceEscape)) }

// refPairs returns the tokens of channel c's pairs, the pad token 0 closing
// an odd channel.
func refPairs(v []uint, c int, k uint) (pairs [][2]int) {
	for j := c; j < len(v); j += 8 {
		p := [2]int{refToken(v[j], k), 0}
		if j+4 < len(v) {
			p[1] = refToken(v[j+4], k)
		}
		pairs = append(pairs, p)
	}
	return pairs
}

// refRiceBlock writes a rice block for the sample values v.
func refRiceBlock(v []uint, s uint, mode int, ks [4]uint8) []byte {
	width := 8 - s
	var nib [4]byte
	var tabs [4]int
	for c, k := range ks {
		switch {
		case k == kZero:
			nib[c] = kZero
		case uint(k) == width:
			nib[c] = nibVerbatim
		case k > 0:
			nib[c], tabs[c] = 7+k, unaryTable
		default: // the cheapest table, the first on a tie
			best := -1
			for t := 0; t < pairTables; t++ {
				bits := 0
				for _, p := range refPairs(v, c, 0) {
					bits += refLen(t, p[0], p[1])
				}
				if best < 0 || bits < best {
					best, tabs[c] = bits, t
				}
			}
			nib[c] = byte(tabs[c])
		}
	}
	w := &refBitWriter{}
	for c := 0; c < 4; c++ {
		if ks[c] == kZero {
			continue
		}
		for j := c; j < len(v); j += 4 {
			w.bits(v[j], uint(ks[c]))
		}
	}
	w.align()
	for c := 0; c < 4; c++ {
		if uint(ks[c]) >= width {
			continue
		}
		for _, p := range refPairs(v, c, uint(ks[c])) {
			if tabs[c] == unaryTable {
				for _, q := range p { // two unary codes
					w.bits(0, uint(q))
					w.bits(1, 1)
				}
				continue
			}
			code, l := refCodes[tabs[c]][p[0]*pairTokens+p[1]], refLen(tabs[c], p[0], p[1])
			for i := l - 1; i >= 0; i-- {
				w.bits(code>>i&1, 1)
			}
		}
	}
	w.align()
	for j := range v {
		if k := uint(ks[j&3]); k < width && v[j]>>k >= riceEscape {
			w.bits(v[j]>>k-riceEscape, width-k)
		}
	}
	w.align()
	tag := byte(blockRice<<tagTypeShift) | byte(mode)<<tagModeShift | byte(s)
	return append([]byte{tag, nib[0] | nib[1]<<4, nib[2] | nib[3]<<4}, w.b...)
}

var errRef = errors.New("reference decoder: malformed payload")

// refBitReader reads bits LSB-first from b, starting at byte pos.
type refBitReader struct {
	b   []byte
	pos int // byte of the next bit
	n   int // bits of b[pos] already read
}

func (r *refBitReader) bits(n uint) (uint, bool) {
	var v uint
	for i := uint(0); i < n; i++ {
		if r.pos >= len(r.b) {
			return 0, false
		}
		v |= uint(r.b[r.pos]>>r.n&1) << i
		if r.n++; r.n == 8 {
			r.pos, r.n = r.pos+1, 0
		}
	}
	return v, true
}

// align skips to the next byte boundary; the skipped bits must be zero.
func (r *refBitReader) align() bool {
	if r.n == 0 {
		return true
	}
	ok := r.b[r.pos]>>r.n == 0
	r.pos, r.n = r.pos+1, 0
	return ok
}

// refDecodePayload decodes a well-formed payload; anything else is errRef.
func refDecodePayload(payload []byte, size, rowBytes int) ([]byte, error) {
	dst := make([]byte, size)
	pos := 0
	for i := 0; i < size; {
		if pos >= len(payload) {
			return nil, errRef
		}
		tag := payload[pos]
		pos++
		end := min(i+blockBytes, size)
		switch {
		case tag == blockZeros<<tagTypeShift:
			run, used := binary.Uvarint(payload[pos:])
			if used <= 0 || run == 0 || run > uint64((size-i+blockBytes-1)/blockBytes) {
				return nil, errRef
			}
			pos += used
			i = min(i+int(run)*blockBytes, size)
			continue
		case tag == blockRaw<<tagTypeShift:
			if len(payload)-pos < end-i {
				return nil, errRef
			}
			pos += copy(dst[i:end], payload[pos:])
			i = end
			continue
		case tag>>tagTypeShift != blockRice, len(payload)-pos < 2:
			return nil, errRef
		}
		s, mode := uint(tag&7), int(tag>>tagModeShift&3)
		width := 8 - s
		if mode&modeUp != 0 && rowBytes < 8 {
			return nil, errRef
		}
		nib := [4]uint{uint(payload[pos] & 15), uint(payload[pos] >> 4), uint(payload[pos+1] & 15), uint(payload[pos+1] >> 4)}
		var ks [4]uint
		var tabs [4]int
		for c, p := range nib {
			switch {
			case p == kZero:
				ks[c] = kZero
			case p == nibVerbatim:
				ks[c] = width
			case p < pairTables:
				tabs[c] = int(p)
			case p-7 >= width-1:
				return nil, errRef
			default:
				ks[c], tabs[c] = p-7, unaryTable
			}
		}
		r := &refBitReader{b: payload, pos: pos + 2}
		n := end - i
		v := make([]uint, n)
		for c := 0; c < 4; c++ {
			if ks[c] == kZero {
				continue
			}
			for j := c; j < n; j += 4 {
				b, ok := r.bits(ks[c])
				if !ok {
					return nil, errRef
				}
				v[j] = b
			}
		}
		if !r.align() {
			return nil, errRef
		}
		q := make([]uint, n+4) // the pads land past n
		for c := 0; c < 4; c++ {
			if ks[c] >= width {
				continue
			}
			for j := c; j < n; j += 8 {
				for _, x := range []int{j, j + 4} {
					if tabs[c] != unaryTable {
						continue
					}
					for { // a unary code
						b, ok := r.bits(1)
						if !ok || q[x] > riceEscape {
							return nil, errRef
						}
						if b == 1 {
							break
						}
						q[x]++
					}
				}
				if tabs[c] != unaryTable {
					code, l, found := uint(0), 0, false
					for !found {
						b, ok := r.bits(1)
						if !ok || l == maxPairLen {
							return nil, errRef
						}
						code, l = code<<1|b, l+1
						for a := 0; a < pairTokens && !found; a++ {
							for bb := 0; bb < pairTokens; bb++ {
								if refLen(tabs[c], a, bb) == l && refCodes[tabs[c]][a*pairTokens+bb] == code {
									q[j], q[j+4], found = uint(a), uint(bb), true
									break
								}
							}
						}
					}
				}
				if j+4 >= n && q[j+4] != 0 {
					return nil, errRef // a pad token must be 0
				}
			}
		}
		if !r.align() {
			return nil, errRef
		}
		for j := 0; j < n; j++ {
			k := ks[j&3]
			if k >= width {
				continue
			}
			if q[j] == riceEscape {
				e, ok := r.bits(width - k)
				if !ok {
					return nil, errRef
				}
				q[j] += e
			}
			if v[j] |= q[j] << k; v[j] > 0xFF>>s {
				return nil, errRef
			}
		}
		if !r.align() {
			return nil, errRef
		}
		pos = r.pos
		for j := i; j < end; j++ {
			left, up, corner := refAt(dst, j-4), refAt(dst, j-rowBytes), refAt(dst, j-rowBytes-4)
			var pred byte
			switch mode {
			case modeLeft:
				pred = left
			case modeUp:
				pred = up
			case modeLeft | modeUp:
				pred = left + up - corner
			}
			dst[j] = unzigzag(byte(v[j-i]))<<s + pred
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

// corpusEntry is a byte string and the row width it is coded at.
type corpusEntry struct {
	src      []byte
	rowBytes int
}

// payloadCorpus is the byte strings the coder-level tests run over, each at
// several row widths: every block type, every prediction mode, every
// shift, escapes, short and odd lengths.
func payloadCorpus() []corpusEntry {
	rng := rand.New(rand.NewSource(7))
	var corpus []corpusEntry
	add := func(b []byte) {
		for _, rb := range []int{4, 8, 12, 256, 1028} {
			corpus = append(corpus, corpusEntry{b, rb})
		}
	}
	add(nil)
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 255, 256, 257, 1023, 1024, 1025, 1028, 2000, 4096 + 4} {
		add(make([]byte, n))      // zero runs
		add(randBuf(rng, n))      // raw blocks
		smooth := make([]byte, n) // left prediction wins
		ramp := make([]byte, n)   // absolute wins over nothing: constant pixels
		sparse := make([]byte, n) // zero blocks inside content
		for i := range smooth {
			smooth[i] = byte(100 + 30*math.Sin(float64(i/4)*0.05) + float64(i&3)*20)
			ramp[i] = byte(i&3) * 60
			if i%2100 < 40 {
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
		for i := 0; i < n; i += 97 { // sharp edges in smooth content: escapes
			outlier[i] = byte(rng.Intn(256))
		}
		add(outlier)
		// A block whose own bytes share a larger power of two than the
		// bytes its predictors read before it: the shift must not come
		// from the block alone.
		steps := make([]byte, n)
		for i := range steps {
			steps[i] = byte(i*37) & 0xC0
			if i >= blockBytes {
				steps[i] = 0x80
			}
		}
		add(steps)
	}
	for _, f := range gameFrames(64, 36, 3) {
		corpus = append(corpus, corpusEntry{f, 256}, corpusEntry{f, 128})
	}
	return corpus
}

// contentTiles cuts each frame of every content class into tiles at every
// QuantShift, both as absolute content and as the temporal delta against
// the previous frame — what a key or stripe tile and a delta tile hand the
// coder — over awkward geometries: 1×1, odd widths, a short last tile.
func contentTiles(yield func(kind string, w int, shift uint, tile []byte)) {
	geoms := []struct{ w, h, rows int }{{1, 1, 16}, {33, 19, 16}, {7, 40, 16}, {20, 23, 5}, {64, 40, 16}}
	for _, kind := range []string{"static", "scrolling", "mixed", "noise", "game"} {
		for _, g := range geoms {
			frames := contentFrames(kind, g.w, g.h, 3)
			for shift := uint(0); shift < 8; shift++ {
				mask := byte(0xFF) << shift
				prev := make([]byte, g.w*g.h*4)
				delta := make([]byte, len(prev))
				for _, f := range frames {
					maskSubInto(delta, f, prev, mask)
					maskInto(prev, f, mask)
					for ti := 0; ti < tileCount(g.h, g.rows); ti++ {
						s, e := tileRange(g.w, g.h, g.rows, ti)
						yield(kind, g.w, shift, prev[s:e])
						yield(kind, g.w, shift, delta[s:e])
					}
				}
			}
		}
	}
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
			if got, want := nonZeroLanes(x)>>(8*lane)&0xFF, uint64(0); b != 0 && got != 0x80 || b == 0 && got != want {
				t.Fatalf("nonZeroLanes lane %d of %#x = %#x", lane, x, got)
			}
		}
	}
}

// refPairSym is the pair a<<4|b of the tokens of magnitudes a and b at
// shift sk, a byte at a time.
func refPairSym(a, b byte, sk uint) byte {
	return min(a>>sk, riceEscape)<<4 | min(b>>sk, riceEscape)
}

// TestPairSymbolsMatchesByteLoop pins the word-wide token pass and the
// channel slices against a byte loop, at every shift and block length,
// the pads of odd channels included.
func TestPairSymbolsMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var zz [blockBytes]byte
	var syms [blockBytes / 2]byte
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(blockBytes)
		if iter < 16 {
			n = iter + 1
		}
		for j := range zz {
			zz[j] = 0 // the coder's arrays are zero past n
			if j < n {
				zz[j] = byte(rng.Intn(256)) >> rng.Intn(8)
			}
		}
		for sk := uint(0); sk < 8; sk++ {
			pairSymbols(&syms, &zz, n, sk)
			for c := 0; c < 4; c++ {
				ch := channelPairs(&syms, c, n)
				p := 0
				for j := c; j < n; j += 8 {
					if got, want := ch[4*p], refPairSym(zz[j], zz[j+4], sk); got != want {
						t.Fatalf("n=%d shift %d channel %d pair %d: %#x, want %#x", n, sk, c, p, got, want)
					}
					p++
				}
				if len(ch) != max(4*p-3, 0) {
					t.Fatalf("n=%d channel %d: %d bytes for %d pairs", n, c, len(ch), p)
				}
			}
		}
	}
}

// TestVerticalKernelsMatchByteLoop pins the V stages against byte loops:
// upWord at every offset around the tile's first row, and leftCarry (the H
// carry into a block, of the source and of its V difference).
func TestVerticalKernelsMatchByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := randBuf(rng, 3*blockBytes)
	for _, rb := range []int{4, 8, 12, 20, 64, 1028, 4000} {
		for p := 0; p+8 <= len(src); p += 4 {
			var want uint64
			for l := 0; l < 8; l++ {
				want |= uint64(refAt(src, p+l-rb)) << (8 * l)
			}
			if got := upWord(src, p, rb); got != want {
				t.Fatalf("upWord(p=%d, rowBytes=%d) = %#x, want %#x", p, rb, got, want)
			}
		}
		for p := 0; p < len(src); p += blockBytes {
			var wantX, wantD uint64
			for l := 0; l < 4; l++ {
				x := refAt(src, p-4+l)
				wantX |= uint64(x) << (8 * l)
				wantD |= uint64(x-refAt(src, p-4+l-rb)) << (8 * l)
			}
			if got := leftCarry(src, p, rb, false); got != wantX {
				t.Fatalf("leftCarry(p=%d) = %#x, want %#x", p, got, wantX)
			}
			if got := leftCarry(src, p, rb, true); got != wantD {
				t.Fatalf("leftCarry(p=%d, rowBytes=%d, up) = %#x, want %#x", p, rb, got, wantD)
			}
		}
	}
}

// TestBlockStatsMatchesByteLoop pins the four-mode analysis — residuals,
// zig-zag, the per-mode arrays with their zero tail, OR and sums — and the
// clamped sums against byte loops.
func TestBlockStatsMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var zz [4][blockBytes]byte
	for iter := 0; iter < 600; iter++ {
		src := randBuf(rng, rng.Intn(3*blockBytes)/4*4+rng.Intn(2)*rng.Intn(4))
		if iter%3 == 0 { // saturate the 16-bit lane accumulators
			for i := range src {
				src[i] = 0x80
			}
		}
		rb := 4 * (1 + rng.Intn(300))
		for i := 0; i < len(src); i += blockBytes {
			end := min(i+blockBytes, len(src))
			for m := range zz {
				for j := range zz[m] {
					zz[m][j] = 0xEE // stale bytes from an earlier block
				}
			}
			or, sum := blockStats(&zz, src, i, end, rb)
			var wantOr byte
			var wantSum [4][4]uint32
			for j := i; j < end; j++ {
				for m := 0; m < 4; m++ {
					wantOr |= refResidual(src, j, rb, m)
					z := zigzag(refResidual(src, j, rb, m))
					wantSum[m][j&3] += uint32(z)
					if zz[m][j-i] != z {
						t.Fatalf("zz[%d][%d] = %d, want %d (rowBytes %d)", m, j-i, zz[m][j-i], z, rb)
					}
				}
			}
			for m := range zz {
				for j := end - i; j < (end-i+7)&^7; j++ {
					if zz[m][j] != 0 {
						t.Fatalf("zz[%d][%d] past the block = %d, want 0", m, j, zz[m][j])
					}
				}
			}
			// The production OR may differ in bits above the lowest; the
			// shift it gives may not.
			if bits.TrailingZeros8(or) != bits.TrailingZeros8(wantOr) || sum != wantSum {
				t.Fatalf("blockStats(len %d, %d:%d, rowBytes %d) = %#x %v, want %#x %v", len(src), i, end, rb, or, sum, wantOr, wantSum)
			}
			for m := range zz {
				for s := uint(0); s < 8; s++ {
					var want [4]uint32
					for j := 0; j < end-i; j++ {
						want[j&3] += uint32(min(zz[m][j]>>s, kClamp))
					}
					if got := clampedSums(&zz[m], end-i, s); got != want {
						t.Fatalf("clampedSums(mode %d, s %d) = %v, want %v", m, s, got, want)
					}
				}
			}
		}
	}
}

// TestUnpredictMatchesByteLoop pins the decoder's reconstruction — both
// passes, every mode and shift, blocks in and below the tile's first row —
// against a byte loop: the values a source's residuals zig-zag to must
// rebuild the source.
func TestUnpredictMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 300; iter++ {
		s := uint(rng.Intn(8))
		src := randBuf(rng, 1+rng.Intn(3*blockBytes))
		maskInto(src, src, 0xFF<<s)
		rb := 4 * (2 + rng.Intn(300))
		dst := make([]byte, len(src))
		for i := 0; i < len(src); i += blockBytes {
			end := min(i+blockBytes, len(src))
			mode := rng.Intn(4)
			var rem, quo [blockBytes]byte
			for j := i; j < end; j++ {
				v := zigzag(refResidual(src, j, rb, mode)) >> s
				rem[j-i], quo[j-i] = v&0x0F, v&0xF0 // any split of v
			}
			unpredictBlock(dst, i, end, rb, byte(mode)<<tagModeShift|byte(s), &rem, &quo)
			if !bytes.Equal(dst[i:end], src[i:end]) {
				t.Fatalf("mode %d shift %d rowBytes %d block %d: reconstruction differs", mode, s, rb, i/blockBytes)
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

// TestRiceKMatchesFloatRule pins the division-free parameter rule to its
// definition: floor(log2(mean+1)), or one less when that estimates fewer
// bits.
func TestRiceKMatchesFloatRule(t *testing.T) {
	for nc := 1; nc <= 256; nc += 17 {
		for m := 0; m <= 255*nc; m += 1 + m/50 {
			k := int(math.Floor(math.Log2(float64(m)/float64(nc) + 1)))
			if nc<<k > m+nc { // float rounding at an exact power of two
				k--
			}
			if k > 0 && nc*k+m>>(k-1) < nc*(k+1)+m>>k {
				k--
			}
			if got := riceK(m, nc); int(got) != k {
				t.Fatalf("riceK(%d, %d) = %d, want %d", m, nc, got, k)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Coder
// ---------------------------------------------------------------------------

func checkAgainstReference(t *testing.T, what string, src []byte, rowBytes int) []byte {
	t.Helper()
	got := appendPayload(nil, src, rowBytes)
	if want := refAppendPayload(src, rowBytes); !bytes.Equal(got, want) {
		t.Fatalf("%s (len %d, rowBytes %d): payload differs from the reference coder's (%d vs %d bytes)", what, len(src), rowBytes, len(got), len(want))
	}
	if len(got) > maxPayloadLen(len(src)) {
		t.Fatalf("%s: %d payload bytes for %d source bytes, bound %d", what, len(got), len(src), maxPayloadLen(len(src)))
	}
	back := make([]byte, len(src))
	if err := decodePayload(back, got, rowBytes); err != nil {
		t.Fatalf("%s (len %d, rowBytes %d): decode: %v", what, len(src), rowBytes, err)
	}
	ref, err := refDecodePayload(got, len(src), rowBytes)
	if err != nil {
		t.Fatalf("%s: reference decode: %v", what, err)
	}
	if !bytes.Equal(back, src) || !bytes.Equal(ref, src) {
		t.Fatalf("%s (len %d, rowBytes %d): round trip differs", what, len(src), rowBytes)
	}
	return got
}

func TestPayloadMatchesReferenceCoder(t *testing.T) {
	for n, e := range payloadCorpus() {
		got := checkAgainstReference(t, "corpus entry", e.src, e.rowBytes)
		// Appending must leave what is already in dst alone.
		pre := []byte("prefix")
		if out := appendPayload(pre[:len(pre):len(pre)], e.src, e.rowBytes); !bytes.Equal(out[:len(pre)], pre) || !bytes.Equal(out[len(pre):], got) {
			t.Fatalf("corpus %d: appending after a prefix changed the bytes", n)
		}
	}
}

// TestPayloadMatchesReferenceOnTiles pins the coder byte for byte on the
// tiles the encoder really hands it: every content class, every
// QuantShift, absolute and delta, odd and degenerate geometries.
func TestPayloadMatchesReferenceOnTiles(t *testing.T) {
	var modes [4]int
	contentTiles(func(kind string, w int, shift uint, tile []byte) {
		p := checkAgainstReference(t, kind, tile, 4*w)
		if len(p) > 0 && p[0]>>tagTypeShift == blockRice {
			modes[p[0]>>tagModeShift&3]++
		}
	})
	for m, c := range modes {
		if c == 0 {
			t.Errorf("no tile's first block chose prediction mode %d", m)
		}
	}
}

// TestPayloadEscapes checks the limited unary code where it matters: a
// flat tile with sharp outliers codes them as escapes — an unlimited code
// would spend more than the raw bytes on them — and they round-trip.
func TestPayloadEscapes(t *testing.T) {
	src := make([]byte, 4*blockBytes)
	for i := range src {
		src[i] = byte(i & 3)
	}
	for i := 0; i < len(src); i += 52 {
		src[i] ^= 0x80 // a residual of magnitude 255: a quotient of 255 at k=0
	}
	if got := checkAgainstReference(t, "outliers", src, 256); len(got) > len(src)/3 {
		t.Fatalf("%d outliers in a flat tile cost %d bytes, want <= %d", len(src)/52, len(got), len(src)/3)
	}
}

// TestPayloadNeverWorseThanRaw feeds blocks whose estimate says rice while
// their escapes make it lose (mostly zeros, the rest uniform noise): such
// a block must be rewound and go out raw, and no block may cost more than
// raw plus its tag.
func TestPayloadNeverWorseThanRaw(t *testing.T) {
	const rowBytes = 4 * 64
	rng := rand.New(rand.NewSource(5))
	src := make([]byte, 8*blockBytes)
	for i := range src {
		if rng.Intn(5) < 2 {
			src[i] = byte(rng.Intn(256))
		}
	}
	got := checkAgainstReference(t, "escape-heavy", src, rowBytes)
	raws := 0
	for i := 0; i < len(src); i += blockBytes {
		// Blocks code independently of the bytes after them, so a prefix
		// of the source codes to a prefix of the payload.
		start := len(appendPayload(nil, src[:i], rowBytes))
		size := len(appendPayload(nil, src[:i+blockBytes], rowBytes)) - start
		if size > blockBytes+1 {
			t.Fatalf("block %d costs %d bytes, raw costs %d", i/blockBytes, size, blockBytes+1)
		}
		if got[start] == blockRaw<<tagTypeShift {
			raws++
		}
	}
	if raws == 0 {
		t.Fatal("no block fell back to raw")
	}
}

// TestPayloadCleanRegionIsCheap holds the zero-block run to the cost of a
// zero-run token: one tag and one varint, whatever the length.
func TestPayloadCleanRegionIsCheap(t *testing.T) {
	for _, n := range []int{256, 20480, 122880, 1 << 22} {
		token := 1 + len(binary.AppendUvarint(nil, uint64(n))) // tag, uvarint
		if got := len(appendPayload(nil, make([]byte, n), 1280)); got > token {
			t.Errorf("%d zero bytes code to %d bytes, zero-run token %d", n, got, token)
		}
	}
	// A constant-colour tile: absolute content that prediction flattens to
	// one non-zero pixel and then a parameters-only block per block.
	flat := bytes.Repeat([]byte{10, 200, 30, 255}, 5120)
	if got, limit := len(appendPayload(nil, flat, 1280)), blockBytes/8+4*len(flat)/blockBytes+16; got > limit {
		t.Errorf("flat tile of %d bytes codes to %d, want <= %d", len(flat), got, limit)
	}
}

// TestGameContentCompresses bounds game content about 5 % above what the
// pair-table coder measures (0.150x raw lossless, 0.118x at QuantShift 2).
func TestGameContentCompresses(t *testing.T) {
	const w, h = 320, 180
	for _, c := range []struct {
		shift uint
		ratio float64
	}{{0, 0.158}, {2, 0.124}} {
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
			t.Errorf("QuantShift %d: %.0f bytes/frame, want <= %.0f (%.3fx raw)", c.shift, perFrame, limit, c.ratio)
		}
	}
}

// TestBitstreamGolden pins the bitstream byte for byte: the SHA-256 of
// what a hub-configured encoder (striped keys, a tile cache) emits for 30
// game frames, then one frame of every other content class. The digest
// must read the same on every GOARCH, 32-bit ones included: the coder, its
// tables and the word-wide kernels may not depend on the host. A change to
// any of them changes the digest and needs a new version byte.
func TestBitstreamGolden(t *testing.T) {
	const want = "510d5d43d520a782353182a0dc487a86195ff67cf924b35c37d77833d8ac6e03"
	sum := sha256.New()
	enc := NewEncoder(160, 90, Options{StripeKeyframes: true, Cache: NewTileCache(0)})
	for _, f := range gameFrames(160, 90, 30) {
		bs, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		sum.Write(bs)
	}
	for _, kind := range []string{"static", "scrolling", "mixed", "noise"} {
		bs, err := NewEncoder(64, 40, Options{}).Encode(contentFrames(kind, 64, 40, 1)[0])
		if err != nil {
			t.Fatal(err)
		}
		sum.Write(bs)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Errorf("bitstream digest %s, want %s", got, want)
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
// relies on: encoders of different width and QuantShift share one cache,
// and each still decodes to exactly its own quantized frames — a payload
// depends on the coded bytes and the row width, never on who coded them.
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

	// The same tile bytes at two row widths: a 64×8 tile and a 32×16 tile
	// of one game image. Through one cache they must get distinct payloads
	// — V predicts from a different byte — and each must decode pixel-exact
	// in its own geometry, on hits as on misses.
	tile := gameFrames(64, 8, 1)[0]
	// KeyInterval 1: every frame after the first intra-refreshes the tile
	// through the cache.
	for _, g := range []struct{ w, h int }{{64, 8}, {32, 16}} {
		enc := NewEncoder(g.w, g.h, Options{StripeKeyframes: true, KeyInterval: 1, Cache: cache})
		dec := NewDecoder()
		for round := 0; round < 4; round++ { // key, sighting, admission, hit
			bs, err := enc.Encode(tile)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Decode(bs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tile) {
				t.Fatalf("%dx%d round %d: the tile decodes to other pixels", g.w, g.h, round)
			}
		}
	}
	wideP, _, okW := cache.Lookup(tile, 64*4)
	tallP, _, okT := cache.Lookup(tile, 32*4)
	if !okW || !okT {
		t.Fatal("the two row widths of one tile are not both cached")
	}
	if bytes.Equal(wideP, tallP) {
		t.Fatal("one tile at two row widths got one payload")
	}
	if !bytes.Equal(wideP, appendPayload(nil, tile, 64*4)) || !bytes.Equal(tallP, appendPayload(nil, tile, 32*4)) {
		t.Fatal("a cached payload differs from a fresh coding of its row width")
	}
}

// ---------------------------------------------------------------------------
// Hostile payloads
// ---------------------------------------------------------------------------

// riceBlock hand-assembles one rice block: tag, parameter nibbles, the
// three strings.
func riceBlock(tag byte, ks [4]byte, rem, pairs, esc []byte) []byte {
	b := append([]byte{tag, ks[0] | ks[1]<<4, ks[2] | ks[3]<<4}, rem...)
	return append(append(b, pairs...), esc...)
}

// pairString hand-assembles a pair string: the codes of the given token
// pairs in table tab, from the reference coder's codes, zero-padded.
func pairString(tab int, pairs ...[2]int) []byte {
	w := &refBitWriter{}
	for _, p := range pairs {
		if tab == unaryTable {
			w.bits(1<<p[0], uint(p[0]+1))
			w.bits(1<<p[1], uint(p[1]+1))
			continue
		}
		code, l := refCodes[tab][p[0]*pairTokens+p[1]], refLen(tab, p[0], p[1])
		for i := l - 1; i >= 0; i-- {
			w.bits(code>>i&1, 1)
		}
	}
	return w.b
}

func TestDecodePayloadHostile(t *testing.T) {
	const zeros, raw = blockZeros << tagTypeShift, blockRaw << tagTypeShift
	allZeroKs := [4]byte{kZero, kZero, kZero, kZero}
	k0 := [4]byte{unaryTable, kZero, kZero, kZero}        // channel 0 k=0, unary table: pair string only
	k1 := [4]byte{nibRice + 1, kZero, kZero, kZero}       // channel 0 k=1
	k6 := [4]byte{nibRice + 6, kZero, kZero, kZero}       // channel 0 k=6
	verbatim := [4]byte{nibVerbatim, kZero, kZero, kZero} // channel 0 verbatim
	ones := func(n int) []byte { return bytes.Repeat([]byte{0xFF}, n) }
	// An escape on a one-pixel tile: eight zeros and a one, then the pad
	// token 0, a one.
	escape := []byte{0x00, 0x03}
	type hostile struct {
		name     string
		size     int
		rowBytes int
		payload  []byte
		want     error
	}
	cases := []hostile{
		{"empty payload", 4, 4, nil, ErrTruncated},
		{"tag bit 7 set", 4, 4, []byte{0x80, 0, 0}, ErrCorrupt},
		{"unknown block type", 4, 4, []byte{0x60, 1}, ErrCorrupt},
		{"zeros tag with shift", 4, 4, []byte{zeros | 1, 1}, ErrCorrupt},
		{"zeros tag with V", 4, 8, []byte{zeros | tagUp, 1}, ErrCorrupt},
		{"raw tag with H", 4, 4, []byte{raw | tagLeft, 1, 2, 3, 4}, ErrCorrupt},
		{"V on a one-pixel-wide tile", 8, 4, riceBlock(tagUp, allZeroKs, nil, nil, nil), ErrCorrupt},
		{"planar on a one-pixel-wide tile", 8, 4, riceBlock(tagUp|tagLeft, allZeroKs, nil, nil, nil), ErrCorrupt},

		{"zero run without count", 4, 4, []byte{zeros}, ErrTruncated},
		{"zero run of zero blocks", 4, 4, []byte{zeros, 0}, ErrCorrupt},
		{"zero run past the tile", 1100, 4, []byte{zeros, 3}, ErrCorrupt},
		{"zero run of 2^64-1 blocks", 1100, 4, append([]byte{zeros}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), ErrCorrupt},
		{"zero run count overflows", 1100, 4, append([]byte{zeros}, bytes.Repeat([]byte{0x80}, 11)...), ErrCorrupt},
		{"zero run count cut short", 1100, 4, []byte{zeros, 0x80}, ErrTruncated},

		{"raw block cut short", 8, 4, []byte{raw, 1, 2, 3}, ErrTruncated},
		{"output short by one block", blockBytes + 1, 4, []byte{zeros, 1}, ErrTruncated},
		{"output short by one byte", blockBytes + 1, 4, append([]byte{zeros, 1}, raw), ErrTruncated},
		{"output long by one byte", 4, 4, []byte{zeros, 1, 0}, ErrCorrupt},
		{"second block after the tile", 4, 4, []byte{zeros, 1, zeros, 1}, ErrCorrupt},

		{"rice parameters cut short", 4, 4, []byte{0x00, 0xFF}, ErrTruncated},
		{"parameter 7-s at shift 5", 4, 4, riceBlock(0x05, [4]byte{nibRice + 2, kZero, kZero, kZero}, []byte{0x00}, pairString(unaryTable, [2]int{0, 0}), nil), ErrCorrupt},
		{"parameter 7-s at shift 1", 4, 4, riceBlock(0x01, [4]byte{nibRice + 6, kZero, kZero, kZero}, []byte{0x00}, pairString(unaryTable, [2]int{0, 0}), nil), ErrCorrupt},
		{"all-zero block then junk", 4, 4, append(riceBlock(0x00, allZeroKs, nil, nil, nil), 0), ErrCorrupt},

		{"pair string missing", blockBytes, 4, riceBlock(0x00, k0, nil, nil, nil), ErrTruncated},
		{"fitted-table pair string missing", blockBytes, 4, riceBlock(0x00, [4]byte{0, kZero, kZero, kZero}, nil, nil, nil), ErrTruncated},
		{"pair codes run past the payload", blockBytes, 4, riceBlock(0x00, k0, nil, ones(7), nil), ErrTruncated},
		{"unary zeros to the end", blockBytes, 4, riceBlock(0x00, k0, nil, make([]byte, 31), nil), ErrCorrupt},
		{"no code in the unary table: nine zeros", 4, 4, riceBlock(0x00, k0, nil, []byte{0x00, 0x02, 0x00}, []byte{0}), ErrCorrupt},
		{"non-zero pad token", 4, 4, riceBlock(0x00, k0, nil, pairString(unaryTable, [2]int{0, 1}), nil), ErrCorrupt},
		{"non-zero pad token, fitted table", 4, 4, riceBlock(0x00, [4]byte{3, kZero, kZero, kZero}, nil, pairString(3, [2]int{0, 1}), nil), ErrCorrupt},
		{"escape as the pad token", 4, 4, riceBlock(0x00, k0, nil, pairString(unaryTable, [2]int{0, riceEscape}), []byte{0}), ErrCorrupt},
		{"quotient too big for the parameter", 4, 4, riceBlock(0x00, k6, []byte{0x3F}, pairString(unaryTable, [2]int{4, 0}), nil), ErrCorrupt},
		{"quotient too big for the shift", 4, 4, riceBlock(0x07, k0, nil, pairString(unaryTable, [2]int{2, 0}), nil), ErrCorrupt},
		{"fitted-table token too big for the shift", 4, 4, riceBlock(0x05, [4]byte{2, kZero, kZero, kZero}, nil, pairString(2, [2]int{riceEscape, 0}), []byte{0}), ErrCorrupt},
		{"remainder string cut short", blockBytes, 4, riceBlock(0x00, k1, ones(7), nil, nil), ErrTruncated},
		{"remainder padding bits set", 12, 4, riceBlock(0x00, k1, []byte{0xFF}, []byte{0x0F}, nil), ErrCorrupt},
		{"pair padding bits set", 12, 4, riceBlock(0x00, k1, []byte{0x07}, []byte{0x1F}, nil), ErrCorrupt},
		{"trailing byte after the strings", 12, 4, riceBlock(0x00, k1, []byte{0x07}, []byte{0x0F, 0x00}, nil), ErrCorrupt},
		{"verbatim padding bits set", 4, 4, riceBlock(0x04, verbatim, []byte{0x1F}, nil, nil), ErrCorrupt},

		{"escape string missing", 4, 4, riceBlock(0x00, k0, nil, escape, nil), ErrTruncated},
		{"escape string cut short", 4, 4, riceBlock(0x00, [4]byte{unaryTable, unaryTable, kZero, kZero}, nil, []byte{0x00, 0x03, 0x0C}, []byte{0x00}), ErrTruncated},
		{"escape string over-long", 4, 4, riceBlock(0x00, k0, nil, escape, []byte{0x00, 0x00}), ErrCorrupt},
		{"escape padding bits set", 4, 4, riceBlock(0x00, k1, []byte{0x01}, escape, []byte{0x80}), ErrCorrupt},
		{"escape value wider than 8 bits", 4, 4, riceBlock(0x00, k0, nil, escape, []byte{0xF8}), ErrCorrupt},
		{"escape value wider than 8-s bits", 4, 4, riceBlock(0x04, k0, nil, escape, []byte{0x08}), ErrCorrupt},
		{"escape where no sample escapes", 4, 4, riceBlock(0x04, k1, []byte{0x00}, escape, []byte{0x00}), ErrCorrupt},
	}
	// Each corrupt case above is one change away from one of these, which
	// decode, and a V or planar block in a tile's first row reads zeros
	// above it: it decodes to what the same body means without V.
	controls := []struct {
		name           string
		size, rowBytes int
		payload        []byte
		want           []byte
	}{
		{"parameter 6-s at shift 1", 4, 4, riceBlock(0x01, [4]byte{nibRice + 5, kZero, kZero, kZero}, []byte{0x00}, pairString(unaryTable, [2]int{0, 0}), nil), []byte{0, 0, 0, 0}},
		{"pad token 0", 4, 4, riceBlock(0x00, k0, nil, pairString(unaryTable, [2]int{1, 0}), nil), []byte{0xFF, 0, 0, 0}},
		{"pad token 0, fitted table", 4, 4, riceBlock(0x00, [4]byte{3, kZero, kZero, kZero}, nil, pairString(3, [2]int{1, 0}), nil), []byte{0xFF, 0, 0, 0}},
		{"quotient of exactly riceEscape", 4, 4, riceBlock(0x00, k0, nil, escape, []byte{0x00}), []byte{4, 0, 0, 0}},
		{"widest escape value", 4, 4, riceBlock(0x00, k0, nil, escape, []byte{0xF7}), []byte{0x80, 0, 0, 0}},
		{"widest escape value at shift 4", 4, 4, riceBlock(0x04, k0, nil, escape, []byte{0x07}), []byte{0x80, 0, 0, 0}},
		{"escape with a remainder", 4, 4, riceBlock(0x00, k1, []byte{0x01}, escape, []byte{0x00}), []byte{0xF7, 0, 0, 0}},
		{"two escapes in sample order", 4, 4, riceBlock(0x00, [4]byte{unaryTable, unaryTable, kZero, kZero}, nil, []byte{0x00, 0x03, 0x0C}, []byte{0x01, 0x02}), []byte{0xFB, 5, 0, 0}},
		{"quotient at the shift's limit", 4, 4, riceBlock(0x07, k0, nil, pairString(unaryTable, [2]int{1, 0}), nil), []byte{0x80, 0, 0, 0}},
		{"fitted-table token at the shift's limit", 4, 4, riceBlock(0x05, [4]byte{2, kZero, kZero, kZero}, nil, pairString(2, [2]int{7, 0}), nil), []byte{0x80, 0, 0, 0}},
		{"largest quotient for the parameter", 4, 4, riceBlock(0x00, k6, []byte{0x3F}, pairString(unaryTable, [2]int{3, 0}), nil), []byte{0x80, 0, 0, 0}},
		{"one-pixel pair codes", 12, 4, riceBlock(0x00, k1, []byte{0x07}, []byte{0x0F}, nil), []byte{0xFF, 0, 0, 0, 0xFF, 0, 0, 0, 0xFF, 0, 0, 0}},
		{"verbatim sample", 4, 4, riceBlock(0x04, verbatim, []byte{0x0F}, nil, nil), []byte{0x80, 0, 0, 0}},
		{"V in the first row", 8, 8, riceBlock(tagUp, k0, nil, []byte{0x24}, nil), []byte{1, 0, 0, 0, 1, 0, 0, 0}},
		{"planar in the first row", 8, 8, riceBlock(tagUp|tagLeft, k0, nil, []byte{0x24}, nil), []byte{1, 0, 0, 0, 2, 0, 0, 0}},
		{"V across the first row", 16, 8, riceBlock(tagUp, k0, nil, []byte{0x24, 0x09}, nil), []byte{1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0}},
	}
	for _, c := range controls {
		got := make([]byte, c.size)
		if err := decodePayload(got, c.payload, c.rowBytes); err != nil {
			t.Errorf("control %q (%x) rejected: %v", c.name, c.payload, err)
			continue
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("control %q decodes to %v, want %v", c.name, got, c.want)
		}
		if ref, err := refDecodePayload(c.payload, c.size, c.rowBytes); err != nil || !bytes.Equal(ref, c.want) {
			t.Errorf("control %q: reference decodes to %v, %v", c.name, ref, err)
		}
	}
	for _, c := range cases {
		// The payload sits in the middle of a larger buffer of set bits: a
		// decoder that over-reads sees ones where it expects padding, and
		// one that over-writes trips the canary after dst.
		buf := append(append(ones(16), c.payload...), ones(16)...)
		payload := buf[16 : 16+len(c.payload) : 16+len(c.payload)]
		out := append(make([]byte, c.size), 0xEE)
		err := decodePayload(out[:c.size:c.size], payload, c.rowBytes)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if out[c.size] != 0xEE {
			t.Errorf("%s: wrote past dst", c.name)
		}
		if _, err := refDecodePayload(c.payload, c.size, c.rowBytes); err == nil {
			t.Errorf("%s: the reference decoder accepts it", c.name)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = decodePayload(out[:c.size], payload, c.rowBytes) }); allocs != 0 {
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
	escapes := make([]byte, 64)
	for i := range escapes {
		escapes[i] = byte(i&3) + byte(i%9)*27 // residuals past the unary limit
	}
	for _, c := range []struct {
		src      []byte
		rowBytes int
	}{{gameFrames(16, 5, 1)[0], 64}, {quantNoise, 20}, {escapes, 16}} {
		valid := appendPayload(nil, c.src, c.rowBytes)
		out := append(make([]byte, len(c.src)), 0xEE)
		n := len(c.src)
		for cut := 0; cut < len(valid); cut++ {
			if err := decodePayload(out[:n:n], valid[:cut:cut], c.rowBytes); err == nil {
				t.Fatalf("payload cut to %d of %d bytes decoded", cut, len(valid))
			}
		}
		for bit := 0; bit < 8*len(valid); bit++ {
			mut := append([]byte(nil), valid...)
			mut[bit/8] ^= 1 << (bit % 8)
			if err := decodePayload(out[:n:n], mut, c.rowBytes); err == nil {
				if ref, refErr := refDecodePayload(mut, n, c.rowBytes); refErr != nil || !bytes.Equal(ref, out[:n]) {
					t.Fatalf("flip of bit %d decodes differently from the reference (ref err %v)", bit, refErr)
				}
			}
		}
		if out[n] != 0xEE {
			t.Fatal("a mutated payload wrote past dst")
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

func TestPayloadSteadyStateAllocs(t *testing.T) {
	src := gameFrames(64, 16, 1)[0]
	buf := appendPayload(nil, src, 256) // sized on first use
	if allocs := testing.AllocsPerRun(100, func() { buf = appendPayload(buf[:0], src, 256) }); allocs != 0 {
		t.Errorf("appendPayload allocates %.1f objects per tile with a warm buffer", allocs)
	}
	back := make([]byte, len(src))
	if allocs := testing.AllocsPerRun(100, func() {
		if err := decodePayload(back, buf, 256); err != nil {
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
// bytes at a fuzzer-chosen row width: encode matches the reference coder
// and stays within the worst-case bound, decode(encode(x)) == x, and
// decoding x itself as a payload (for a fuzzer-chosen tile size) never
// panics, over-reads or writes past dst, and agrees with the reference
// decoder whenever it accepts.
func FuzzTilePayload(f *testing.F) {
	for _, e := range payloadCorpus() {
		if len(e.src) <= 1100 && e.rowBytes <= 256 {
			f.Add(e.src, uint16(len(e.src)), uint8(e.rowBytes/4-1))
			f.Add(appendPayload(nil, e.src, e.rowBytes), uint16(len(e.src)), uint8(e.rowBytes/4-1))
		}
	}
	// A valid payload in each pair table: seven pixels, channel 0 at k = 0
	// with an escape and a pad token.
	for tab := 0; tab < pairTables; tab++ {
		pairs := pairString(tab, [2]int{0, 1}, [2]int{2, 0}, [2]int{riceEscape, 1}, [2]int{0, 0})
		p := riceBlock(0x00, [4]byte{byte(tab), kZero, kZero, kZero}, nil, pairs, []byte{0x2A})
		if err := decodePayload(make([]byte, 28), p, 8); err != nil {
			f.Fatalf("table %d seed: %v", tab, err)
		}
		f.Add(p, uint16(28), uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, size uint16, rowB uint8) {
		rowBytes := 4 * (1 + int(rowB))
		enc := appendPayload(nil, data, rowBytes)
		if !bytes.Equal(enc, refAppendPayload(data, rowBytes)) {
			t.Fatal("payload differs from the reference coder's")
		}
		if len(enc) > maxPayloadLen(len(data)) {
			t.Fatalf("%d payload bytes for %d source bytes", len(enc), len(data))
		}
		back := make([]byte, len(data))
		if err := decodePayload(back, enc, rowBytes); err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("round trip mismatch")
		}
		out := append(make([]byte, int(size)%5000), 0xEE)
		n := len(out) - 1
		err := decodePayload(out[:n:n], data[:len(data):len(data)], rowBytes)
		if out[n] != 0xEE {
			t.Fatal("decode wrote past dst")
		}
		if ref, refErr := refDecodePayload(data, n, rowBytes); err == nil {
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
		buf = appendPayload(buf[:0], tiles[i%len(tiles)], 320*4)
	}
}

func BenchmarkPayloadDecodeGame(b *testing.B) {
	tiles := gameDeltaTiles(0)
	enc := make([][]byte, len(tiles))
	for i, t := range tiles {
		enc[i] = appendPayload(nil, t, 320*4)
	}
	dst := make([]byte, len(tiles[0]))
	b.SetBytes(int64(len(tiles[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(tiles)
		if err := decodePayload(dst[:len(tiles[j])], enc[j], 320*4); err != nil {
			b.Fatal(err)
		}
	}
}
