package codec

// The tile payload coder: a block-wise, predictive residual coder with
// Rice-split samples whose quotients are coded in pairs by static prefix
// tables. Every payload producer in the package — delta tiles, key/stripe
// tiles and splice cuts — hands its tile to appendPayload, and decodeTile
// hands the payload to decodePayload; there is no other entropy stage.
//
// The payload is a pure, self-describing function of three things: the
// tile's absolute (quantized) content src, its reference ref, and rowBytes,
// the byte distance from a pixel to the one above it (4 × frame width, so
// always a positive multiple of 4). The reference is the previous frame's
// content of the same tile for a delta tile, and nil for key, stripe-intra
// and splice tiles. Blocks are cut by byte count from the start of the tile
// (never by row width), and everything else the decoder needs — the
// domain, the prediction mode, the common power-of-two factor of the block
// (what quantization leaves behind), the per-channel Rice parameters — is
// derived from the bytes and recorded in the block header (the pair table
// of each channel included: it is picked by cost from the same bytes). That
// is what lets TileCache key payloads by (content, reference, rowBytes) and
// keeps a splice byte-identical to a private encoder.
//
// Two domains. Without a reference every block codes the content A = src.
// With one, a block codes either the temporal delta D = src − ref (inter
// coding, the S bit clear) or the content A itself (intra coding, S set),
// whichever codes shorter: the encoder plans both, sizes each plan's block
// exactly in the pair tables and keeps the shorter, the temporal one on a
// tie. The Rice estimate the plans are made by overstates quiet channels,
// which the pair tables code below a bit per sample, so it does not pick
// the domain. The decoder holds ref and every byte of A it has decoded, so
// it knows both A and D = A − ref for every earlier byte: a block predicts
// from the neighbours of its own domain, whatever domain coded them.
//
// Layout: the source is cut into blockBytes-byte blocks (the last may be
// short; the decoder derives the block count from the tile size, so no
// count or length is stored). The payload is the header string — every
// block's header, bit-packed and coded in the context of the block before
// (headers.go) — and then the block bodies in block order, each starting on
// a byte boundary. A header is the block's tag, whose bits read:
//
//	bits 0-2  shift s: every coded byte of the block is a multiple of 2^s
//	bit  3    H: predict from the left (the same channel of the previous
//	          pixel, x[i-4])
//	bit  4    V: predict from above (the same byte of the row above,
//	          x[i-rowBytes]; in the first row, x[i-4])
//	bits 5-6  block type
//	bit  7    S: the block codes A, not D. Legal only on a rice block of a
//	          tile with a reference; anywhere else it is corrupt.
//
// x is the block's signal: D for a block of a tile with a reference and S
// clear, A otherwise. Bytes before the tile start read as 0 in both
// domains. The four predictors are separable: none (the residual is x[i]),
// H (x[i]-x[i-4]), V (x[i]-u[i]), and H and V together, planar a+b-c
// prediction, which is H applied to the V difference image d[i] =
// x[i]-u[i]. u[i] is the byte above, x[i-rowBytes], and in the tile's first
// row, which has no row above, the same channel of the pixel to the left,
// x[i-4]: V there is H, and planar the gradient 2x[i-4]-x[i-8]. H
// runs across block and row boundaries. V needs rows of at least two pixels
// (rowBytes >= 8, so the decoder can add the row above a word at a time); a
// V tag on a narrower tile is corrupt.
//
//	type 0 (rice):  the header carries four 4-bit parameters, one per
//	    channel c = byte index mod 4:
//	      0-7    Rice parameter k = 0, the pair codes in pair table 0-7;
//	      8-13   Rice parameter k = 1-6 (the nibble minus 7), the pair codes
//	             in the unary table 7; k must be below 7-s, since k = 7-s
//	             never beats verbatim;
//	      14     verbatim: the channel in 8-s bits per sample;
//	      15     every residual of the channel is zero and the channel costs
//	             no bits at all (alpha, static stretches inside a changed
//	             block).
//	    The body is below.
//	type 1 (zeros): s, H, V and S are 0; the header carries a run length
//	    n >= 1 and the next n blocks are all zero in D (the reference's
//	    bytes) or, without a reference, in A — a clean region of any length
//	    costs one header and no body.
//	type 2 (raw):   s, H, V and S are 0; the body is the block's bytes of D
//	    (of A without a reference) verbatim.
//
// A sample is coded as v = zigzag(int8(residual) >> s), split Rice-fashion
// into a quotient q = v>>k and the k remainder bits. The quotient becomes a
// token min(q, riceEscape): a quotient of riceEscape or more escapes, and
// its excess goes to a third string. Tokens are coded two at a time — the
// samples j and j+4 of a channel, one pixel and the next — as one code of
// the channel's pair table (pairtables.go), so a pair of zeros can cost a
// single bit. The body of a rice block keeps the parts apart, because
// fixed-width fields and a string of table codes each decode without the
// serial shift-by-what-I-just-read chain of an interleaved Rice stream:
//
//	remainder string: channel by channel (0..3), sample by sample, the low
//	    k bits of v (all 8-s bits for a verbatim channel), packed
//	    LSB-first; zero-padded to a byte boundary.
//	pair string: channel by channel, rice channels only, pair by pair
//	    (samples c and c+4, c+8 and c+12, …), the code of the two tokens,
//	    first code bit lowest, packed LSB-first. A channel with an odd
//	    number of samples ends on a pair whose second token is a pad that
//	    must be 0. Zero-padded to a byte boundary.
//	escape string: the escaped samples in sample (byte) order, each as
//	    q-riceEscape in 8-s-k bits, packed LSB-first; zero-padded to a byte
//	    boundary, and empty when nothing escapes. With its k remainder bits
//	    an escaped sample is verbatim in 8-s bits.
//
// The escape caps a sample at maxPairLen/2+8-s bits in the unary table
// however far it lies from its prediction (a sprite edge, an input flash),
// where an unlimited unary code spends up to 256; no table has a code
// longer than maxPairLen.
//
// Worst case: the encoder sizes a rice block exactly, its header's bits in
// the current context included, before it writes it (riceCode.measure), and
// a block whose rice block would cost more bits than its raw header and
// bytes goes out raw. No header code is longer than a byte, so a payload
// never exceeds len(src) + ceil(len(src)/blockBytes) bytes — raw plus one
// byte of header per block (0.1 %).

import (
	"encoding/binary"
	"math/bits"
)

const (
	// blockBytes is the coding block: 256 RGBA pixels. Small enough that the
	// per-channel parameters track local statistics, large enough that the
	// three paddings of a rice body stay under 1 % of a well-compressed
	// block (DESIGN §11.3 has the measurement against 512).
	blockBytes = 1024

	blockRice  = 0
	blockZeros = 1
	blockRaw   = 2

	tagLeft      = 0x08 // H
	tagUp        = 0x10 // V
	tagTypeShift = 5
	tagSpatial   = 0x80 // S

	// A prediction mode is the tag's H and V bits shifted down.
	tagModeShift = 3
	modeLeft     = tagLeft >> tagModeShift
	modeUp       = tagUp >> tagModeShift

	// minUpRow is the narrowest row V may predict from.
	minUpRow = 8

	// kZero marks a channel whose residuals are all zero, in the header and
	// in the coder's parameter arrays, where a verbatim channel has k = 8-s.
	kZero = 15
	// nibVerbatim is the header nibble of a verbatim channel, and nibRice+k
	// the nibble of Rice parameter k >= 1.
	nibVerbatim = 14
	nibRice     = unaryTable

	// riceEscape is the largest token: the quotient limit, and the token
	// that marks an escaped sample. A power of two, so an escape is a set
	// bit at or above riceEscape<<k (escapeMask).
	riceEscape = 8

	// kClamp caps the magnitudes the Rice parameter is picked from:
	// anything larger is an outlier that escapes whatever k is.
	kClamp = 15

	// riceOverhead is what a rice block is taken to spend beyond its
	// estimated body bits, in bytes: its header and the three paddings.
	// Without a reference a block whose estimate plus this passes its raw
	// size goes out raw unmeasured.
	riceOverhead = 6

	// payloadSlack is the headroom past the worst-case payload that the bit
	// writers' whole-word stores need: a rice block is written only once it
	// is measured to fit the block's raw size.
	payloadSlack = 8
)

// maxPayloadLen returns the payload worst case for n source bytes.
func maxPayloadLen(n int) int { return n + (n+blockBytes-1)/blockBytes }

// headerRoom is the space appendPayload sets aside in front of the bodies
// for the header string of n source bytes: maxHeaderBits a block, and the
// header writer's whole-word store.
func headerRoom(n int) int { return (n+blockBytes-1)/blockBytes*maxHeaderBits/8 + 8 }

// zigzagBytes maps every byte lane r of v to zigzag(int8(r)): 0,-1,1,-2…
// become 0,1,2,3….
func zigzagBytes(v uint64) uint64 {
	return (v&^swarHi)<<1 ^ (v>>7&swarLo)*0xFF
}

// foldOr collapses the eight byte lanes of v into their OR.
func foldOr(v uint64) byte {
	v |= v >> 32
	v |= v >> 16
	v |= v >> 8
	return byte(v)
}

// laneSums adds the four 16-bit lanes of even and odd into per-channel
// totals: even holds byte lanes 0,2,4,6 (channels 0,2,0,2), odd lanes
// 1,3,5,7 (channels 1,3,1,3).
func laneSums(even, odd uint64) [4]uint32 {
	return [4]uint32{
		uint32(even&0xFFFF + even>>32&0xFFFF),
		uint32(odd&0xFFFF + odd>>32&0xFFFF),
		uint32(even>>16&0xFFFF + even>>48),
		uint32(odd>>16&0xFFFF + odd>>48),
	}
}

// nonZeroLanes sets the high bit of every non-zero byte lane of t and
// clears the rest.
func nonZeroLanes(t uint64) uint64 {
	return ((t &^ swarHi) + ^swarHi | t) & swarHi
}

// upWord returns the eight bytes V predicts b[p:p+8] from: the row above
// it, or in the tile's first row the pixel to the left, which the caller
// passes as left (b[p-4:p+4] with 0 before the start of b, the operand H
// builds). It needs p+8-rowBytes <= len(b).
func upWord(b []byte, p, rowBytes int, left uint64) uint64 {
	q := p - rowBytes
	switch {
	case q >= 0:
		return binary.LittleEndian.Uint64(b[q:])
	case q <= -8:
		return left
	}
	sh := 8 * uint(-q) // the first row ends inside the word
	return left&(1<<sh-1) | loadTail(b[:q+8])<<sh
}

// leftCarry returns the pixel before block start p (a multiple of
// blockBytes) of the signal H predicts — b itself, or its V difference
// when up is set, which is its H difference in the tile's first row — in
// the low four lanes; 0 at the tile start.
func leftCarry(b []byte, p, rowBytes int, up bool) uint64 {
	if p == 0 {
		return 0
	}
	x := binary.LittleEndian.Uint64(b[p-8:])
	if up {
		x = subBytes(x, upWord(b, p-8, rowBytes, binary.LittleEndian.Uint64(b[p-12:])))
	}
	return x >> 32
}

// residualByte is the byte-at-a-time predictor: the residual of src[p]
// under mode.
func residualByte(src []byte, p, rowBytes, mode int) byte {
	at := func(q int) byte {
		if q < 0 {
			return 0
		}
		return src[q]
	}
	up := func(q int) byte { // V's operand: the pixel to the left in the first row
		if q < rowBytes {
			return at(q - 4)
		}
		return src[q-rowBytes]
	}
	r, left := src[p], at(p-4)
	if mode&modeUp != 0 {
		r -= up(p)
		left -= up(p - 4)
	}
	if mode&modeLeft != 0 {
		r -= left
	}
	return r
}

// blockStats analyses src[i:end] (i a multiple of blockBytes, end-i <=
// blockBytes) for the prediction modes from first on (0, or modeLeft to
// leave none out) in one pass, eight byte lanes at a time: it leaves each
// such mode's zig-zagged residuals in zz[mode][:n] (zero up to the next
// multiple of 8) for the coder to pick from, and returns the OR of every
// residual of every mode, none's included (for the shift), and each such
// mode's per-channel magnitude sums (for the mode choice). The residuals
// are differences of the block's bytes, the rows above them and the pixel
// before the block, so those bytes OR to the same power-of-two factor. The
// 16-bit lane accumulators cannot overflow: a block feeds each lane at
// most blockBytes/8 values of at most 255.
func blockStats(zz *[4][blockBytes]byte, src []byte, i, end, rowBytes, first int) (or byte, sum [4][4]uint32) {
	const lo16 = 0x00FF00FF00FF00FF
	// The pixel before the cursor of src and of its V difference.
	cx, cd := leftCarry(src, i, rowBytes, false), leftCarry(src, i, rowBytes, true)
	o := cx | cd
	var eN, oN, eH, oH, eV, oV, eP, oP uint64
	j := 0
	for ; i+j+8 <= end; j += 8 {
		p := i + j
		x := binary.LittleEndian.Uint64(src[p:])
		u := upWord(src, p, rowBytes, x<<32|cx)
		d := subBytes(x, u)
		h := subBytes(x, x<<32|cx)
		pl := subBytes(d, d<<32|cd)
		cx, cd = x>>32, d>>32
		o |= x | u
		if first == 0 {
			z := zigzagBytes(x)
			binary.LittleEndian.PutUint64(zz[0][j:], z)
			eN += z & lo16
			oN += z >> 8 & lo16
		}
		z := zigzagBytes(h)
		binary.LittleEndian.PutUint64(zz[modeLeft][j:], z)
		eH += z & lo16
		oH += z >> 8 & lo16
		z = zigzagBytes(d)
		binary.LittleEndian.PutUint64(zz[modeUp][j:], z)
		eV += z & lo16
		oV += z >> 8 & lo16
		z = zigzagBytes(pl)
		binary.LittleEndian.PutUint64(zz[modeLeft|modeUp][j:], z)
		eP += z & lo16
		oP += z >> 8 & lo16
	}
	sum = [4][4]uint32{laneSums(eN, oN), laneSums(eH, oH), laneSums(eV, oV), laneSums(eP, oP)}
	or = foldOr(o)
	if i+j == end {
		return or, sum
	}
	for m := range zz { // short last block only
		for t := j; t < j+8; t++ {
			zz[m][t] = 0
			if i+t < end {
				r := residualByte(src, i+t, rowBytes, m)
				or |= r
				zz[m][t] = zigzag(r)
				sum[m][t&3] += uint32(zz[m][t])
			}
		}
	}
	return or, sum
}

// clampedSums returns, per channel, the sum over zz[:n] (zero up to the
// next multiple of 8) of min(v>>s, kClamp): the magnitudes the final Rice
// parameters are picked from. The 8-bit lane accumulator takes 16 clamped
// words before it spills into 16-bit lanes.
func clampedSums(zz *[blockBytes]byte, n int, s uint) [4]uint32 {
	const lo16 = 0x00FF00FF00FF00FF
	const clamp = kClamp * swarLo
	laneMask := uint64(0xFF>>s) * swarLo
	var acc, even, odd uint64
	for j := 0; j < n; j += 8 {
		v := binary.LittleEndian.Uint64(zz[j:]) >> s & laneMask
		acc += (v | nonZeroLanes(v&^clamp)>>7*kClamp) & clamp
		if j&(15*8) == 15*8 || j+8 >= n {
			even += acc & lo16
			odd += acc >> 8 & lo16
			acc = 0
		}
	}
	return laneSums(even, odd)
}

// zigzag maps int8(r) to its zig-zag magnitude.
func zigzag(r byte) byte { return r<<1 ^ byte(int8(r)>>7) }

// unzigzag inverts zigzag.
func unzigzag(v byte) byte { return v>>1 ^ -(v & 1) }

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != 0 {
			return false
		}
	}
	for ; i < len(b); i++ {
		if b[i] != 0 {
			return false
		}
	}
	return true
}

// riceK returns the Rice parameter for nc samples of mean magnitude m/nc:
// of the two candidates around log2(mean), the one that minimises the
// unary-plus-remainder estimate nc*(k+1) + m>>k.
func riceK(m, nc int) uint {
	// floor(log2(mean+1)): the largest k with nc<<k <= m+nc.
	k := uint(bits.Len(uint(m+nc)) - bits.Len(uint(nc)))
	if nc<<k > m+nc {
		k--
	}
	if k > 0 && nc*int(k)+m>>(k-1) < nc*(int(k)+1)+m>>k {
		k--
	}
	return k
}

// riceParams picks the four channel parameters of a block of n bytes and
// shift s and returns them with the estimated body size in bits. mag holds
// the channels' magnitude sums (of v, after the shift), cmag the same sums
// with every magnitude clamped at kClamp. The parameter comes straight from
// a mean magnitude, never from trial coding. A channel goes verbatim unless
// Rice coding beats that with its outliers counted in full; its parameter
// then follows the clamped mean, as the outliers escape whatever k is.
func riceParams(s uint, mag, cmag *[4]uint32, n int) (ks [4]uint8, estBits int) {
	for c := 0; c < 4; c++ {
		cost, k := channelCost(s, mag[c], n, c)
		if k < 8-s {
			k = riceK(int(cmag[c]), (n-c+3)/4)
		}
		ks[c] = uint8(k)
		estBits += cost
	}
	return ks, estBits
}

// channelCost is the estimated size in bits of channel c of a block of n
// bytes and shift s whose magnitude sum is m, and its parameter before the
// clamp: kZero for no bits, 8-s for verbatim, or the Rice parameter of the
// plain mean.
func channelCost(s uint, m uint32, n, c int) (cost int, k uint) {
	if m == 0 {
		return 0, kZero
	}
	width := 8 - s // bits of a verbatim sample
	nc := (n - c + 3) / 4
	k = riceK(int(m), nc)
	cost = nc*(int(k)+1) + int(m)>>k
	if raw := nc * int(width); cost >= raw || k >= width {
		return raw, width
	}
	return cost, k
}

// modeCost is the estimated body size of one prediction mode of a block,
// shift s, from its magnitude sums: what the mode choice compares.
func modeCost(s uint, sum *[4]uint32, n int) (est int) {
	for c, v := range sum {
		cost, _ := channelCost(s, v>>s, n, c)
		est += cost
	}
	return est
}

// blockPlan is how a block codes in one domain: the prediction mode, the
// shift, the mode's magnitude sums after the shift, and the estimated body
// size in bits.
type blockPlan struct {
	mode int
	s    uint
	mag  [4]uint32
	est  int
}

// planBlock analyses the block src[i:end], which is not all zero, and plans
// how it codes in that one domain, over the prediction modes from first on.
// It leaves those modes' zig-zagged residuals in zz.
func planBlock(zz *[4][blockBytes]byte, src []byte, i, end, rowBytes, first int) (p blockPlan) {
	modes := 4
	if rowBytes < minUpRow {
		modes = 2 // none and H only
	}
	n := end - i
	or, sum := blockStats(zz, src, i, end, rowBytes, first)
	p.s = uint(bits.TrailingZeros8(or)) // or != 0: the block is not all zero
	p.mode = first
	p.est = modeCost(p.s, &sum[first], n)
	for m := first + 1; m < modes; m++ {
		if c := modeCost(p.s, &sum[m], n); c < p.est {
			p.mode, p.est = m, c
		}
	}
	for c, v := range sum[p.mode] {
		p.mag[c] = v >> p.s
	}
	return p
}

// params returns the channel parameters of plan p for the n residuals zz
// of its mode. Clamping only lowers a sum and riceK never rises as its sum
// falls, so a channel whose plain-mean parameter is 0 keeps 0: the clamped
// sums are taken only when some channel's is 1 or more.
func (p *blockPlan) params(zz *[blockBytes]byte, n int) [4]uint8 {
	cmag := p.mag
	for c, m := range p.mag {
		if _, k := channelCost(p.s, m, n, c); k > 0 && k < 8-p.s {
			cmag = clampedSums(zz, n, p.s)
			break
		}
	}
	ks, _ := riceParams(p.s, &p.mag, &cmag, n)
	return ks
}

// appendPayload appends the coded form of src, a tile whose rows are
// rowBytes long, against the reference ref (nil, or as long as src) to dst
// and returns the extended slice; dst may not overlap src or ref. With a
// reference, each block that changed codes in the domain whose rice block
// costs fewer bits, header included, the temporal one on a tie, and goes
// out raw when that block would cost more than raw. Without one, a block
// the estimate gives to raw is not sized at all. The bodies are written
// headerRoom past the start and moved down behind the header string once
// it is complete. It allocates only when dst lacks the capacity for the
// worst case, the header room and payloadSlack, and with a reference
// len(src) more: the temporal delta is computed once into the end of that
// capacity, past anything the payload can reach.
func appendPayload(dst, src, ref []byte, rowBytes int) []byte {
	pos := len(dst)
	need := pos + headerRoom(len(src)) + len(src) + payloadSlack
	if ref != nil {
		need += len(src)
	}
	if cap(dst) < need {
		grown := make([]byte, need)
		copy(grown, dst)
		dst = grown
	}
	out := dst[:cap(dst)]
	// sig is the signal of zero runs, raw blocks and blocks with S clear:
	// the delta D, or the content without a reference.
	sig := src
	if ref != nil {
		sig = out[len(out)-len(src):]
		out = out[:len(out)-len(src)]
		subInto(sig, src, ref)
	}
	hw := bitWriter{out: out, pos: pos}
	hc := newHdrCtx()
	bodies := pos + headerRoom(len(src))
	body := bodies
	var zz, zzA [4][blockBytes]byte // the residuals of sig, and of the content
	var rcs [2]riceCode             // their measured blocks, reused block to block
	for i := 0; i < len(src); {
		end := min(i+blockBytes, len(src))
		if allZero(sig[i:end]) {
			run := 1
			for end < len(src) {
				next := min(end+blockBytes, len(src))
				if !allZero(sig[end:next]) {
					break
				}
				run++
				end = next
			}
			hc.putZeros(&hw, run)
			i = end
			continue
		}
		n := end - i
		rawBits := hc.tagBits(symRaw) + 8*n
		p := planBlock(&zz, sig, i, end, rowBytes, 0)
		res, tag := &zz[p.mode], byte(blockRice<<tagTypeShift)|byte(p.mode)<<tagModeShift|byte(p.s)
		rc := &rcs[0]
		switch {
		case ref != nil:
			// The content, planned over H, V and planar: none would code
			// its raw pixel values. Both domains' blocks are sized, header
			// bits included, and the cheaper one kept, the temporal one on a
			// tie.
			a := planBlock(&zzA, src, i, end, rowBytes, modeLeft)
			rc.measure(res, n, p.s, p.params(res, n), &hc, tag, rawBits)
			rcA := &rcs[1]
			tagA := byte(blockRice<<tagTypeShift) | byte(a.mode)<<tagModeShift | byte(a.s) | tagSpatial
			if rcA.measure(&zzA[a.mode], n, a.s, a.params(&zzA[a.mode], n), &hc, tagA, rawBits); rcA.bits < rc.bits {
				p, res, rc, tag = a, &zzA[a.mode], rcA, tagA
			}
		case p.est+8*riceOverhead <= 8*n:
			rc.measure(res, n, p.s, p.params(res, n), &hc, tag, rawBits)
		default:
			rc.bits = rawBits + 1 // the estimate says raw
		}
		if rc.bits <= rawBits {
			hc.putRice(&hw, tagSymbol(tag), &rc.nib)
			body = appendRiceBlock(out, body, res, n, p.s, rc)
		} else {
			hc.putRaw(&hw)
			body += copy(out[body:], sig[i:end])
		}
		i = end
	}
	hend := hw.end()
	copy(out[hend:], out[bodies:body])
	return out[:hend+body-bodies]
}

// loadTail loads the len(b) < 8 bytes of b into the low lanes of a word.
func loadTail(b []byte) (x uint64) {
	for j, v := range b {
		x |= uint64(v) << (8 * uint(j))
	}
	return x
}

// escapeMask returns the bits of a word of zig-zag magnitudes (shifted
// left by s) that mark an escape: lane j's byte holds the bits at and
// above riceEscape<<(s+k) for the parameter k of channel j mod 4 — none
// for a channel without quotients.
func escapeMask(ks *[4]uint8, width, s uint) (m uint64) {
	for c, k := range ks {
		if uint(k) < width {
			b := uint64(0xFF &^ (riceEscape<<(s+uint(k)) - 1))
			m |= b<<(8*c) | b<<(8*c+32)
		}
	}
	return m
}

// pairSymbols fills syms with the pairs of the n magnitudes zz at shift
// sk, a word of eight at a time: a word is two pixels, the first holding
// every channel's token a and the second its token b, so pair p of channel
// c lands at syms[4p+c] as a<<4|b. Tokens saturate at riceEscape lane by
// lane; a pair past n (the pad of an odd channel) reads the zero tail of
// zz. It returns the escaped tokens counted per byte lane, channel c's in
// lanes c and c+4 (at most blockBytes/8 each).
func pairSymbols(syms *[blockBytes / 2]byte, zz *[blockBytes]byte, n int, sk uint) (esc uint64) {
	sk &= 7
	lanes := uint64(0xFF>>sk) * swarLo
	for j := 0; j < n; j += 8 {
		v := binary.LittleEndian.Uint64(zz[j:]) >> sk & lanes
		big := nonZeroLanes(v&^((riceEscape-1)*swarLo)) >> 7 // a 1 per lane >= riceEscape
		v = v&^(big*0xFF) | big*riceEscape
		esc += big
		binary.LittleEndian.PutUint32(syms[j/2:], uint32(v)<<4|uint32(v>>32))
	}
	return esc
}

// channelPairs returns channel c's pairs from syms filled for n samples:
// the slice starts at the channel's first pair, and every 4th byte is the
// next one.
func channelPairs(syms *[blockBytes / 2]byte, c, n int) []byte {
	np := (n - c + 7) / 8
	if np == 0 {
		return nil
	}
	return syms[c : c+4*np-3]
}

// pairCosts adds up what the pairs ch (every 4th byte) cost in every table
// in one pass, in byte lanes spilled to 16-bit lanes every costRun pairs:
// table t's bits end up in 16-bit lane t>>1 of even (t even) or odd (t
// odd). A channel's at most blockBytes/8 pairs of at most maxPairLen bits
// cannot overflow a lane.
func pairCosts(ch []byte) (even, odd uint64) {
	const lo16 = 0x00FF00FF00FF00FF
	for i := 0; i < len(ch); {
		var acc uint64
		for stop := min(len(ch), i+4*costRun); i < stop; i += 4 {
			acc += pairs.cost[ch[i]]
		}
		even += acc & lo16
		odd += acc >> 8 & lo16
	}
	return even, odd
}

// tableBits returns table t's lane of pairCosts.
func tableBits(even, odd uint64, t uint8) int {
	if t&1 != 0 {
		even = odd
	}
	return int(even >> (16 * (t >> 1)) & 0xFFFF)
}

// pairTable returns the table that codes the pairs ch in the fewest bits,
// the lowest-numbered one on a tie, and those bits.
func pairTable(ch []byte) (best uint8, least int) {
	even, odd := pairCosts(ch)
	least = tableBits(even, odd, 0)
	for t := uint8(1); t < pairTables; t++ {
		if b := tableBits(even, odd, t); b < least {
			best, least = t, b
		}
	}
	return best, least
}

// riceCode is a rice block measured and ready to write: its channel
// parameters, their pair tables, its header nibbles, its cost in bits, the
// escaped samples, and the pairs at shift symShift that the writer starts
// from.
type riceCode struct {
	ks, tabs, nib [4]uint8
	bits          int
	escapes       int
	symShift      uint
	syms          [blockBytes / 2]byte
}

// measure sizes the rice block with tag tag of the n zig-zag magnitudes zz
// (before the shift; zero up to the next multiple of 8) at shift s with the
// channel parameters ks — k, 8-s for verbatim or kZero — without writing a
// bit: it picks each k = 0 channel's table by cost and adds up the header's
// codes in context hc, the remainder bits, the pair codes in pairs.cost's
// lanes (the unary lane for k >= 1) and the escape fields, each string
// padded to a byte. The size is exact whenever it is at most limit bits.
// The remainder bits are known from ks alone and a pair or nibble code
// takes at least one bit (a pair two in the unary table), so a block whose
// floor already passes limit — verbatim noise — stops there, with that
// floor as its size: it goes out raw whatever its pairs cost.
func (rc *riceCode) measure(zz *[blockBytes]byte, n int, s uint, ks [4]uint8, hc *hdrCtx, tag byte, limit int) {
	width := 8 - s
	rc.ks, rc.escapes = ks, 0
	remBits, pairBits, escBits := 0, 0, 0
	for c, k8 := range ks {
		k := uint(k8)
		nc := (n - c + 3) / 4
		switch {
		case k == kZero:
		case k == width:
			remBits += nc * int(width)
		case k == 0:
			pairBits += (nc + 1) / 2
		default:
			remBits += nc * int(k)
			pairBits += (nc + 1) / 2 * 2
		}
	}
	tagBits := hc.tagBits(tagSymbol(tag))
	if rc.bits = tagBits + 4 + 8*((remBits+7)>>3+(pairBits+7)>>3); rc.bits > limit {
		return
	}
	pairBits = 0
	rc.symShift = s
	esc := pairSymbols(&rc.syms, zz, n, s)
	for c, k8 := range ks {
		k := uint(k8)
		if k >= width { // all-zero or verbatim: no pairs, no escapes
			continue
		}
		if s+k != rc.symShift {
			rc.symShift = s + k
			esc = pairSymbols(&rc.syms, zz, n, rc.symShift)
		}
		ch := channelPairs(&rc.syms, c, n)
		if k == 0 {
			var b int
			rc.tabs[c], b = pairTable(ch)
			pairBits += b
		} else {
			even, odd := pairCosts(ch)
			rc.tabs[c] = unaryTable
			pairBits += tableBits(even, odd, unaryTable)
		}
		e := int(esc>>(8*c)&0xFF + esc>>(8*c+32)&0xFF)
		rc.escapes += e
		escBits += e * int(width-k)
	}
	for c, k := range ks {
		switch {
		case k == kZero:
			rc.nib[c] = kZero
		case uint(k) == width:
			rc.nib[c] = nibVerbatim
		case k == 0:
			rc.nib[c] = rc.tabs[c]
		default:
			rc.nib[c] = nibRice + k
		}
	}
	rc.bits = tagBits + hc.nibBits(&rc.nib) + 8*((remBits+7)>>3+(pairBits+7)>>3+(escBits+7)>>3)
}

// appendRiceBlock writes the body of the rice block rc measured at shift s
// for the n zig-zag magnitudes zz at out[pos:] and returns the position
// after it, which is at most the block's raw size on. out has payloadSlack
// bytes of headroom past that, so the bit writers store whole words without
// bounds arithmetic. The writer refills rc.syms at each k >= 1 channel's
// shift.
func appendRiceBlock(out []byte, pos int, zz *[blockBytes]byte, n int, s uint, rc *riceCode) int {
	width := 8 - s
	ks, tabs := &rc.ks, &rc.tabs

	// Remainder string. The accumulator is flushed after every run of
	// samples that keeps it within a word: at most 7 pending bits plus 56.
	var acc uint64
	var nb uint
	for c, k8 := range ks {
		k := uint(k8)
		if k == kZero || k == 0 {
			continue
		}
		m := byte(uint(1)<<k - 1)
		run := 4 * int(56/k)
		for j := c; j < n; {
			for stop := min(n, j+run); j < stop; j += 4 {
				acc |= uint64(zz[j]>>s&m) << (nb & 63)
				nb += k
			}
			binary.LittleEndian.PutUint64(out[pos:], acc)
			pos += int(nb >> 3)
			acc >>= nb &^ 7 & 63
			nb &= 7
		}
	}
	if nb > 0 {
		out[pos] = byte(acc)
		pos++
	}

	// Pair string.
	acc, nb = 0, 0
	for c, k8 := range ks {
		k := uint(k8)
		if k >= width { // all-zero or verbatim: no quotients
			continue
		}
		if s+k != rc.symShift {
			rc.symShift = s + k
			pairSymbols(&rc.syms, zz, n, rc.symShift)
		}
		pos, acc, nb = appendPairs(out, pos, acc, nb, channelPairs(&rc.syms, c, n), &pairs.code[tabs[c]])
	}
	if nb > 0 {
		out[pos] = byte(acc)
		pos++
	}

	// Escape string: a word-wide scan finds the escaped samples.
	if rc.escapes == 0 {
		return pos
	}
	em := escapeMask(ks, width, s)
	acc, nb = 0, 0
	for j := 0; j < n; j += 8 {
		for lanes := nonZeroLanes(binary.LittleEndian.Uint64(zz[j:]) & em); lanes != 0; lanes &= lanes - 1 {
			t := j + bits.TrailingZeros64(lanes)>>3
			k := uint(ks[t&3])
			acc |= uint64(zz[t]>>(s+k)-riceEscape) << nb
			nb += width - k
			binary.LittleEndian.PutUint64(out[pos:], acc)
			pos += int(nb >> 3)
			acc >>= nb &^ 7
			nb &= 7
		}
	}
	if nb > 0 {
		out[pos] = byte(acc)
		pos++
	}
	return pos
}

// appendPairs writes the codes of the pairs ch (every 4th byte) in the
// table code to the bit writer (out, pos, acc, nb) and returns its new
// state. A run of pairRun codes is summed without a flush check, then
// flushed like the remainder string.
func appendPairs(out []byte, pos int, acc uint64, nb uint, ch []byte, code *[256]uint32) (int, uint64, uint) {
	const codeMask = 1<<codeLenShift - 1
	for i := 0; i < len(ch); i += 4 * pairRun {
		if i+4*(pairRun-1) < len(ch) {
			z := ch[i : i+4*pairRun-3 : i+4*pairRun-3]
			e0, e1, e2 := code[z[0]], code[z[4]], code[z[8]]
			p1 := nb + uint(e0>>codeLenShift)
			p2 := p1 + uint(e1>>codeLenShift)
			acc |= uint64(e0&codeMask)<<(nb&63) | uint64(e1&codeMask)<<(p1&63) | uint64(e2&codeMask)<<(p2&63)
			nb = p2 + uint(e2>>codeLenShift)
		} else {
			for t := i; t < len(ch); t += 4 {
				e := code[ch[t]]
				acc |= uint64(e&codeMask) << (nb & 63)
				nb += uint(e >> codeLenShift)
			}
		}
		binary.LittleEndian.PutUint64(out[pos:], acc)
		pos += int(nb >> 3)
		acc >>= nb &^ 7 & 63
		nb &= 7
	}
	return pos, acc, nb
}

// decodePayload expands a payload into exactly len(dst) bytes of absolute
// content, a tile whose rows are rowBytes long coded against the reference
// ref: nil, or len(dst) bytes that dst does not overlap. It never allocates
// and never reads outside payload and ref or writes outside dst: every
// declared size is checked against the bytes and the space actually left
// before it is acted on, and the sample loops are bounded by the block
// size, not by anything the payload says. The header string is read to its
// end first, which is where the bodies start, and again as they decode.
func decodePayload(dst, payload, ref []byte, rowBytes int) error {
	if ref != nil {
		ref = ref[:len(dst)]
	}
	blocks := (len(dst) + blockBytes - 1) / blockBytes
	hr := hdrReader{hdrCtx: newHdrCtx(), left: blocks}
	for hr.left > 0 {
		if _, err := hr.next(payload, ref != nil); err != nil {
			return err
		}
	}
	pos := (hr.bp + 7) >> 3
	if hr.bp&7 != 0 && payload[hr.bp>>3]>>(hr.bp&7) != 0 {
		return ErrCorrupt // the header string's padding must be zero
	}
	hr = hdrReader{hdrCtx: newHdrCtx(), left: blocks}
	for i := 0; i < len(dst); {
		bh, _ := hr.next(payload, ref != nil) // read once already
		end := min(i+blockBytes, len(dst))
		switch bh.tag {
		case blockZeros << tagTypeShift:
			end = min(i+int(bh.run)*blockBytes, len(dst))
			if ref != nil {
				copy(dst[i:end], ref[i:end])
			} else {
				clear(dst[i:end])
			}
		case blockRaw << tagTypeShift:
			if len(payload)-pos < end-i {
				return ErrTruncated
			}
			pos += copy(dst[i:end], payload[pos:])
			if ref != nil {
				addInto(dst[i:end], ref[i:end])
			}
		default:
			bias := ref // the block codes D, or A when S is set
			if bh.tag&tagSpatial != 0 {
				bias = nil
			}
			var err error
			if pos, err = decodeRiceBlock(dst, bias, i, end, rowBytes, payload, pos, bh.tag, bh.params); err != nil {
				return err
			}
		}
		i = end
	}
	if pos != len(payload) {
		return ErrCorrupt
	}
	return nil
}

// unzigzagBytes inverts zigzagBytes lane-wise.
func unzigzagBytes(v uint64) uint64 {
	return v>>1&^swarHi ^ (v&swarLo)*0xFF
}

// decodeRiceBlock decodes the rice block with header tag and parameter
// nibbles params, its body at payload[pos:], of the signal dst-bias into
// dst[i:end] and returns the position after it.
func decodeRiceBlock(dst, bias []byte, i, end, rowBytes int, payload []byte, pos int, tag byte, params uint16) (int, error) {
	if tag&tagUp != 0 && rowBytes < minUpRow {
		return 0, ErrCorrupt
	}
	s := uint(tag & 7)
	width := 8 - s
	// Parameters as the encoder holds them: k, 8-s for verbatim or kZero,
	// and the pair table of each rice channel.
	var ks, tabs [4]uint8
	for c := range ks {
		p := uint8(params >> (4 * c) & 15)
		switch {
		case p == kZero:
			ks[c] = kZero
		case p == nibVerbatim:
			ks[c] = uint8(width)
		case p < pairTables:
			ks[c], tabs[c] = 0, p
		case uint(p-nibRice)+1 >= width:
			return 0, ErrCorrupt // k = 7-s or wider: verbatim is never longer
		default:
			ks[c], tabs[c] = p-nibRice, unaryTable
		}
	}
	n := end - i
	// Sample j's value is rem[j] | quo[j]: the strings fill one array each,
	// so no loop reads what another wrote.
	// quo runs 16 bytes past the block for the last pair's lookup.
	var rem [blockBytes]byte
	var quo [blockBytes + 16]byte

	// Remainder string: fixed-width fields, a word's worth per refill.
	// Bits past the end of the payload read as zeros and drive nb negative,
	// which is reported once the string is done.
	var acc uint64
	nb := 0 // valid bits in acc
	for c, k8 := range ks {
		k := uint(k8)
		if k == kZero || k == 0 {
			continue
		}
		m := uint64(1)<<k - 1
		run := 4 * int(56/k)
		for j := c; j < n; {
			if pos+8 <= len(payload) {
				// One unaligned load tops acc up to 56..63 bits; the bits
				// above nb are real upcoming bits, which re-ORing preserves.
				acc |= binary.LittleEndian.Uint64(payload[pos:]) << (uint(nb) & 63)
				pos += (63 - nb) >> 3
				nb |= 56
			} else {
				for ; pos < len(payload) && nb <= 56; pos++ {
					acc |= uint64(payload[pos]) << (uint(nb) & 63)
					nb += 8
				}
			}
			for stop := min(n, j+run); j < stop; j += 4 {
				rem[j] = byte(acc & m)
				acc >>= k & 63
				nb -= int(k)
			}
		}
	}
	if nb < 0 {
		return 0, ErrTruncated
	}
	pos -= nb >> 3 // hand back the whole bytes the refill ran ahead by
	if acc&(1<<(uint(nb)&7)-1) != 0 {
		return 0, ErrCorrupt // padding must be zero
	}

	// Pair string: a run of pairRun lookups fits the 57 bits one load at
	// the cursor brings; each looks its one or two codes up by their first
	// lutBits bits. The lookup, a shift by the entry and the next index
	// are the only loop-carried steps: a longer code (second step) and a
	// bad one leave the loop by one comparison.
	bp := 8 * pos // the cursor, in bits
	for c, k8 := range ks {
		k := uint(k8)
		if k >= width {
			continue
		}
		lut := &pairs.lut[tabs[c]]
		// The largest token the block allows: riceEscape (an escape), or
		// less when no (8-s)-bit sample has a quotient that large.
		qmax := uint32(min(riceEscape, int(0xFF>>s)>>k))
		for j := c; j < n; {
			w, valid := window(payload, bp)
			off := 0 // bits taken from w
			for r := 0; r < pairRun && j < n; r++ {
				e := lut.prim[w&(1<<lutBits-1)]
				if j+8 >= n { // the channel's last pair: what follows is not its own
					e = firstPair(e)
				}
				if e>>lutMaxShift > qmax {
					if e>>lutMaxShift == lutLong {
						e = lut.sec[e>>8&0xFFFF|uint32(w>>lutBits)&(1<<secBits-1)]
					}
					if e>>lutMaxShift > qmax { // no code, or a token too large
						if l := int(e & lutLenMask); l == 0 && valid-off < maxPairLen || off+l > valid {
							return 0, ErrTruncated // the payload ends inside the code
						}
						return 0, ErrCorrupt
					}
				}
				// A one-pair entry writes zeros where the next pair goes.
				quo[j] = byte(e>>8&15) << k
				quo[j+4] = byte(e>>12&15) << k
				quo[j+8] = byte(e>>16&15) << k
				quo[j+12] = byte(e>>20&15) << k
				w >>= e & lutLenMask
				off += int(e & lutLenMask)
				j += int(e >> 3 & 24) // 8 a pair
			}
			if off > valid {
				return 0, ErrTruncated
			}
			bp += off
		}
		if nc := (n - c + 3) / 4; nc&1 != 0 && quo[c+4*nc] != 0 {
			return 0, ErrCorrupt // the pad token must be 0
		}
	}
	pos = bp >> 3
	if bp&7 != 0 {
		if payload[pos]>>(bp&7) != 0 {
			return 0, ErrCorrupt // padding must be zero
		}
		pos++
	}

	// Escape string: the escaped samples are the ones whose quotient is
	// riceEscape, found a word at a time; each reads its field.
	if em := escapeMask(&ks, width, 0); em != 0 {
		acc, nb = 0, 0
		for j := 0; j < n; j += 8 {
			for lanes := nonZeroLanes(binary.LittleEndian.Uint64(quo[j:]) & em); lanes != 0; lanes &= lanes - 1 {
				t := j + bits.TrailingZeros64(lanes)>>3
				k := uint(ks[t&3])
				fw := int(width - k)
				for ; nb < fw; nb += 8 {
					if pos >= len(payload) {
						return 0, ErrTruncated
					}
					acc |= uint64(payload[pos]) << nb
					pos++
				}
				q := riceEscape + uint(acc&(1<<fw-1))
				acc >>= fw
				nb -= fw
				if q > 0xFF>>s>>k {
					return 0, ErrCorrupt // the sample is wider than 8-s bits
				}
				quo[t] = byte(q << k)
			}
		}
		if acc != 0 {
			return 0, ErrCorrupt // padding must be zero
		}
	}

	unpredictBlock(dst, bias, i, end, rowBytes, tag, &rem, (*[blockBytes]byte)(quo[:]))
	return pos, nil
}

// unpredictBlock is the decoder's reconstruction stage, eight lanes at a
// time: sample j's value is rem[j] | quo[j]; undo zig-zag and shift, then
// the prediction, in the domain of the signal x = dst-bias (dst when bias is
// nil), reading the neighbours before the block as the content dst already
// holds minus bias; then add bias back, so dst[i:end] ends as content. H
// runs on the two pixels of a word — the first adds the carried one, the
// second the first — and V then adds the row above in a second pass, in
// order, so a row of this block is final before the row below reads it; in
// the tile's first row V adds the pixel to the left, as H does.
func unpredictBlock(dst, bias []byte, i, end, rowBytes int, tag byte, rem, quo *[blockBytes]byte) {
	s := uint(tag & 7)
	laneMask := uint64(0xFF<<s&0xFF) * swarLo
	up := tag&tagUp != 0
	var leftMask, carry uint64
	if tag&tagLeft != 0 {
		leftMask = ^uint64(0)
		carry = leftCarry(dst, i, rowBytes, up)
		if bias != nil {
			carry = subBytes(carry, leftCarry(bias, i, rowBytes, up))
		}
	}
	blk := dst[i:end]
	n := len(blk)
	var ref []byte // the bias the first pass adds back: all of it, unless V does
	if bias != nil && !up {
		ref = bias[i:end]
	}
	for j := 0; j < n; j += 8 {
		z := binary.LittleEndian.Uint64(rem[j:]) | binary.LittleEndian.Uint64(quo[j:])
		x := unzigzagBytes(z) << s & laneMask
		x = addBytes(x, carry)
		x = addBytes(x, x<<32&leftMask)
		carry = x >> 32 & leftMask
		if j+8 <= n {
			if ref != nil {
				x = addBytes(x, binary.LittleEndian.Uint64(ref[j:]))
			}
			binary.LittleEndian.PutUint64(blk[j:], x)
			continue
		}
		for t := j; t < n; t++ {
			blk[t] = byte(x)
			if ref != nil {
				blk[t] += ref[t]
			}
			x >>= 8
		}
	}
	if !up {
		return
	}
	// The tile's first row predicts from the pixel to its left: the pass
	// undoes H over it with the first pass's two-step carry, then adds the
	// bias.
	j := max(i, rowBytes)
	if i < j {
		stop := min(j, end)
		carry = leftCarry(dst, i, rowBytes, false)
		if bias != nil {
			carry = subBytes(carry, leftCarry(bias, i, rowBytes, false))
		}
		k := i
		for ; k+8 <= stop; k += 8 {
			x := addBytes(binary.LittleEndian.Uint64(dst[k:]), carry)
			x = addBytes(x, x<<32)
			carry = x >> 32
			if bias != nil {
				x = addBytes(x, binary.LittleEndian.Uint64(bias[k:]))
			}
			binary.LittleEndian.PutUint64(dst[k:], x)
		}
		for ; k < stop; k++ { // the row or the block ends inside a word
			v := dst[k] + byte(carry)
			carry = carry>>8 | uint64(v)<<24
			if dst[k] = v; bias != nil {
				dst[k] += bias[k]
			}
		}
	}
	if bias == nil {
		for ; j+8 <= end; j += 8 {
			binary.LittleEndian.PutUint64(dst[j:], addBytes(binary.LittleEndian.Uint64(dst[j:]), binary.LittleEndian.Uint64(dst[j-rowBytes:])))
		}
		for ; j < end; j++ {
			dst[j] += dst[j-rowBytes]
		}
		return
	}
	// Below it, x[j] is the difference plus x[j-rowBytes], the content
	// above minus its bias; then the bias of j comes back.
	for ; j+8 <= end; j += 8 {
		b := subBytes(binary.LittleEndian.Uint64(bias[j:]), binary.LittleEndian.Uint64(bias[j-rowBytes:]))
		x := addBytes(binary.LittleEndian.Uint64(dst[j:]), binary.LittleEndian.Uint64(dst[j-rowBytes:]))
		binary.LittleEndian.PutUint64(dst[j:], addBytes(x, b))
	}
	for ; j < end; j++ {
		dst[j] += dst[j-rowBytes] - bias[j-rowBytes] + bias[j]
	}
}
