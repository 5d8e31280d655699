package codec

// The tile payload coder: a block-wise, predictive Golomb-Rice residual
// coder. Every payload producer in the package — delta tiles (the byte-wise
// temporal delta image), key/stripe tiles and splice cuts (absolute
// content) — hands its bytes to appendPayload, and decodeTile hands the
// payload to decodePayload; there is no other entropy stage.
//
// The payload is a pure, self-describing function of the source bytes:
// blocks are cut by byte count from the start of the tile (never by row
// width), and everything the decoder needs — prediction mode, the common
// power-of-two factor of the block (what quantization leaves behind), the
// per-channel Rice parameters — is derived from the bytes themselves and
// recorded in the block header. That is what lets TileCache key payloads by
// content alone and keeps a splice byte-identical to a private encoder.
//
// Layout: the source is cut into blockBytes-byte blocks (the last may be
// short; the decoder derives the block count from the tile size, so no
// count or length is stored). Each block starts on a byte boundary with a
// tag byte:
//
//	bits 0-2  shift s: every coded byte of the block is a multiple of 2^s
//	bit  3    pred: residuals are src[i]-src[i-4] (same channel, previous
//	          pixel; bytes before the tile start count as 0) instead of src[i]
//	bits 4-5  block type; bits 6-7 must be zero
//
//	type 0 (rice):  two bytes follow holding four 4-bit parameters, channel
//	    c = byte index mod 4 in bits 4c..4c+3 (little-endian). Parameter
//	    k < 8-s is a Rice parameter; 8-s codes the channel verbatim in 8-s
//	    bits per sample; 15 means every residual of the channel is zero and
//	    the channel costs no bits at all (alpha, static stretches inside a
//	    changed block). Then the body, below.
//	type 1 (zeros): s and pred must be 0; a uvarint n >= 1 follows and the
//	    next n blocks are all zero — a clean region of any length costs
//	    one tag and one varint, like the zero-run token it replaces.
//	type 2 (raw):   s and pred must be 0; the block's bytes follow verbatim.
//
// A sample is coded as v = zigzag(int8(residual) >> s), split Rice-fashion
// into a quotient q = v>>k and the k remainder bits. The body of a rice
// block keeps the two apart, because fixed-width fields and a unary bit
// vector each decode without the serial shift-by-what-I-just-read chain of
// an interleaved Rice stream:
//
//	remainder string: channel by channel (0..3), sample by sample, the low
//	    k bits of v (all 8-s bits for a verbatim channel), packed
//	    LSB-first; zero-padded to a byte boundary.
//	unary string: channel by channel, rice channels only, sample by
//	    sample, q zero bits and a one bit, packed LSB-first; zero-padded
//	    to a byte boundary.
//
// Worst case: the encoder's size estimate for a rice block is an upper
// bound (a sum of floors is at most the floor of the sum), and a block
// whose bound does not fit in its own length goes out raw, so a payload
// never exceeds len(src) + ceil(len(src)/blockBytes) bytes — raw plus one
// tag byte per block (0.4 %).

import (
	"encoding/binary"
	"math/bits"
)

const (
	// blockBytes is the coding block: 64 RGBA pixels. Small enough that the
	// per-channel parameters track local statistics, large enough that the
	// 3-byte rice header stays a few percent of a well-compressed block.
	blockBytes = 256

	blockRice  = 0
	blockZeros = 1
	blockRaw   = 2

	tagPred = 0x08

	// kZero marks a channel whose residuals are all zero.
	kZero = 15

	// riceOverhead is what a rice block spends beyond its estimated body
	// bits: tag, parameters and the two paddings.
	riceOverhead = 5

	// payloadSlack is the headroom past the worst-case payload that lets
	// the bit writers store whole words.
	payloadSlack = 16
)

// maxPayloadLen returns the payload worst case for n source bytes.
func maxPayloadLen(n int) int { return n + (n+blockBytes-1)/blockBytes }

// blockStat is what one analysis pass over a block yields for both
// prediction modes: the OR of the coded bytes (for the shift) and the
// per-channel sums of their zig-zag magnitudes (for the Rice parameters).
type blockStat struct {
	or  [2]byte
	sum [2][4]uint32
}

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

// blockStats analyses src[i:end] (i a multiple of 4, end-i <= blockBytes)
// for both prediction modes in one pass, eight byte lanes at a time. The
// 16-bit lane accumulators cannot overflow: a block feeds each lane at
// most blockBytes/8 values of at most 255.
func blockStats(src []byte, i, end int) (st blockStat) {
	const lo16 = 0x00FF00FF00FF00FF
	var carry uint64 // the four bytes before the cursor, in the low lanes
	if i >= 4 {
		carry = uint64(binary.LittleEndian.Uint32(src[i-4:]))
	}
	var or0, or1, e0, o0, e1, o1 uint64
	for ; i+8 <= end; i += 8 {
		x := binary.LittleEndian.Uint64(src[i:])
		r := subBytes(x, x<<32|carry)
		carry = x >> 32
		or0 |= x
		or1 |= r
		z := zigzagBytes(x)
		e0 += z & lo16
		o0 += z >> 8 & lo16
		z = zigzagBytes(r)
		e1 += z & lo16
		o1 += z >> 8 & lo16
	}
	st.or = [2]byte{foldOr(or0), foldOr(or1)}
	st.sum = [2][4]uint32{laneSums(e0, o0), laneSums(e1, o1)}
	for ; i < end; i++ { // short last block only
		x := src[i]
		r := x
		if i >= 4 {
			r -= src[i-4]
		}
		st.or[0] |= x
		st.or[1] |= r
		st.sum[0][i&3] += uint32(zigzag(x))
		st.sum[1][i&3] += uint32(zigzag(r))
	}
	return st
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

// riceParams picks the shift and the four channel parameters for one
// prediction mode of a block and returns them with the estimated body size
// in bits. n is the block length in bytes. The parameter comes straight
// from the channel's mean magnitude — the k that minimises the estimate
// n*(k+1) + sum>>k among the two candidates around log2(mean) — never from
// trial coding.
func riceParams(or byte, sum *[4]uint32, n int) (s uint, ks [4]uint8, estBits int) {
	if or == 0 {
		return 0, [4]uint8{kZero, kZero, kZero, kZero}, 0
	}
	s = uint(bits.TrailingZeros8(or))
	width := 8 - s // bits of a verbatim sample
	for c := 0; c < 4; c++ {
		if sum[c] == 0 {
			ks[c] = kZero
			continue
		}
		nc := (n - c + 3) / 4
		// Magnitudes shrink by 2^s when the common factor is divided out
		// (negative residuals round by at most one; the estimate does not
		// care).
		m := int(sum[c] >> s)
		k := uint(bits.Len(uint(m/nc+1))) - 1 // floor(log2(mean+1))
		cost := nc*(int(k)+1) + m>>k
		if k > 0 {
			if alt := nc*int(k) + m>>(k-1); alt < cost {
				k, cost = k-1, alt
			}
		}
		if raw := nc * int(width); cost >= raw || k >= width {
			k, cost = width, raw
		}
		ks[c] = uint8(k)
		estBits += cost
	}
	return s, ks, estBits
}

// appendPayload appends the coded form of src to dst and returns the
// extended slice. It allocates only when dst lacks the capacity for the
// worst case plus emitter slack.
func appendPayload(dst, src []byte) []byte {
	pos := len(dst)
	if need := pos + maxPayloadLen(len(src)) + payloadSlack; cap(dst) < need {
		grown := make([]byte, need)
		copy(grown, dst)
		dst = grown
	}
	out := dst[:cap(dst)]
	for i := 0; i < len(src); {
		end := min(i+blockBytes, len(src))
		if allZero(src[i:end]) {
			run := 1
			for end < len(src) {
				next := min(end+blockBytes, len(src))
				if !allZero(src[end:next]) {
					break
				}
				run++
				end = next
			}
			out[pos] = blockZeros << 4
			pos++
			pos += binary.PutUvarint(out[pos:], uint64(run))
			i = end
			continue
		}
		st := blockStats(src, i, end)
		n := end - i
		s, ks, est := riceParams(st.or[0], &st.sum[0], n)
		tag := byte(blockRice << 4)
		if s1, ks1, est1 := riceParams(st.or[1], &st.sum[1], n); est1 < est {
			s, ks, est = s1, ks1, est1
			tag |= tagPred
		}
		if est+8*riceOverhead <= 8*n {
			pos = appendRiceBlock(out, pos, src, i, end, tag|byte(s), &ks)
		} else {
			out[pos] = blockRaw << 4
			pos += 1 + copy(out[pos+1:], src[i:end])
		}
		i = end
	}
	return out[:pos]
}

// loadTail loads the len(b) < 8 bytes of b into the low lanes of a word.
func loadTail(b []byte) (x uint64) {
	for j, v := range b {
		x |= uint64(v) << (8 * uint(j))
	}
	return x
}

// appendRiceBlock writes one rice block (header tag, ks) for src[i:end] at
// out[pos:] and returns the position after it. out has payloadSlack bytes
// of headroom past anything the block can need, so the bit writers store
// whole words without bounds arithmetic.
func appendRiceBlock(out []byte, pos int, src []byte, i, end int, tag byte, ks *[4]uint8) int {
	out[pos] = tag
	out[pos+1] = ks[0] | ks[1]<<4
	out[pos+2] = ks[2] | ks[3]<<4
	pos += 3
	s := uint(tag & 7)
	width := 8 - s
	n := end - i

	// Residual stage, eight lanes at a time: predict, zig-zag, divide out
	// the common factor. zz[j] is sample j's value v.
	var zz [blockBytes]byte
	laneMask := uint64(0xFF>>s) * swarLo
	var predMask, carry uint64
	if tag&tagPred != 0 {
		predMask = ^uint64(0)
		if i >= 4 {
			carry = uint64(binary.LittleEndian.Uint32(src[i-4:]))
		}
	}
	for j := 0; j < n; j += 8 {
		var x uint64
		if i+j+8 <= end {
			x = binary.LittleEndian.Uint64(src[i+j:])
		} else {
			x = loadTail(src[i+j : end])
		}
		z := zigzagBytes(subBytes(x, (x<<32|carry)&predMask)) >> s & laneMask
		carry = x >> 32
		binary.LittleEndian.PutUint64(zz[j:], z)
	}

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
				acc |= uint64(zz[j]&m) << (nb & 63)
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

	// Unary string: the cursor skips q bits and sets one.
	acc, nb = 0, 0
	for c, k8 := range ks {
		k := uint(k8)
		if k >= width { // all-zero or verbatim: no quotients
			continue
		}
		for j := c; j < n; j += 4 {
			for nb += uint(zz[j] >> k); nb >= 64; nb -= 64 {
				binary.LittleEndian.PutUint64(out[pos:], acc)
				pos += 8
				acc = 0
			}
			acc |= 1 << nb
			nb++
		}
	}
	binary.LittleEndian.PutUint64(out[pos:], acc)
	return pos + int(nb+7)>>3
}

// decodePayload expands a payload into exactly len(dst) bytes. It never
// allocates and never reads outside payload or writes outside dst: every
// declared size is checked against the bytes and the space actually left
// before it is acted on, and the sample loops are bounded by the block
// size, not by anything the payload says.
func decodePayload(dst, payload []byte) error {
	pos := 0
	for i := 0; i < len(dst); {
		if pos >= len(payload) {
			return ErrTruncated
		}
		tag := payload[pos]
		pos++
		end := min(i+blockBytes, len(dst))
		switch {
		case tag == blockZeros<<4:
			n, used := binary.Uvarint(payload[pos:])
			if used == 0 {
				return ErrTruncated
			}
			left := (len(dst) - i + blockBytes - 1) / blockBytes
			if used < 0 || n == 0 || n > uint64(left) {
				return ErrCorrupt
			}
			pos += used
			end = min(i+int(n)*blockBytes, len(dst))
			clear(dst[i:end])
		case tag == blockRaw<<4:
			if len(payload)-pos < end-i {
				return ErrTruncated
			}
			pos += copy(dst[i:end], payload[pos:])
		case tag>>4 == blockRice:
			var err error
			if pos, err = decodeRiceBlock(dst, i, end, payload, pos, tag); err != nil {
				return err
			}
		default:
			return ErrCorrupt
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

// decodeRiceBlock decodes one rice block (tag already consumed, parameters
// at payload[pos:]) into dst[i:end] and returns the position after it.
func decodeRiceBlock(dst []byte, i, end int, payload []byte, pos int, tag byte) (int, error) {
	if len(payload)-pos < 2 {
		return 0, ErrTruncated
	}
	s := uint(tag & 7)
	width := 8 - s
	ks := [4]uint{
		uint(payload[pos] & 15), uint(payload[pos] >> 4),
		uint(payload[pos+1] & 15), uint(payload[pos+1] >> 4),
	}
	for _, k := range ks {
		if k > width && k != kZero {
			return 0, ErrCorrupt
		}
	}
	pos += 2
	n := end - i
	// Sample j's value is rem[j] | quo[j]: the two strings fill one array
	// each, so neither loop reads what the other wrote.
	var rem, quo [blockBytes]byte

	// Remainder string: fixed-width fields, a word's worth per refill.
	// Bits past the end of the payload read as zeros and drive nb negative,
	// which is reported once the string is done.
	var acc uint64
	nb := 0 // valid bits in acc
	for c, k := range ks {
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

	// Unary string: every one bit ends a quotient. Clearing the lowest set
	// bit is the only loop-carried step; its position is read off the side.
	var w uint64 // the current word's one bits not yet taken
	wbits := 0   // bits the current word holds
	// off is the position after the last one taken, in the current word's
	// coordinates: negative by the zero bits that ended the words before.
	off := 0
	for c, k := range ks {
		if k >= width {
			continue
		}
		limit := int(0xFF>>s) >> k // the largest quotient a sample can have
		for j := c; j < n; j += 4 {
			for w == 0 {
				off -= wbits
				if pos >= len(payload) {
					return 0, ErrTruncated
				}
				if -off > limit {
					return 0, ErrCorrupt
				}
				if pos+8 <= len(payload) {
					w, wbits = binary.LittleEndian.Uint64(payload[pos:]), 64
				} else {
					w, wbits = loadTail(payload[pos:]), 8*(len(payload)-pos)
				}
				pos += wbits >> 3
			}
			t := bits.TrailingZeros64(w)
			q := t - off
			if q > limit {
				return 0, ErrCorrupt
			}
			off = t + 1
			w &= w - 1
			quo[j] = byte(q << k)
		}
	}
	if wbits > 0 {
		// The string ends inside the current word: the rest of its last
		// byte is padding and must be zero, the bytes after it belong to
		// the next block.
		used := (off + 7) >> 3
		if w<<(64-8*uint(used)) != 0 {
			return 0, ErrCorrupt
		}
		pos -= wbits>>3 - used
	}

	// Reconstruction stage, eight lanes at a time: undo zig-zag and shift,
	// then run the prediction — the first pixel of a word adds the carried
	// one, the second adds the first.
	laneMask := uint64(0xFF<<s&0xFF) * swarLo
	var predMask, carry, wide uint64
	if tag&tagPred != 0 {
		predMask = ^uint64(0)
		if i >= 4 {
			carry = uint64(binary.LittleEndian.Uint32(dst[i-4:]))
		}
	}
	for j := 0; j < n; j += 8 {
		z := binary.LittleEndian.Uint64(rem[j:]) | binary.LittleEndian.Uint64(quo[j:])
		wide |= z
		x := unzigzagBytes(z) << s & laneMask
		x = addBytes(x, carry)
		x = addBytes(x, x<<32&predMask)
		carry = x >> 32 & predMask
		if j+8 <= n {
			binary.LittleEndian.PutUint64(dst[i+j:], x)
			continue
		}
		for t := j; t < n; t++ {
			dst[i+t] = byte(x)
			x >>= 8
		}
	}
	if wide&^(uint64(0xFF>>s)*swarLo) != 0 {
		return 0, ErrCorrupt // no (8-s)-bit sample codes to this
	}
	return pos, nil
}
