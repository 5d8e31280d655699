package codec

import (
	"bytes"
	"encoding/binary"
)

// Word-wide (SWAR) kernels for the frame hot path. The codec's inner loops
// — quantization, temporal delta, delta application, and (payload.go) the
// residual, zig-zag and magnitude-sum passes of the payload coder — are
// all independent per byte, so they run eight lanes at a time in a uint64
// with the classic carry-isolation tricks (Hacker's Delight §2-18).
// binary.LittleEndian loads compile to single unaligned MOVs on the
// platforms we care about, so this stays portable safe Go.
//
// Every kernel is paired with a byte-at-a-time tail and a differential
// test pinning kernel == byte loop (wide_test.go, payload_test.go).

const (
	swarLo uint64 = 0x0101010101010101 // low bit of every byte lane
	swarHi uint64 = 0x8080808080808080 // high bit of every byte lane
)

// subBytes returns the lane-wise byte subtraction a-b (mod 256), with
// borrows confined to their lanes.
func subBytes(a, b uint64) uint64 {
	return ((a | swarHi) - (b &^ swarHi)) ^ ((a ^ ^b) & swarHi)
}

// addBytes returns the lane-wise byte addition a+b (mod 256), with carries
// confined to their lanes.
func addBytes(a, b uint64) uint64 {
	return ((a &^ swarHi) + (b &^ swarHi)) ^ ((a ^ b) & swarHi)
}

// addInto computes dst[i] += src[i] byte-wise (delta application).
func addInto(dst, src []byte) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(dst[i:])
		y := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], addBytes(x, y))
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// maskInto computes dst[i] = src[i] & mask byte-wise (quantization).
func maskInto(dst, src []byte, mask byte) {
	m := uint64(mask) * swarLo
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(src[i:])&m)
	}
	for ; i < n; i++ {
		dst[i] = src[i] & mask
	}
}

// subInto computes dst[i] = a[i] - b[i] byte-wise: the temporal delta a
// delta tile's blocks are planned on.
func subInto(dst, a, b []byte) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(a[i:])
		y := binary.LittleEndian.Uint64(b[i:])
		binary.LittleEndian.PutUint64(dst[i:], subBytes(x, y))
	}
	for ; i < n; i++ {
		dst[i] = a[i] - b[i]
	}
}

// maskedEqual reports whether a, masked byte-wise with mask, equals ref.
// ref is expected to be pre-masked (a quantized reference frame), so the
// comparison fuses quantization into the equality probe: the dirty-tile
// pre-pass classifies a tile without materializing its quantized content.
// The scan is read-only and exits on the first differing word, so dynamic
// content costs a few bytes, not a tile.
func maskedEqual(a, ref []byte, mask byte) bool {
	if mask == 0xFF {
		// No quantization: plain memory equality, which the runtime
		// vectorizes far wider than any scalar loop.
		return bytes.Equal(a, ref)
	}
	m := uint64(mask) * swarLo
	n := len(a)
	i := 0
	// Four independent compares per iteration: the loads have no
	// cross-iteration dependency, so they pipeline, and the combined OR
	// fails the whole 32-byte block with one branch.
	for ; i+32 <= n; i += 32 {
		x0 := binary.LittleEndian.Uint64(a[i:])&m ^ binary.LittleEndian.Uint64(ref[i:])
		x1 := binary.LittleEndian.Uint64(a[i+8:])&m ^ binary.LittleEndian.Uint64(ref[i+8:])
		x2 := binary.LittleEndian.Uint64(a[i+16:])&m ^ binary.LittleEndian.Uint64(ref[i+16:])
		x3 := binary.LittleEndian.Uint64(a[i+24:])&m ^ binary.LittleEndian.Uint64(ref[i+24:])
		if x0|x1|x2|x3 != 0 {
			return false
		}
	}
	for ; i+8 <= n; i += 8 {
		if binary.LittleEndian.Uint64(a[i:])&m != binary.LittleEndian.Uint64(ref[i:]) {
			return false
		}
	}
	for ; i < n; i++ {
		if a[i]&mask != ref[i] {
			return false
		}
	}
	return true
}
