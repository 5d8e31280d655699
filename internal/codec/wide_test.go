package codec

import (
	"bytes"
	"math/rand"
	"testing"
)

// The SWAR kernels must agree with the obvious byte loops on every input.
// These differential tests sweep random buffers across the interesting
// lengths (0, sub-word, word-aligned, word+tail) so both the 8-byte body
// and the byte tail of every kernel are exercised.

func randBuf(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

var kernelLens = []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 255}

func TestSubAddBytesAllLanePairs(t *testing.T) {
	// Every (a,b) byte pair in one lane, with noise in the neighbors to
	// catch cross-lane carry/borrow leaks.
	rng := rand.New(rand.NewSource(1))
	for a := 0; a < 256; a += 3 {
		for b := 0; b < 256; b += 3 {
			noise := rng.Uint64()
			lane := uint(8 * rng.Intn(8))
			x := noise&^(uint64(0xFF)<<lane) | uint64(a)<<lane
			y := ^noise&^(uint64(0xFF)<<lane) | uint64(b)<<lane
			sub := subBytes(x, y)
			add := addBytes(x, y)
			for l := uint(0); l < 64; l += 8 {
				xa, yb := byte(x>>l), byte(y>>l)
				if got, want := byte(sub>>l), xa-yb; got != want {
					t.Fatalf("subBytes lane %d: %#x-%#x = %#x, want %#x", l/8, xa, yb, got, want)
				}
				if got, want := byte(add>>l), xa+yb; got != want {
					t.Fatalf("addBytes lane %d: %#x+%#x = %#x, want %#x", l/8, xa, yb, got, want)
				}
			}
		}
	}
}

func TestDeltaAddMaskMatchByteLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range kernelLens {
		a, b := randBuf(rng, n), randBuf(rng, n)

		got := make([]byte, n)
		subInto(got, a, b)
		want := make([]byte, n)
		for i := range want {
			want[i] = a[i] - b[i]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("subInto mismatch at len %d", n)
		}

		// addInto inverts the delta: b + (a-b) == a.
		sum := append([]byte(nil), b...)
		addInto(sum, got)
		if !bytes.Equal(sum, a) {
			t.Fatalf("addInto does not invert the delta at len %d", n)
		}

		for _, mask := range []byte{0x00, 0x80, 0xFC, 0xFF} {
			got := make([]byte, n)
			maskInto(got, a, mask)
			for i := range got {
				if got[i] != a[i]&mask {
					t.Fatalf("maskInto mask %#x len %d: byte %d = %#x, want %#x", mask, n, i, got[i], a[i]&mask)
				}
			}
		}
	}
}

func TestMaskedEqualByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range kernelLens {
		for _, mask := range []byte{0x00, 0x80, 0xF0, 0xFC, 0xFF} {
			a := randBuf(rng, n)
			ref := make([]byte, n)
			maskInto(ref, a, mask)
			if !maskedEqual(a, ref, mask) {
				t.Fatalf("mask %#x len %d: raw pixels do not match their own quantized form", mask, n)
			}
			// Flip one masked-visible bit: must report unequal, at every
			// position (body words and the byte tail both).
			if mask == 0 {
				continue // everything quantizes to zero; nothing is visible
			}
			bit := mask & -mask // lowest set bit survives quantization
			for i := 0; i < n; i++ {
				ref[i] ^= bit
				if maskedEqual(a, ref, mask) {
					t.Fatalf("mask %#x len %d: flip at %d not detected", mask, n, i)
				}
				ref[i] ^= bit
			}
			// Bits below the mask in a must be invisible.
			if inv := ^mask; inv != 0 {
				b := append([]byte(nil), a...)
				for i := range b {
					b[i] ^= inv & byte(rng.Intn(256))
				}
				if !maskedEqual(b, ref, mask) {
					t.Fatalf("mask %#x len %d: sub-quantum noise broke equality", mask, n)
				}
			}
		}
	}
}
