package codec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBandsRoundTrip(t *testing.T) {
	const w, h = 32, 40 // 2.5 bands
	enc := NewEncoder(w, h, Options{QuantShift: 2, Bands: true})
	dec := NewDecoder()
	for i := int64(0); i < 8; i++ {
		pix := genFrame(w, h, i)
		bs, err := enc.Encode(pix)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(bs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, quantized(pix, 2)) {
			t.Fatalf("frame %d: band round trip mismatch", i)
		}
	}
}

func TestBandsPartialChangeRoundTrip(t *testing.T) {
	const w, h = 16, 64
	enc := NewEncoder(w, h, Options{QuantShift: 0, Bands: true})
	dec := NewDecoder()
	base := genFrame(w, h, 1)
	bs, err := enc.Encode(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(bs); err != nil {
		t.Fatal(err)
	}
	// Change only rows 20-23 (band 1 of 4).
	mod := append([]byte(nil), base...)
	for i := 20 * w * 4; i < 24*w*4; i++ {
		mod[i] ^= 0xFF
	}
	bs, err = enc.Encode(mod)
	if err != nil {
		t.Fatal(err)
	}
	if bs[1] != frameBands {
		t.Fatalf("frame type = %d, want bands", bs[1])
	}
	got, err := dec.Decode(bs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mod) {
		t.Fatal("partial-change round trip mismatch")
	}
}

func TestBandsStaticFrameIsTiny(t *testing.T) {
	const w, h = 64, 64
	enc := NewEncoder(w, h, Options{QuantShift: 2, Bands: true})
	pix := genFrame(w, h, 3)
	if _, err := enc.Encode(pix); err != nil {
		t.Fatal(err)
	}
	bs, err := enc.Encode(pix)
	if err != nil {
		t.Fatal(err)
	}
	// Header + band header only: no band changed.
	if len(bs) > headerLen+8 {
		t.Fatalf("static band frame is %d bytes", len(bs))
	}
}

func TestBandsSmallerOrSimilarToDelta(t *testing.T) {
	// Partially-changing content: bands must not be much larger than plain
	// delta coding (a few bytes of band headers).
	const w, h = 64, 128
	plain := NewEncoder(w, h, Options{QuantShift: 2, Version: 1})
	banded := NewEncoder(w, h, Options{QuantShift: 2, Bands: true})
	rng := rand.New(rand.NewSource(5))
	base := genFrame(w, h, 5)
	cur := append([]byte(nil), base...)
	_, _ = plain.Encode(cur)
	_, _ = banded.Encode(cur)
	var plainBytes, bandBytes int
	for f := 0; f < 10; f++ {
		// Mutate one random 8-row region.
		y := rng.Intn(h - 8)
		for i := y * w * 4; i < (y+8)*w*4; i++ {
			cur[i] = byte(rng.Intn(256))
		}
		pb, err := plain.Encode(cur)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := banded.Encode(cur)
		if err != nil {
			t.Fatal(err)
		}
		plainBytes += len(pb)
		bandBytes += len(bb)
	}
	if float64(bandBytes) > float64(plainBytes)*1.1 {
		t.Fatalf("band coding inflated size: %d vs %d", bandBytes, plainBytes)
	}
}

func TestBandsDecodeErrors(t *testing.T) {
	const w, h = 16, 32
	enc := NewEncoder(w, h, Options{Bands: true})
	dec := NewDecoder()
	key, _ := enc.Encode(genFrame(w, h, 1))
	if _, err := dec.Decode(key); err != nil {
		t.Fatal(err)
	}
	bandFrame, _ := enc.Encode(genFrame(w, h, 2))
	if bandFrame[1] != frameBands {
		t.Fatalf("expected band frame")
	}
	// Truncations and corruptions must error, not panic.
	for cut := headerLen; cut < len(bandFrame); cut += 7 {
		if _, err := dec.Decode(bandFrame[:cut]); err == nil {
			// Re-sync the decoder state for the next attempt.
			t.Fatalf("truncated band frame at %d accepted", cut)
		}
	}
	// Band frame before a keyframe.
	fresh := NewDecoder()
	if _, err := fresh.Decode(bandFrame); err != ErrNoKeyframe {
		t.Fatalf("err = %v, want ErrNoKeyframe", err)
	}
}

// Property: band round trips reconstruct the quantized source for random
// frame sequences and sizes.
func TestBandsRoundTripProperty(t *testing.T) {
	f := func(seeds []int64, wsel, hsel uint8) bool {
		w := 4 + int(wsel%5)*4 // 4..20
		h := 8 + int(hsel%7)*8 // 8..56 (spans partial bands)
		enc := NewEncoder(w, h, Options{QuantShift: 1, Bands: true, KeyInterval: 5})
		dec := NewDecoder()
		if len(seeds) > 12 {
			seeds = seeds[:12]
		}
		for _, seed := range seeds {
			pix := genFrame(w, h, seed)
			bs, err := enc.Encode(pix)
			if err != nil {
				return false
			}
			got, err := dec.Decode(bs)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, quantized(pix, 1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEncodeBandsStatic shows the win band mode exists for: mostly
// static frames with a small moving region.
func BenchmarkEncodeBandsStatic(b *testing.B) {
	benchEncodeMode(b, true)
}

func BenchmarkEncodePlainStatic(b *testing.B) {
	benchEncodeMode(b, false)
}

func benchEncodeMode(b *testing.B, bands bool) {
	const w, h = 640, 360
	enc := NewEncoder(w, h, Options{QuantShift: 2, Bands: bands, KeyInterval: 1 << 30})
	base := genFrame(w, h, 1)
	if _, err := enc.Encode(base); err != nil {
		b.Fatal(err)
	}
	cur := append([]byte(nil), base...)
	rng := rand.New(rand.NewSource(2))
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A 16-row sliver moves each frame; the rest is static.
		y := (i * 16) % (h - 16)
		for j := y * w * 4; j < (y+16)*w*4; j++ {
			cur[j] = byte(rng.Intn(256))
		}
		if _, err := enc.Encode(cur); err != nil {
			b.Fatal(err)
		}
	}
}
