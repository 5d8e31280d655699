package codec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func genFrame(w, h int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	pix := make([]byte, w*h*4)
	for i := range pix {
		pix[i] = byte(rng.Intn(256))
	}
	return pix
}

func quantized(pix []byte, shift uint) []byte {
	out := make([]byte, len(pix))
	mask := byte(0xFF) << shift
	for i, v := range pix {
		out[i] = v & mask
	}
	return out
}

func TestRoundTripLossless(t *testing.T) {
	enc := NewEncoder(16, 8, Options{QuantShift: 0})
	dec := NewDecoder()
	for i := int64(0); i < 5; i++ {
		pix := genFrame(16, 8, i)
		bs, err := enc.Encode(pix)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(bs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pix) {
			t.Fatalf("frame %d: lossless round trip mismatch", i)
		}
	}
}

func TestRoundTripQuantized(t *testing.T) {
	const shift = 3
	enc := NewEncoder(8, 8, Options{QuantShift: shift})
	dec := NewDecoder()
	for i := int64(0); i < 10; i++ {
		pix := genFrame(8, 8, i)
		bs, err := enc.Encode(pix)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(bs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, quantized(pix, shift)) {
			t.Fatalf("frame %d: quantized round trip mismatch", i)
		}
	}
}

func TestStaticSceneCompressesAway(t *testing.T) {
	enc := NewEncoder(64, 64, Options{QuantShift: 2})
	pix := genFrame(64, 64, 1)
	first, err := enc.Encode(pix)
	if err != nil {
		t.Fatal(err)
	}
	second, err := enc.Encode(pix) // identical frame -> all-zero delta
	if err != nil {
		t.Fatal(err)
	}
	if len(second) > len(first)/50 {
		t.Fatalf("static delta frame is %d bytes (key %d); expected tiny", len(second), len(first))
	}
}

// frameType returns the frame-type byte of a bitstream.
func frameType(bs []byte) byte { return bs[2] }

func TestKeyframeInterval(t *testing.T) {
	enc := NewEncoder(4, 4, Options{KeyInterval: 3, QuantShift: 0})
	var types []byte
	for i := int64(0); i < 7; i++ {
		bs, err := enc.Encode(genFrame(4, 4, i))
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, frameType(bs))
	}
	want := []byte{frameKey, frameDelta, frameDelta, frameKey, frameDelta, frameDelta, frameKey}
	if !bytes.Equal(types, want) {
		t.Fatalf("frame types = %v, want %v", types, want)
	}
}

func TestForceKeyframe(t *testing.T) {
	enc := NewEncoder(4, 4, Options{})
	if _, err := enc.Encode(genFrame(4, 4, 1)); err != nil {
		t.Fatal(err)
	}
	enc.ForceKeyframe()
	bs, err := enc.Encode(genFrame(4, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if frameType(bs) != frameKey {
		t.Fatal("ForceKeyframe did not produce a keyframe")
	}
}

func TestDecoderStartsMidStreamFails(t *testing.T) {
	enc := NewEncoder(4, 4, Options{})
	if _, err := enc.Encode(genFrame(4, 4, 1)); err != nil {
		t.Fatal(err)
	}
	delta, err := enc.Encode(genFrame(4, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	if _, err := dec.Decode(delta); err != ErrNoKeyframe {
		t.Fatalf("err = %v, want ErrNoKeyframe", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	enc := NewEncoder(4, 4, Options{})
	bs, err := enc.Encode(genFrame(4, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		bs   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short", bs[:5], ErrTruncated},
		{"badmagic", append([]byte{0x00}, bs[1:]...), ErrBadMagic},
		{"truncated payload", bs[:len(bs)-3], nil}, // any error is fine
	}
	for _, c := range cases {
		dec := NewDecoder()
		_, err := dec.Decode(c.bs)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if c.want != nil && err != c.want {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// formerV1Frames are frames of the deleted v1 byte stream (magic 0xD3, then
// type, quant shift, width, height, zero-run-coded body): a 2x1 key frame of
// one literal run, its all-zero delta, an empty band-mode frame and a bare
// 8x8 delta header. A peer built before the deletion can still send them.
var formerV1Frames = [][]byte{
	{0xD3, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0x01, 8, 1, 2, 3, 4, 5, 6, 7, 8},
	{0xD3, 1, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0x00, 8},
	{0xD3, 2, 0, 2, 0, 0, 0, 1, 0, 0, 0, 16, 0},
	{0xD3, 1, 0, 8, 0, 0, 0, 8, 0, 0, 0},
}

// TestFormerV1FramesRejected: the decoder refuses the old stream by its
// first byte, before and after it holds a reference frame.
func TestFormerV1FramesRejected(t *testing.T) {
	enc := NewEncoder(2, 1, Options{})
	key, err := enc.Encode(genFrame(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	primed := NewDecoder()
	if _, err := primed.Decode(key); err != nil {
		t.Fatal(err)
	}
	for i, bs := range formerV1Frames {
		if IsKeyframe(bs) {
			t.Errorf("frame %d: IsKeyframe = true for a 0xD3 frame", i)
		}
		for _, dec := range []*Decoder{NewDecoder(), primed} {
			if _, err := dec.Decode(bs); err != ErrBadMagic {
				t.Errorf("frame %d: err = %v, want ErrBadMagic", i, err)
			}
		}
	}
}

func TestDimensionChangeRejected(t *testing.T) {
	encA := NewEncoder(4, 4, Options{})
	encB := NewEncoder(8, 8, Options{})
	dec := NewDecoder()
	bsA, _ := encA.Encode(genFrame(4, 4, 1))
	bsB, _ := encB.Encode(genFrame(8, 8, 2))
	if _, err := dec.Decode(bsA); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(bsB); err != ErrDimensions {
		t.Fatalf("err = %v, want ErrDimensions", err)
	}
}

func TestEncodeWrongSizeRejected(t *testing.T) {
	enc := NewEncoder(4, 4, Options{})
	if _, err := enc.Encode(make([]byte, 7)); err == nil {
		t.Fatal("expected size error")
	}
}

func TestStatsAccumulate(t *testing.T) {
	enc := NewEncoder(4, 4, Options{})
	total := 0
	for i := int64(0); i < 3; i++ {
		bs, err := enc.Encode(genFrame(4, 4, i))
		if err != nil {
			t.Fatal(err)
		}
		total += len(bs)
	}
	if enc.Frames() != 3 || enc.Bytes() != int64(total) {
		t.Fatalf("stats = %d frames / %d bytes, want 3 / %d", enc.Frames(), enc.Bytes(), total)
	}
}

// Property: decoding never panics on arbitrary input, and a full
// encode/decode round trip over random frame sequences reconstructs the
// quantized source.
func TestStreamRoundTripProperty(t *testing.T) {
	f := func(seeds []int64, shift uint8) bool {
		s := uint(shift % 8)
		enc := NewEncoder(8, 4, Options{QuantShift: s, KeyInterval: 4})
		dec := NewDecoder()
		if len(seeds) > 12 {
			seeds = seeds[:12]
		}
		for _, seed := range seeds {
			pix := genFrame(8, 4, seed)
			bs, err := enc.Encode(pix)
			if err != nil {
				return false
			}
			got, err := dec.Decode(bs)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, quantized(pix, s)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dec := NewDecoder()
	for i := 0; i < 2000; i++ {
		n := rng.Intn(64)
		junk := make([]byte, n)
		for j := range junk {
			junk[j] = byte(rng.Intn(256))
		}
		// Must not panic; errors are expected.
		_, _ = dec.Decode(junk)
	}
}
