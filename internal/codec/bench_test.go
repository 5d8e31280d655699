package codec

import (
	"fmt"
	"math/rand"
	"testing"
)

// animatedFrames returns n frames of w×h with partial inter-frame change,
// approximating game content (static background + moving regions).
func animatedFrames(w, h, n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	base := make([]byte, w*h*4)
	for i := range base {
		base[i] = byte(rng.Intn(256))
	}
	frames := make([][]byte, n)
	for f := 0; f < n; f++ {
		fr := make([]byte, len(base))
		copy(fr, base)
		// Mutate a moving 10% band of the frame.
		start := (f * len(fr) / n) % len(fr)
		end := start + len(fr)/10
		if end > len(fr) {
			end = len(fr)
		}
		for i := start; i < end; i++ {
			fr[i] = byte(rng.Intn(256))
		}
		frames[f] = fr
	}
	return frames
}

func benchEncode(b *testing.B, w, h int) {
	frames := animatedFrames(w, h, 32)
	enc := NewEncoder(w, h, Options{QuantShift: 2})
	b.SetBytes(int64(w * h * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(enc.Bytes())/float64(enc.Frames())/1024, "KB/frame")
}

func BenchmarkEncode360p(b *testing.B) { benchEncode(b, 640, 360) }
func BenchmarkEncode720p(b *testing.B) { benchEncode(b, 1280, 720) }

// benchEncodeStriped runs the hub's v2 configuration — dirty-tile
// prediction, keyframe striping and the content-addressed tile cache — over
// scrolling content, the profile the codec round-2 work optimizes.
func benchEncodeStriped(b *testing.B, w, h int) {
	frames := animatedFrames(w, h, 8)
	enc := NewEncoder(w, h, Options{
		QuantShift: 2, StripeKeyframes: true, Cache: NewTileCache(0),
	})
	buf := make([]byte, 0, w*h)
	var err error
	for i := 0; i < 3*len(frames); i++ { // warm scratches, reference, cache
		if buf, err = enc.EncodeAppend(buf[:0], frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(w * h * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = enc.EncodeAppend(buf[:0], frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeStriped720p(b *testing.B)  { benchEncodeStriped(b, 1280, 720) }
func BenchmarkEncodeStriped1080p(b *testing.B) { benchEncodeStriped(b, 1920, 1080) }

func BenchmarkDecode360p(b *testing.B) {
	const w, h = 640, 360
	frames := animatedFrames(w, h, 32)
	enc := NewEncoder(w, h, Options{QuantShift: 2})
	var streams [][]byte
	for _, f := range frames {
		bs, err := enc.Encode(f)
		if err != nil {
			b.Fatal(err)
		}
		streams = append(streams, bs)
	}
	dec := NewDecoder()
	b.SetBytes(int64(w * h * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(streams[i%len(streams)]); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleEncoder() {
	enc := NewEncoder(2, 2, Options{QuantShift: 0})
	dec := NewDecoder()
	frame := []byte{
		255, 0, 0, 255, 0, 255, 0, 255,
		0, 0, 255, 255, 255, 255, 255, 255,
	}
	bs, _ := enc.Encode(frame)
	out, _ := dec.Decode(bs)
	fmt.Println(len(out), out[0], out[4])
	// Output: 16 255 0
}
