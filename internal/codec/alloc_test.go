package codec

import "testing"

// The frame hot path must not allocate in steady state: EncodeAppend writes
// into a caller-recycled buffer and the encoder's scratches, and Decode
// reuses the decoder's two persistent buffers. These tests pin that down so
// a regression fails loudly instead of showing up as GC pressure in the
// streaming stack.

func TestEncodeAppendSteadyStateAllocs(t *testing.T) {
	const w, h = 320, 180
	frames := animatedFrames(w, h, 8)
	enc := NewEncoder(w, h, Options{QuantShift: 2})
	buf := make([]byte, 0, 2*w*h*4)
	var err error
	// Warm up the encoder scratches (first frames grow them).
	for _, f := range frames {
		if buf, err = enc.EncodeAppend(buf[:0], f); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if buf, err = enc.EncodeAppend(buf[:0], frames[i%len(frames)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 0 {
		t.Errorf("EncodeAppend allocates %.1f objects/frame in steady state, want 0", allocs)
	}
}

// TestPrePassSteadyStateAllocs pins the dirty-tile prediction fast path:
// a static frame is classified clean by the read-only pre-pass and encodes
// header+directory only, with zero allocations and zero pool dispatch.
func TestPrePassSteadyStateAllocs(t *testing.T) {
	const w, h = 320, 180
	static := animatedFrames(w, h, 1)[0]
	enc := NewEncoder(w, h, Options{QuantShift: 2, KeyInterval: 1 << 30})
	buf := make([]byte, 0, 2*w*h*4)
	var err error
	for i := 0; i < 3; i++ {
		if buf, err = enc.EncodeAppend(buf[:0], static); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if buf, err = enc.EncodeAppend(buf[:0], static); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("pre-pass encode allocates %.1f objects/frame on static content, want 0", allocs)
	}
	if tiles, dirty := enc.TileStats(); dirty != 0 || tiles == 0 {
		t.Errorf("static frame reported %d/%d dirty tiles, want 0 dirty", dirty, tiles)
	}
}

// TestCacheHitSteadyStateAllocs pins the cache-hit path: with striping on
// static content, every coded tile is a stripe refresh served from the
// cache — lookup, LRU touch and payload aliasing must all be free.
func TestCacheHitSteadyStateAllocs(t *testing.T) {
	const w, h, keyInt = 320, 64, 4 // 4 tiles: one stripe refresh per frame
	static := animatedFrames(w, h, 1)[0]
	cache := NewTileCache(0)
	enc := NewEncoder(w, h, Options{QuantShift: 2, KeyInterval: keyInt, StripeKeyframes: true, Cache: cache})
	buf := make([]byte, 0, 2*w*h*4)
	var err error
	// Three stripe cycles: sighting, admission, first hit for every tile.
	for i := 0; i < 3*keyInt+1; i++ {
		if buf, err = enc.EncodeAppend(buf[:0], static); err != nil {
			t.Fatal(err)
		}
	}
	h0, _, _ := cache.Stats()
	allocs := testing.AllocsPerRun(200, func() {
		if buf, err = enc.EncodeAppend(buf[:0], static); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("cache-hit encode allocates %.1f objects/frame, want 0", allocs)
	}
	h1, m1, _ := cache.Stats()
	if h1 <= h0 {
		t.Fatalf("steady state produced no cache hits (hits %d -> %d, misses %d)", h0, h1, m1)
	}
}

func TestDecodeSteadyStateAllocs(t *testing.T) {
	const w, h = 320, 180
	frames := animatedFrames(w, h, 8)
	enc := NewEncoder(w, h, Options{QuantShift: 2})
	var streams [][]byte
	for _, f := range frames {
		bs, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, bs)
	}
	dec := NewDecoder()
	for _, bs := range streams {
		if _, err := dec.Decode(bs); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := dec.Decode(streams[i%len(streams)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 0 {
		t.Errorf("Decode allocates %.1f objects/frame in steady state, want 0", allocs)
	}
}

func benchEncodeAppend(b *testing.B, w, h int) {
	frames := animatedFrames(w, h, 32)
	enc := NewEncoder(w, h, Options{QuantShift: 2})
	buf := make([]byte, 0, 2*w*h*4)
	var err error
	for _, f := range frames {
		if buf, err = enc.EncodeAppend(buf[:0], f); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(w * h * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = enc.EncodeAppend(buf[:0], frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(enc.Bytes())/float64(enc.Frames())/1024, "KB/frame")
}

func BenchmarkEncodeAppend360p(b *testing.B) { benchEncodeAppend(b, 640, 360) }
func BenchmarkEncodeAppend720p(b *testing.B) { benchEncodeAppend(b, 1280, 720) }
