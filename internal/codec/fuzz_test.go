package codec

import (
	"bytes"
	"hash/crc32"
	"testing"
)

// FuzzDecode feeds arbitrary bitstreams to the decoder: it must never
// panic, and valid prefixes must not be silently misdecoded into frames of
// the wrong size.
func FuzzDecode(f *testing.F) {
	enc := NewEncoder(8, 8, Options{QuantShift: 2})
	for i := int64(0); i < 3; i++ {
		bs, err := enc.Encode(genFrame(8, 8, i))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bs)
	}
	tileEnc := NewEncoder(8, 40, Options{})
	for i := int64(0); i < 3; i++ {
		bs, err := tileEnc.Encode(genFrame(8, 40, i))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bs)
	}
	// Smooth content: rice blocks in both prediction modes, intra stripes and
	// spliced frames, lossless and quantized.
	for _, shift := range []uint{0, 3} {
		gameEnc := NewEncoder(16, 20, Options{QuantShift: shift, TileRows: 8, KeyInterval: 2, StripeKeyframes: true})
		for _, pix := range gameFrames(16, 20, 3) {
			bs, err := gameEnc.Encode(pix)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(bs)
		}
		for _, parent := range []int64{0, 1} {
			bs, err := gameEnc.AppendSplice(nil, parent)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(bs)
		}
	}
	for _, bs := range formerV1Frames {
		f.Add(bs)
	}
	f.Add([]byte{magic2, version2, frameKey, 0, 8, 0, 0, 0, 8, 0, 0, 0, 16, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder()
		pix, err := dec.Decode(data)
		if err == nil {
			w, h := dec.Size()
			if len(pix) != w*h*4 {
				t.Fatalf("decoded %d bytes for %dx%d", len(pix), w, h)
			}
		}
	})
}

// FuzzV2RoundTrip drives the tile codec over fuzzer-chosen geometries and
// content: the decode must reconstruct the quantized source exactly.
func FuzzV2RoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(4), uint8(4), uint8(16), uint8(0))
	f.Add([]byte{1, 2, 3, 0, 0, 0, 0, 9}, uint8(1), uint8(1), uint8(1), uint8(2))
	f.Add(bytes.Repeat([]byte{0xAB, 0x00}, 40), uint8(8), uint8(40), uint8(5), uint8(7))
	f.Add([]byte{0xFF}, uint8(16), uint8(3), uint8(2), uint8(3))
	f.Add(gameFrames(16, 5, 1)[0], uint8(15), uint8(19), uint8(7), uint8(0)) // smooth: rice blocks
	f.Add(gameFrames(16, 5, 1)[0], uint8(12), uint8(38), uint8(15), uint8(4))
	f.Add([]byte{0x10, 0x20, 0x30, 0xFF}, uint8(15), uint8(39), uint8(23), uint8(1)) // flat: all-zero channels
	// Tiles' first rows: one-row tiles, and 33 pixels, where a word
	// straddles the end of a row.
	f.Add(gameFrames(16, 5, 1)[0], uint8(15), uint8(4), uint8(0), uint8(0))
	f.Add(gameFrames(33, 9, 1)[0], uint8(32), uint8(8), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, wb, hb, rowsB, shiftB uint8) {
		w, h := 1+int(wb)%40, 1+int(hb)%40
		rows, shift := 1+int(rowsB)%24, uint(shiftB)%8
		pix := func(mut byte) []byte {
			p := make([]byte, w*h*4)
			for i := range p {
				if len(data) > 0 {
					p[i] = data[i%len(data)]
				}
				p[i] += mut * byte(i)
			}
			return p
		}
		enc := NewEncoder(w, h, Options{QuantShift: shift, TileRows: rows, KeyInterval: 2, Workers: 1})
		dec := NewDecoder()
		for mut := byte(0); mut < 3; mut++ {
			p := pix(mut)
			bs, err := enc.Encode(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Decode(bs)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !bytes.Equal(got, quantized(p, shift)) {
				t.Fatal("round trip differs from quantized source")
			}
		}
	})
}

// FuzzTileCache drives a deliberately tiny cache through fuzzer-chosen
// hit/miss/evict interleavings and holds it to its two contracts: a hit
// returns exactly appendPayload(content, ref, rowBytes) with a matching CRC
// (never another entry's payload), and the hit/miss counters account for
// every lookup. The seeds cover repeat-until-admitted (hit), distinct
// contents (miss), one content at two row widths, one content against no
// reference and against references one byte apart, and enough distinct
// admissions to force evictions on the small budget.
func FuzzTileCache(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1})                                  // repeats: admit then hit
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})                      // all distinct: misses
	f.Add([]byte{1, 1, 2, 2, 1, 3, 3, 2, 1, 4, 4, 3, 2, 1})    // interleaved reuse
	f.Add([]byte{5, 5, 0x45, 0x45, 5, 0x45})                   // one content, two row widths
	f.Add([]byte{5, 5, 0x25, 0x25, 0x35, 0x35, 5, 0x25, 0x35}) // one content, references one byte apart
	f.Add(bytes.Repeat([]byte{9, 9, 8, 8, 7, 7, 6, 6, 5}, 40)) // churn: evictions
	f.Fuzz(func(t *testing.T, script []byte) {
		cache := NewTileCache(tcShards * 4096) // a few entries per shard
		lookups := int64(0)
		for _, op := range script {
			// Each script byte selects one of 16 synthetic tile contents;
			// the high bit varies the length, bit 6 the row width and bits
			// 4-5 the reference (none, or one of three, the last two one
			// byte apart), so geometry and reference mismatches are
			// exercised alongside content mismatches.
			n, rowBytes := 256, 64
			if op&0x80 != 0 {
				n = 512
			}
			if op&0x40 != 0 {
				rowBytes = 128
			}
			content := make([]byte, n)
			for i := range content {
				content[i] = (op & 0x0F) * byte(i>>3)
			}
			var ref []byte
			if r := op >> 4 & 3; r != 0 {
				ref = make([]byte, n)
				for i := range ref {
					ref[i] = byte(i>>2) + 3*min(r, 2)
				}
				if r == 3 {
					ref[n/2]++
				}
			}
			want := appendPayload(nil, content, ref, rowBytes)
			wantCRC := crc32.Checksum(want, castagnoli)
			payload, crc, ok := cache.Lookup(content, ref, rowBytes)
			lookups++
			if ok {
				if crc != wantCRC || !bytes.Equal(payload, want) {
					t.Fatalf("op %#x: hit returned wrong payload/CRC", op)
				}
			} else {
				if canon := cache.Insert(content, ref, rowBytes, want, wantCRC); canon != nil && !bytes.Equal(canon, want) {
					t.Fatalf("op %#x: canonical payload differs from inserted", op)
				}
			}
		}
		hits, misses, evictions := cache.Stats()
		if hits+misses != lookups {
			t.Fatalf("stats leak: %d hits + %d misses != %d lookups", hits, misses, lookups)
		}
		if evictions < 0 || hits < 0 || misses < 0 {
			t.Fatal("negative counter")
		}
	})
}
