package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"odr/internal/wpool"
)

// roundTripV2 pushes n frames of a seeded sequence through a v2 encoder and
// a fresh decoder, checking pixel equality against the quantized source.
func roundTripV2(t *testing.T, w, h int, opts Options, n int) {
	t.Helper()
	enc := NewEncoder(w, h, opts)
	dec := NewDecoder()
	for i := int64(0); i < int64(n); i++ {
		pix := genFrame(w, h, i)
		bs, err := enc.Encode(pix)
		if err != nil {
			t.Fatalf("%dx%d frame %d: encode: %v", w, h, i, err)
		}
		got, err := dec.Decode(bs)
		if err != nil {
			t.Fatalf("%dx%d frame %d: decode: %v", w, h, i, err)
		}
		if !bytes.Equal(got, quantized(pix, opts.QuantShift)) {
			t.Fatalf("%dx%d frame %d: pixel mismatch", w, h, i)
		}
	}
}

func TestV2TileEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		w, h int
		opts Options
	}{
		{"1x1", 1, 1, Options{}},
		{"one row", 64, 1, Options{}},
		{"height not divisible", 8, 40, Options{}},
		{"odd tile rows", 8, 12, Options{TileRows: 5}},
		{"tile taller than frame", 8, 8, Options{TileRows: 64}},
		{"quantized", 16, 40, Options{QuantShift: 3, KeyInterval: 4}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { roundTripV2(t, c.w, c.h, c.opts, 6) })
	}
}

func TestV2DirtyAccounting(t *testing.T) {
	const w, h = 8, 48 // 3 tiles of 16 rows
	enc := NewEncoder(w, h, Options{QuantShift: 0})
	pix := genFrame(w, h, 1)
	if _, err := enc.Encode(pix); err != nil {
		t.Fatal(err)
	}
	if tiles, dirty := enc.TileStats(); tiles != 3 || dirty != 3 {
		t.Fatalf("keyframe stats = %d/%d, want 3/3 (keys are all-dirty)", dirty, tiles)
	}
	if len(enc.TileNanos()) != 3 {
		t.Fatalf("TileNanos has %d entries, want 3", len(enc.TileNanos()))
	}

	// Identical frame: every tile clean, and the frame is just headers.
	bs, err := enc.Encode(pix)
	if err != nil {
		t.Fatal(err)
	}
	if _, dirty := enc.TileStats(); dirty != 0 {
		t.Fatalf("static delta has %d dirty tiles, want 0", dirty)
	}
	if want := hdr2Len + 3*dirEntryLen; len(bs) != want {
		t.Fatalf("all-clean frame is %d bytes, want %d", len(bs), want)
	}

	// Touch one pixel in the last (short would be h%16, here full) tile.
	pix2 := append([]byte(nil), pix...)
	s, _ := tileRange(w, h, DefaultTileRows, 2)
	pix2[s] ^= 0xFF
	if _, err := enc.Encode(pix2); err != nil {
		t.Fatal(err)
	}
	if _, dirty := enc.TileStats(); dirty != 1 {
		t.Fatalf("single-tile change marked %d tiles dirty, want 1", dirty)
	}
}

// TestV2SerialParallelByteIdentical pins the determinism contract: the v2
// bitstream must be byte-for-byte identical no matter how many workers
// encode the tiles or which pool they run on.
func TestV2SerialParallelByteIdentical(t *testing.T) {
	p := wpool.New(4)
	defer p.Close()
	const w, h = 320, 200
	frames := animatedFrames(w, h, 12)
	base := Options{QuantShift: 2, KeyInterval: 5}
	mk := func(workers int, pool *wpool.Pool) *Encoder {
		o := base
		o.Workers, o.Pool = workers, pool
		return NewEncoder(w, h, o)
	}
	serial := mk(1, nil)
	variants := map[string]*Encoder{
		"two workers":       mk(2, p),
		"full private pool": mk(0, p),
		"full default pool": mk(0, nil),
	}
	for i, f := range frames {
		want, err := serial.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		for name, enc := range variants {
			got, err := enc.Encode(f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d: %s bitstream differs from serial (%d vs %d bytes)", i, name, len(got), len(want))
			}
		}
	}
}

// TestV1V2PixelIdentical pins what the tile coder decodes to: exactly the
// quantized source, frame after frame across key and delta frames (the
// pixels the deleted v1 byte stream reconstructed, by definition).
func TestV1V2PixelIdentical(t *testing.T) {
	const w, h, shift = 64, 52, 2
	enc := NewEncoder(w, h, Options{QuantShift: shift, KeyInterval: 4})
	dec := NewDecoder()
	for i, f := range animatedFrames(w, h, 10) {
		bs, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		pix, err := dec.Decode(bs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pix, quantized(f, shift)) {
			t.Fatalf("frame %d: decoded pixels differ from the quantized source", i)
		}
	}
}

func TestV2ParallelDecodeMatchesSerial(t *testing.T) {
	p := wpool.New(4)
	defer p.Close()
	const w, h = 320, 200
	enc := NewEncoder(w, h, Options{QuantShift: 2, KeyInterval: 5})
	serial, parallel := NewDecoder(), NewDecoder()
	parallel.SetPool(p, 0)
	for i, f := range animatedFrames(w, h, 12) {
		bs, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		a, err := serial.Decode(bs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.Decode(bs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("frame %d: parallel decode differs from serial", i)
		}
	}
}

// v2dir returns the payload byte ranges of each tile of a v2 frame.
func v2dir(t *testing.T, bs []byte) [][2]int {
	t.Helper()
	nt := int(binary.LittleEndian.Uint16(bs[14:]))
	off := hdr2Len + nt*dirEntryLen
	spans := make([][2]int, nt)
	for i := 0; i < nt; i++ {
		plen := int(binary.LittleEndian.Uint32(bs[hdr2Len+i*dirEntryLen+1:]))
		spans[i] = [2]int{off, off + plen}
		off += plen
	}
	return spans
}

// TestV2PartialDecodeOnTileCorruption pins the CRC-localization contract: a
// flipped payload byte loses exactly its own tile — intact tiles of the
// same frame still apply, the corrupt tile keeps its previous content, and
// the error is a *TileError matching ErrTileCRC.
func TestV2PartialDecodeOnTileCorruption(t *testing.T) {
	const w, h = 8, 40 // tiles: rows 0-15, 16-31, 32-39
	enc := NewEncoder(w, h, Options{QuantShift: 0, KeyInterval: 100})
	dec := NewDecoder()

	keyPix := genFrame(w, h, 1)
	keyBS, err := enc.Encode(keyPix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(keyBS); err != nil {
		t.Fatal(err)
	}

	// Change one pixel each in tile 0 and tile 2; corrupt tile 0's payload.
	next := append([]byte(nil), keyPix...)
	s0, _ := tileRange(w, h, DefaultTileRows, 0)
	s2, _ := tileRange(w, h, DefaultTileRows, 2)
	next[s0] ^= 0x55
	next[s2] ^= 0x55
	bs, err := enc.Encode(next)
	if err != nil {
		t.Fatal(err)
	}
	spans := v2dir(t, bs)
	bs[spans[0][0]] ^= 0xFF

	pix, err := dec.Decode(bs)
	var te *TileError
	if !errors.As(err, &te) || !errors.Is(err, ErrTileCRC) {
		t.Fatalf("err = %v, want *TileError matching ErrTileCRC", err)
	}
	if len(te.Tiles) != 1 || te.Tiles[0] != 0 {
		t.Fatalf("corrupt tiles = %v, want [0]", te.Tiles)
	}
	if pix == nil {
		t.Fatal("partial decode returned no pixels")
	}
	_, e0 := tileRange(w, h, DefaultTileRows, 0)
	if !bytes.Equal(pix[s0:e0], keyPix[s0:e0]) {
		t.Error("corrupt tile 0 did not keep its previous content")
	}
	_, e2 := tileRange(w, h, DefaultTileRows, 2)
	if !bytes.Equal(pix[s2:e2], next[s2:e2]) {
		t.Error("intact tile 2 was not applied")
	}

	// A later keyframe resynchronizes fully.
	enc.ForceKeyframe()
	bs2, err := enc.Encode(next)
	if err != nil {
		t.Fatal(err)
	}
	pix2, err := dec.Decode(bs2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pix2, next) {
		t.Fatal("keyframe after tile corruption did not resync")
	}
}

// TestV2HostileHeaders feeds crafted v2 bitstreams to the decoder: every
// malformed header or directory must fail cleanly with the right sentinel,
// without panicking and without disturbing decoder state.
func TestV2HostileHeaders(t *testing.T) {
	const w, h = 8, 40
	enc := NewEncoder(w, h, Options{QuantShift: 0})
	valid, err := enc.Encode(genFrame(w, h, 1))
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := []struct {
		name string
		bs   []byte
		want error
	}{
		{"short header", valid[:10], ErrTruncated},
		{"bad version", mut(func(b []byte) []byte { b[1] = 9; return b }), ErrVersion},
		{"zero-run RLE generation", mut(func(b []byte) []byte { b[1] = 2; return b }), ErrVersion},
		{"Rice v3 generation", mut(func(b []byte) []byte { b[1] = 3; return b }), ErrVersion},
		{"unary-quotient v4 generation", mut(func(b []byte) []byte { b[1] = 4; return b }), ErrVersion},
		{"bad frame type", mut(func(b []byte) []byte { b[2] = 9; return b }), ErrCorrupt},
		{"zero width", mut(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 0); return b }), ErrDimensions},
		{"huge height", mut(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], maxDim+1); return b }), ErrDimensions},
		{"zero tile rows", mut(func(b []byte) []byte { binary.LittleEndian.PutUint16(b[12:], 0); return b }), ErrCorrupt},
		{"tile count mismatch", mut(func(b []byte) []byte { binary.LittleEndian.PutUint16(b[14:], 4); return b }), ErrCorrupt},
		{"truncated directory", valid[:hdr2Len+5], ErrTruncated},
		{"huge payload length", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[hdr2Len+1:], 0xFFFFFFFF)
			return b
		}), ErrTruncated},
		{"unknown tile flag", mut(func(b []byte) []byte { b[hdr2Len] |= 0x02; return b }), ErrCorrupt},
		{"clean tile in keyframe", mut(func(b []byte) []byte {
			// Drop tile 0's dirty flag and splice its payload out so the
			// lengths stay consistent — clean key tiles are still illegal.
			spans := v2dir(t, b)
			b[hdr2Len] = 0
			binary.LittleEndian.PutUint32(b[hdr2Len+1:], 0)
			return append(b[:spans[0][0]], b[spans[0][1]:]...)
		}), ErrCorrupt},
		{"trailing junk", mut(func(b []byte) []byte { return append(b, 0xAA) }), ErrCorrupt},
	}
	dec := NewDecoder()
	for _, c := range cases {
		if _, err := dec.Decode(c.bs); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		// Decoder state must survive a rejected frame.
		if _, err := dec.Decode(valid); err != nil {
			t.Errorf("%s: valid frame rejected after hostile one: %v", c.name, err)
		}
	}
}

// TestV2HostileTilePayload hides a hostile payload behind a valid CRC: its
// declared sizes exceed the tile or the bytes present, so the tile must
// fail decodePayload's bounds checks (TestDecodePayloadHostile has the full
// table) and surface as a TileError rather than a panic or an
// out-of-bounds write.
func TestV2HostileTilePayload(t *testing.T) {
	const w, h = 8, 16 // single tile
	enc := NewEncoder(w, h, Options{QuantShift: 0})
	valid, err := enc.Encode(genFrame(w, h, 1))
	if err != nil {
		t.Fatal(err)
	}
	hostile := [][]byte{
		// Zero run of 2^64-1 blocks: must not memset beyond the tile.
		{blockZeros << tagTypeShift, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		// Raw block with three of its 512 bytes.
		{blockRaw << tagTypeShift, 1, 2, 3},
		// Unterminated uvarint.
		{blockZeros << tagTypeShift, 0x80},
		// Rice block whose pair string (unary table) runs off the payload.
		{blockRice << tagTypeShift, 0xF0 | unaryTable, 0xFF, 0xFF},
		// Rice block whose pair string holds no code of its table.
		{blockRice << tagTypeShift, 0xF0 | unaryTable, 0xFF, 0x00, 0x00},
		// Rice block whose escaped sample has no escape string.
		{blockRice << tagTypeShift, 0xF0 | unaryTable, 0xFF, 0x00, 0x01},
		// Rice block whose pair string (a fitted table) runs off the payload.
		{blockRice << tagTypeShift, 0xF0, 0xFF, 0x00, 0x00},
		// Unknown block type.
		{0x60, 0x04},
	}
	for i, payload := range hostile {
		bs := append([]byte(nil), valid[:hdr2Len]...)
		bs = append(bs, tileFlagDirty)
		var ent [8]byte
		binary.LittleEndian.PutUint32(ent[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(ent[4:], crc32.Checksum(payload, castagnoli))
		bs = append(bs, ent[:]...)
		bs = append(bs, payload...)
		dec := NewDecoder()
		_, err := dec.Decode(bs)
		if !errors.Is(err, ErrTileCRC) {
			t.Errorf("hostile payload %d: err = %v, want a TileError", i, err)
		}
	}
}
