package codec

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// genSpliceFrames builds a deterministic sequence of w×h frames with a
// moving dirty region over a static background, so most tiles stay clean
// between consecutive frames (the shape splicing exploits).
func genSpliceFrames(w, h, n int) [][]byte {
	base := genFrame(w, h, 7)
	frames := make([][]byte, n)
	for f := 0; f < n; f++ {
		fr := append([]byte(nil), base...)
		// One moving tile-row's worth of churn per frame.
		rowBytes := w * 4
		start := ((f * 3) % h) * rowBytes
		end := start + rowBytes
		for i := start; i < end && i < len(fr); i++ {
			fr[i] = byte(i*31 + f*17)
		}
		frames[f] = fr
	}
	return frames
}

// TestSpliceKeyMatchesSharedState: a key splice cut after N shared encodes
// must decode, from nothing, to exactly the pixels a verbatim subscriber
// reconstructed — at lossless and lossy quantization.
func TestSpliceKeyMatchesSharedState(t *testing.T) {
	const w, h = 32, 48
	for _, shift := range []uint{0, 2} {
		enc := NewEncoder(w, h, Options{QuantShift: shift})
		verbatim := NewDecoder()
		var want []byte
		for _, fr := range genSpliceFrames(w, h, 9) {
			bs, err := enc.Encode(fr)
			if err != nil {
				t.Fatal(err)
			}
			if want, err = verbatim.Decode(bs); err != nil {
				t.Fatal(err)
			}
		}
		spliced, err := enc.AppendSplice(nil, 0)
		if err != nil {
			t.Fatalf("shift %d: AppendSplice: %v", shift, err)
		}
		if !IsKeyframe(spliced) {
			t.Fatalf("shift %d: key splice is not a keyframe", shift)
		}
		joiner := NewDecoder()
		got, err := joiner.Decode(spliced)
		if err != nil {
			t.Fatalf("shift %d: decode spliced key: %v", shift, err)
		}
		if !bytesEqual(got, want) {
			t.Fatalf("shift %d: spliced key pixels differ from the shared reconstruction", shift)
		}
	}
}

// TestSpliceDeltaBridgesGap: a session that stopped consuming at encode
// index k and resumes via a spliced delta must land byte-identical on the
// shared reconstruction, and the shared stream's next verbatim delta must
// then apply cleanly on top of the splice.
func TestSpliceDeltaBridgesGap(t *testing.T) {
	const w, h = 32, 64
	frames := genSpliceFrames(w, h, 12)
	for _, shift := range []uint{0, 2} {
		enc := NewEncoder(w, h, Options{QuantShift: shift})
		verbatim := NewDecoder()
		laggard := NewDecoder()
		// Verbatim follows everything; the laggard stops after frame 4 and
		// misses the rest. The final source frame is held back so the chain
		// can be continued past the splice below.
		const gapAt = 5
		var want []byte
		for i, fr := range frames[:len(frames)-1] {
			bs, err := enc.Encode(fr)
			if err != nil {
				t.Fatal(err)
			}
			if want, err = verbatim.Decode(bs); err != nil {
				t.Fatal(err)
			}
			if i < gapAt {
				if _, err := laggard.Decode(bs); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Bridge the gap: laggard's state is encode index gapAt.
		spliced, err := enc.AppendSplice(nil, int64(gapAt))
		if err != nil {
			t.Fatalf("shift %d: AppendSplice: %v", shift, err)
		}
		if IsKeyframe(spliced) {
			t.Fatalf("shift %d: gap splice should be a delta frame", shift)
		}
		got, err := laggard.Decode(spliced)
		if err != nil {
			t.Fatalf("shift %d: decode spliced delta: %v", shift, err)
		}
		if !bytesEqual(got, want) {
			t.Fatalf("shift %d: spliced delta did not land on the shared reconstruction", shift)
		}
		// The chain continues: the next shared frame is encoded against the
		// same reconstruction the splice produced.
		last, err := enc.Encode(frames[len(frames)-1])
		if err != nil {
			t.Fatal(err)
		}
		want, err = verbatim.Decode(last)
		if err != nil {
			t.Fatal(err)
		}
		got, err = laggard.Decode(last)
		if err != nil {
			t.Fatalf("shift %d: verbatim delta after splice: %v", shift, err)
		}
		if !bytesEqual(got, want) {
			t.Fatalf("shift %d: post-splice verbatim delta diverged", shift)
		}
	}
}

// TestSpliceUpToDateIsAllClean: splicing against the current encode index
// produces a valid all-clean delta that changes nothing.
func TestSpliceUpToDateIsAllClean(t *testing.T) {
	const w, h = 16, 32
	enc := NewEncoder(w, h, Options{QuantShift: 0})
	dec := NewDecoder()
	var want []byte
	for _, fr := range genSpliceFrames(w, h, 4) {
		bs, err := enc.Encode(fr)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = dec.Decode(bs); err != nil {
			t.Fatal(err)
		}
	}
	spliced, err := enc.AppendSplice(nil, enc.Frames())
	if err != nil {
		t.Fatal(err)
	}
	wantLen := hdr2Len + tileCount(h, DefaultTileRows)*dirEntryLen
	if len(spliced) != wantLen {
		t.Fatalf("all-clean splice is %d bytes, want %d (header+directory only)", len(spliced), wantLen)
	}
	got, err := dec.Decode(spliced)
	if err != nil {
		t.Fatalf("decode all-clean splice: %v", err)
	}
	if !bytesEqual(got, want) {
		t.Fatal("all-clean splice changed pixels")
	}
}

// TestSpliceMemoReuse: splicing the same static state twice must reuse the
// memoized intra payloads — byte-identical output, no re-cut.
func TestSpliceMemoReuse(t *testing.T) {
	const w, h = 16, 48
	enc := NewEncoder(w, h, Options{QuantShift: 0})
	for _, fr := range genSpliceFrames(w, h, 3) {
		if _, err := enc.Encode(fr); err != nil {
			t.Fatal(err)
		}
	}
	a, err := enc.AppendSplice(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	a = append([]byte(nil), a...)
	b, err := enc.AppendSplice(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytesEqual(a, b) {
		t.Fatal("repeated key splices of static state differ")
	}
}

// TestSpliceErrors pins the refusal path: no state yet.
func TestSpliceErrors(t *testing.T) {
	enc := NewEncoder(8, 8, Options{})
	if _, err := enc.AppendSplice(nil, 0); !errors.Is(err, ErrNoSpliceState) {
		t.Fatalf("pre-state splice err = %v, want ErrNoSpliceState", err)
	}
}

// TestSpliceHostileIntraFlags: the decoder must reject intra on clean tiles
// and on key frames, and still reject unknown flag bits above intra.
func TestSpliceHostileIntraFlags(t *testing.T) {
	const w, h = 8, 40
	enc := NewEncoder(w, h, Options{QuantShift: 0})
	frames := genSpliceFrames(w, h, 3)
	key, err := enc.Encode(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	delta, err := enc.Encode(frames[0]) // identical content: all-clean delta
	if err != nil {
		t.Fatal(err)
	}
	mut := func(src []byte, f func(b []byte)) []byte {
		b := append([]byte(nil), src...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		bs   []byte
	}{
		{"intra on key frame tile", mut(key, func(b []byte) { b[hdr2Len] |= tileFlagIntra })},
		{"intra on clean delta tile", mut(delta, func(b []byte) { b[hdr2Len] = tileFlagIntra })},
		{"unknown flag bit", mut(key, func(b []byte) { b[hdr2Len] |= 0x04 })},
	}
	for _, c := range cases {
		dec := NewDecoder()
		if _, err := dec.Decode(key); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(c.bs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
}

// TestSpatialBitNeedsAReference pins the S bit at the frame level: a tile
// is coded against a reference only when it is a dirty, non-intra tile of a
// delta frame, so S on a key tile or on a spliced intra tile loses that
// tile, while on a delta tile it is a valid block (of other pixels).
func TestSpatialBitNeedsAReference(t *testing.T) {
	const w, h = 16, 20 // tiles of rows 0-15 and 16-19
	frames := gameFrames(w, h, 3)
	enc := NewEncoder(w, h, Options{KeyInterval: 100})
	var bs [3][]byte
	for i, f := range frames {
		var err error
		if bs[i], err = enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	intra, err := enc.AppendSplice(nil, 1) // catches a viewer of the key frame up
	if err != nil {
		t.Fatal(err)
	}
	// setS sets S on tile 0's first block, a rice block, re-coding the
	// header string, and mends the directory entry.
	setS := func(frame []byte) []byte {
		span := v2dir(t, frame)[0]
		p := frame[span[0]:span[1]]
		blocks, pos, err := refHeaders(p, 16*w*4)
		if frame[hdr2Len]&tileFlagDirty == 0 || err != nil || refSym(blocks[0].tag) >= 64 {
			t.Fatalf("tile 0 does not start with a rice block (flags %#x, %v)", frame[hdr2Len], err)
		}
		blocks[0].tag |= tagSpatial
		blocks[0].body = p[pos:]
		np := refPayload(blocks...)
		b := append(append(append([]byte(nil), frame[:span[0]]...), np...), frame[span[1]:]...)
		binary.LittleEndian.PutUint32(b[hdr2Len+1:], uint32(len(np)))
		binary.LittleEndian.PutUint32(b[hdr2Len+5:], crc32.Checksum(np, castagnoli))
		return b
	}
	for _, c := range []struct {
		name     string
		prior    [][]byte
		frame    []byte
		rejected bool
	}{
		{"key tile", nil, setS(bs[0]), true},
		{"spliced intra tile", [][]byte{bs[0]}, setS(intra), true},
		{"delta tile", [][]byte{bs[0]}, setS(bs[1]), false},
	} {
		dec := NewDecoder()
		for _, p := range c.prior {
			if _, err := dec.Decode(p); err != nil {
				t.Fatal(err)
			}
		}
		_, err := dec.Decode(c.frame)
		var te *TileError
		switch {
		case c.rejected && (!errors.As(err, &te) || len(te.Tiles) != 1 || te.Tiles[0] != 0):
			t.Errorf("%s with S: err = %v, want tile 0 rejected", c.name, err)
		case !c.rejected && err != nil:
			t.Errorf("%s with S: err = %v, want a valid frame", c.name, err)
		}
	}
}

// bytesEqual avoids pulling bytes.Equal into every assertion site with its
// nil-vs-empty caveat: both sides here are always non-nil frames.
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSpliceDirectoryShape sanity-checks the spliced delta's directory: the
// changed tiles carry dirty|intra, the rest are zero entries.
func TestSpliceDirectoryShape(t *testing.T) {
	const w, h = 8, 64 // 4 tiles
	enc := NewEncoder(w, h, Options{QuantShift: 0})
	frames := genSpliceFrames(w, h, 2)
	if _, err := enc.Encode(frames[0]); err != nil {
		t.Fatal(err)
	}
	parent := enc.Frames()
	// Change only tile 2's rows.
	fr := append([]byte(nil), frames[0]...)
	rowBytes := w * 4
	for i := 2 * DefaultTileRows * rowBytes; i < 3*DefaultTileRows*rowBytes; i++ {
		fr[i] ^= 0x55
	}
	if _, err := enc.Encode(fr); err != nil {
		t.Fatal(err)
	}
	spliced, err := enc.AppendSplice(nil, parent)
	if err != nil {
		t.Fatal(err)
	}
	nt := tileCount(h, DefaultTileRows)
	for i := 0; i < nt; i++ {
		flags := spliced[hdr2Len+i*dirEntryLen]
		plen := binary.LittleEndian.Uint32(spliced[hdr2Len+i*dirEntryLen+1:])
		if i == 2 {
			if flags != tileFlagDirty|tileFlagIntra || plen == 0 {
				t.Fatalf("changed tile %d: flags %#x len %d, want dirty|intra with payload", i, flags, plen)
			}
		} else if flags != 0 || plen != 0 {
			t.Fatalf("unchanged tile %d: flags %#x len %d, want clean zero entry", i, flags, plen)
		}
	}
}
