package codec

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"
)

// tcContent builds deterministic, compressible pseudo-tile content.
func tcContent(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed * byte(i>>4)
	}
	return b
}

// tcRow is the row width the cache tests code their content at.
const tcRow = 256

// cachePut drives content coded against ref through the doorkeeper until
// it is admitted, the way the encode path does: Lookup miss, then Insert.
func cachePut(t *testing.T, c *TileCache, content, ref []byte) []byte {
	t.Helper()
	payload := appendPayload(nil, content, ref, tcRow)
	crc := crc32.Checksum(payload, castagnoli)
	for i := 0; i < 2; i++ {
		if p, gotCRC, ok := c.Lookup(content, ref, tcRow); ok {
			if gotCRC != crc || !bytes.Equal(p, payload) {
				t.Fatalf("cache returned wrong payload for content")
			}
			return p
		}
		if canon := c.Insert(content, ref, tcRow, payload, crc); canon != nil {
			return canon
		}
	}
	t.Fatalf("content not admitted after two sightings")
	return nil
}

func TestTileCacheLookupInsertDoorkeeper(t *testing.T) {
	c := NewTileCache(1 << 20)
	content := tcContent(3, 4096)
	payload := appendPayload(nil, content, nil, tcRow)
	crc := crc32.Checksum(payload, castagnoli)

	if _, _, ok := c.Lookup(content, nil, tcRow); ok {
		t.Fatal("empty cache reported a hit")
	}
	if canon := c.Insert(content, nil, tcRow, payload, crc); canon != nil {
		t.Fatal("doorkeeper admitted content on first sighting")
	}
	if _, _, ok := c.Lookup(content, nil, tcRow); ok {
		t.Fatal("hit after a rejected insert")
	}
	canon := c.Insert(content, nil, tcRow, payload, crc)
	if canon == nil {
		t.Fatal("doorkeeper rejected content on second sighting")
	}
	if &canon[0] == &payload[0] {
		t.Fatal("cache retained the caller's payload slice instead of copying")
	}
	got, gotCRC, ok := c.Lookup(content, nil, tcRow)
	if !ok || gotCRC != crc || !bytes.Equal(got, payload) {
		t.Fatalf("lookup after admission: ok=%v crc=%d want %d", ok, gotCRC, crc)
	}
	if &got[0] != &canon[0] {
		t.Fatal("lookup returned a copy, not the canonical cached payload")
	}
	hits, misses, evs := c.Stats()
	if hits != 1 || misses != 2 || evs != 0 {
		t.Fatalf("stats = %d/%d/%d, want 1 hit, 2 misses, 0 evictions", hits, misses, evs)
	}
}

func TestTileCacheEvictionLRU(t *testing.T) {
	// Budget sized for only a couple of entries per shard; admitting many
	// distinct contents must evict the least-recently-used, not grow.
	const entry = 8 << 10
	c := NewTileCache(tcShards * (2*entry + 2*tcEntryOverhead + 64))
	var contents [][]byte
	for i := 0; i < 64; i++ {
		cont := tcContent(byte(i+1), entry/2)
		cont[0] = byte(i) // distinct
		contents = append(contents, cont)
		cachePut(t, c, cont, nil)
	}
	if _, _, evs := c.Stats(); evs == 0 {
		t.Fatal("64 admissions into a 2-entries-per-shard budget evicted nothing")
	}
	if n := c.Len(); n >= 64 {
		t.Fatalf("cache holds %d entries, want bounded well below 64", n)
	}
	// The most recent insert must still be resident.
	last := contents[len(contents)-1]
	if _, _, ok := c.Lookup(last, nil, tcRow); !ok {
		t.Fatal("most recently admitted entry was evicted")
	}
}

// TestTileCachePoisoning forces every tile onto one hash bucket and proves
// a hit requires full equality of the content, of the reference and of the
// row width: same hash, different bytes must miss (then coexist on the
// chain), never serve the other's payload.
func TestTileCachePoisoning(t *testing.T) {
	orig := tileCacheHash
	tileCacheHash = func([]byte, []byte, int) uint64 { return 0xDEAD }
	defer func() { tileCacheHash = orig }()

	c := NewTileCache(1 << 20)
	a := tcContent(5, 2048)
	b := tcContent(9, 2048) // same geometry, same (forced) hash, different pixels
	pa := cachePut(t, c, a, nil)

	if _, _, ok := c.Lookup(b, nil, tcRow); ok {
		t.Fatal("poisoning: colliding content reported a hit without matching bytes")
	}
	pb := cachePut(t, c, b, nil)
	if bytes.Equal(pa, pb) {
		t.Fatal("distinct contents produced one payload")
	}
	gotA, crcA, okA := c.Lookup(a, nil, tcRow)
	gotB, crcB, okB := c.Lookup(b, nil, tcRow)
	if !okA || !okB {
		t.Fatal("chained colliding entries must both hit")
	}
	if !bytes.Equal(gotA, appendPayload(nil, a, nil, tcRow)) || !bytes.Equal(gotB, appendPayload(nil, b, nil, tcRow)) {
		t.Fatal("chain walk returned the wrong entry's payload")
	}
	if crcA != crc32.Checksum(gotA, castagnoli) || crcB != crc32.Checksum(gotB, castagnoli) {
		t.Fatal("cached CRC does not match cached payload")
	}
	// Shorter content with the same hash: length check alone must reject.
	short := a[:1024]
	if _, _, ok := c.Lookup(short, nil, tcRow); ok {
		t.Fatal("prefix content hit a longer entry")
	}
	// The same content at another row width: the row width alone must
	// reject.
	if _, _, ok := c.Lookup(a, nil, 2*tcRow); ok {
		t.Fatal("content hit an entry coded at another row width")
	}

	// One content against two references one byte apart, and against
	// none: three entries, and no lookup may return another's payload.
	refX := tcContent(6, 2048)
	refY := append([]byte(nil), refX...)
	refY[1000]++
	if _, _, ok := c.Lookup(a, refX, tcRow); ok {
		t.Fatal("content coded against a reference hit its entry without one")
	}
	px := cachePut(t, c, a, refX)
	if _, _, ok := c.Lookup(a, refY, tcRow); ok {
		t.Fatal("a reference one byte off hit the entry of the other")
	}
	py := cachePut(t, c, a, refY)
	if bytes.Equal(px, py) {
		t.Fatal("references one byte apart produced one payload")
	}
	for _, e := range []struct {
		name string
		ref  []byte
		want []byte
	}{{"no reference", nil, pa}, {"reference X", refX, px}, {"reference Y", refY, py}} {
		got, _, ok := c.Lookup(a, e.ref, tcRow)
		if !ok || !bytes.Equal(got, e.want) || !bytes.Equal(got, appendPayload(nil, a, e.ref, tcRow)) {
			t.Fatalf("%s: lookup hit=%v returned another entry's payload", e.name, ok)
		}
	}
	// A reference of another length: the reference bytes must reject.
	if _, _, ok := c.Lookup(a, refX[:1024], tcRow); ok {
		t.Fatal("a prefix of the reference hit the entry")
	}
}

// TestEncodeCacheByteIdentity pins the cache-key soundness argument at the
// bitstream level: encoders with no cache, a private cache, and one shared
// (pre-populated by a sibling encoder) cache must emit identical bytes,
// with and without keyframe striping.
func TestEncodeCacheByteIdentity(t *testing.T) {
	const w, h = 96, 80
	frames := animatedFrames(w, h, 6)
	for _, stripe := range []bool{false, true} {
		opts := func(cache *TileCache) Options {
			return Options{QuantShift: 2, KeyInterval: 4, StripeKeyframes: stripe, Cache: cache}
		}
		shared := NewTileCache(0)
		plain := NewEncoder(w, h, opts(nil))
		private := NewEncoder(w, h, opts(NewTileCache(0)))
		warm := NewEncoder(w, h, opts(shared))
		second := NewEncoder(w, h, opts(shared))
		// Loop the sequence so cached payloads are actually reused.
		for pass := 0; pass < 3; pass++ {
			for fi, f := range frames {
				want, err := plain.Encode(f)
				if err != nil {
					t.Fatal(err)
				}
				for name, enc := range map[string]*Encoder{"private": private, "warm": warm, "shared": second} {
					got, err := enc.Encode(f)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("stripe=%v pass %d frame %d: %s-cache bitstream differs from cache-less", stripe, pass, fi, name)
					}
				}
			}
		}
		if hits, misses, _ := shared.Stats(); hits == 0 {
			t.Fatalf("stripe=%v: shared cache never hit (misses=%d); sharing is not happening", stripe, misses)
		}
	}
}

// TestCacheConservation pins the accounting contract the soak invariant
// relies on: every payload tile of every frame and every tile of every
// splice does exactly one cache lookup, so hits+misses == dirty tiles +
// splice tiles — also when a delta tile's blocks code in both domains.
func TestCacheConservation(t *testing.T) {
	const w, h, shift = 64, 64, 2
	cache := NewTileCache(0)
	enc := NewEncoder(w, h, Options{QuantShift: shift, KeyInterval: 4, StripeKeyframes: true, Cache: cache})
	frames := append(animatedFrames(w, h, 8), gameFrames(w, h, 8)...)
	var temporal, spatial int
	for f := 1; f < len(frames); f++ {
		cur, prev := quantized(frames[f], shift), quantized(frames[f-1], shift)
		for ti := 0; ti < tileCount(h, DefaultTileRows); ti++ {
			s, e := tileRange(w, h, DefaultTileRows, ti)
			tb, sb := refDomains(cur[s:e], prev[s:e], 4*w)
			temporal += tb
			spatial += sb
		}
	}
	if temporal == 0 || spatial == 0 {
		t.Fatalf("the stream's delta tiles plan %d temporal and %d spatial blocks, want both", temporal, spatial)
	}

	var wantLookups int64
	for pass := 0; pass < 4; pass++ {
		for _, f := range frames {
			if _, err := enc.Encode(f); err != nil {
				t.Fatal(err)
			}
			_, dirty := enc.TileStats()
			wantLookups += int64(dirty)
			if pass > 0 { // splice a joiner key and a catch-up delta per frame
				if _, err := enc.AppendSplice(nil, 0); err != nil {
					t.Fatal(err)
				}
				wantLookups += int64(enc.LastSpliceTiles())
				if _, err := enc.AppendSplice(nil, enc.Frames()-3); err != nil {
					t.Fatal(err)
				}
				wantLookups += int64(enc.LastSpliceTiles())
			}
		}
	}
	hits, misses, _ := cache.Stats()
	if hits+misses != wantLookups {
		t.Fatalf("cache hits+misses = %d+%d = %d, want exactly %d (dirty + splice tiles)",
			hits, misses, hits+misses, wantLookups)
	}
	if hits == 0 {
		t.Fatal("looped content produced zero cache hits")
	}
}

// TestTileNanosIsACopy pins the satellite fix: the returned slice must not
// alias encoder state reused by the next frame.
func TestTileNanosIsACopy(t *testing.T) {
	const w, h = 64, 64
	enc := NewEncoder(w, h, Options{QuantShift: 2})
	frames := animatedFrames(w, h, 4)
	if _, err := enc.Encode(frames[0]); err != nil {
		t.Fatal(err)
	}
	first := enc.TileNanos()
	snapshot := append([]int64(nil), first...)
	if _, err := enc.Encode(frames[1]); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != snapshot[i] {
			t.Fatalf("TileNanos()[%d] changed from %d to %d after the next Encode: slice aliases encoder state",
				i, snapshot[i], first[i])
		}
	}
	scratch := make([]int64, 0, 8)
	got := enc.TileNanosAppend(scratch[:0])
	if len(got) != len(first) {
		t.Fatalf("TileNanosAppend returned %d samples, want %d", len(got), len(first))
	}
}

func TestTileCacheNilSafe(t *testing.T) {
	var c *TileCache
	if _, _, ok := c.Lookup([]byte{1}, nil, 4); ok {
		t.Fatal("nil cache hit")
	}
	if p := c.Insert([]byte{1}, nil, 4, []byte{2}, 3); p != nil {
		t.Fatal("nil cache admitted")
	}
	if h, m, e := c.Stats(); h != 0 || m != 0 || e != 0 {
		t.Fatal("nil cache has stats")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has entries")
	}
}

func TestHashContentSpreads(t *testing.T) {
	// Not a quality suite — just pin that near-identical tile contents do
	// not collapse onto one bucket chain (which would turn the cache into a
	// linear scan) and that the hash is deterministic. CRC32 is linear, so
	// same-length single-bit variants can never collide.
	seen := make(map[uint64]string)
	for i := 0; i < 256; i++ {
		b := tcContent(7, 512)
		b[i] ^= 0x01
		h := hashContent(b, nil, tcRow)
		if h != hashContent(b, nil, tcRow) {
			t.Fatal("hashContent is not deterministic")
		}
		key := fmt.Sprintf("flip %d", i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("single-bit variants %q and %q collide", prev, key)
		}
		seen[h] = key
	}
	// Row width and reference are part of the address too.
	b, ref := tcContent(7, 512), tcContent(8, 512)
	if hashContent(b, nil, tcRow) == hashContent(b, nil, 2*tcRow) {
		t.Fatal("one content at two row widths hashes alike")
	}
	if hashContent(b, nil, tcRow) == hashContent(b, ref, tcRow) {
		t.Fatal("one content with and without a reference hashes alike")
	}
	other := append([]byte(nil), ref...)
	other[0] ^= 1
	if hashContent(b, ref, tcRow) == hashContent(b, other, tcRow) {
		t.Fatal("one content against references one bit apart hashes alike")
	}
}
