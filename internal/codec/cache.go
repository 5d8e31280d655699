package codec

// TileCache: a content-addressed cache of encoded tile payloads, shared
// across frames, encoders and hub lanes.
//
// The key insight that makes sharing sound is that a tile payload is a pure
// function of the content being coded, the reference it is coded against
// and the row width it is coded at: payload = appendPayload(content, ref,
// rowBytes) (ref because a delta tile's blocks may code content − ref;
// rowBytes because the coder may predict a byte from the one a row above
// it) and crc = CRC32C(payload) depend on nothing else — not on the
// encoder, the frame index or the worker count. Key tiles, stripe-intra
// tiles and splice cuts have no reference (ref nil), so their key is
// (content, rowBytes) and a splice shares the payloads of the stripe and key
// tiles the frame path coded; a delta tile's key is (content, ref,
// rowBytes). One cache therefore serves every payload producer in this
// package, and a hit can never change what goes on the wire: it returns
// exactly the bytes a fresh coding pass would have produced. The same bytes
// at two row widths, or against two references, or with and without one,
// are distinct entries with their own payloads.
//
// Hash collisions are survived, not assumed away: entries with the same
// 64-bit hash chain, and every lookup re-verifies the row width, whether
// there is a reference, and the full content and reference bytes (length +
// memcmp) before declaring a hit. A poisoned or colliding entry can cost a
// chain walk, never wrong pixels (TestTileCachePoisoning pins this with a
// deliberately constant hash).
//
// Admission is gated by a per-shard doorkeeper: a hash is only admitted on
// its second sighting. Never-repeating content (noise, one-shot deltas)
// then costs one hash probe and one uint64 store per miss — no copy, no
// allocation, no eviction churn — while genuinely recurring content is
// admitted one frame late and hits forever after.
//
// The cache is safe for concurrent use: 8 shards keyed by the low hash
// bits, each with its own mutex, map, LRU list and doorkeeper, so parallel
// tile workers rarely contend. Returned payload slices are immutable
// cache-owned memory — callers alias them into bitstreams and artifacts
// without copying, and eviction only drops the cache's reference (aliased
// payloads stay alive until their frames retire).

import (
	"bytes"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

const (
	tcShards = 8
	// tcDoorSlots is the per-shard doorkeeper size. Slots hold the last
	// hash seen at that index; a second sighting admits. 512 slots x 8
	// shards track 4096 recent hashes in 32 KiB.
	tcDoorSlots = 512
	// tcEntryOverhead approximates the per-entry bookkeeping bytes charged
	// against the byte budget on top of content+reference+payload.
	tcEntryOverhead = 96
	// DefaultTileCacheBytes is the byte budget NewTileCache(0) applies —
	// enough for the full quantized content plus payloads of several 4K
	// frames worth of distinct tiles.
	DefaultTileCacheBytes = 128 << 20
)

// tileCacheHash hashes tile content for cache addressing. Package-level so
// tests can force collisions and prove the full-content verification on hit.
var tileCacheHash = hashContent

// hashContent addresses tile content b coded against ref (nil for none) at
// row width rowBytes with CRC32-Castagnoli over b and then ref, which is a
// single hardware instruction per word on amd64/arm64 — an order of
// magnitude faster over tile-sized inputs than any scalar software mix,
// which matters because never-repeating content (noise) pays exactly one
// hash pass per miss and nothing else. 32 bits of state are plenty for
// bucket addressing: every hit re-verifies the row width and the full
// bytes, so a collision costs a chain walk, never wrong payload bytes. The
// length, the row width and whether there is a reference go in the high
// half so tiles of different geometry or kind seldom share a chain.
func hashContent(b, ref []byte, rowBytes int) uint64 {
	hi := uint64(len(b)) ^ uint64(rowBytes)<<16
	sum := crc32.Checksum(b, castagnoli)
	if ref != nil {
		hi ^= 1 << 31
		sum = crc32.Update(sum, castagnoli, ref)
	}
	return hi<<32 | uint64(sum)
}

// tcEntry is one cached payload. content, ref and rowBytes are the
// verification key (copies of the coded bytes and of their reference, nil
// for none, and the row width they were coded at), payload their coded form
// and crc the payload's CRC32-Castagnoli.
type tcEntry struct {
	hash     uint64
	content  []byte
	ref      []byte
	rowBytes int
	payload  []byte
	crc      uint32

	hnext      *tcEntry // same-hash chain
	lruP, lruN *tcEntry // doubly-linked LRU, head = most recent
}

// tcShard is one lock stripe: hash chain map + LRU + doorkeeper + budget.
type tcShard struct {
	mu     sync.Mutex
	m      map[uint64]*tcEntry
	head   *tcEntry
	tail   *tcEntry
	bytes  int64
	budget int64
	door   [tcDoorSlots]uint64
}

// TileCache is a bounded, sharded, content-addressed payload cache. The
// zero value is not usable; construct with NewTileCache. A nil *TileCache
// is valid everywhere and behaves as an always-miss, never-admit cache.
type TileCache struct {
	shards [tcShards]tcShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewTileCache returns a cache bounded to roughly maxBytes of content +
// reference + payload memory (0 = DefaultTileCacheBytes).
func NewTileCache(maxBytes int64) *TileCache {
	if maxBytes <= 0 {
		maxBytes = DefaultTileCacheBytes
	}
	c := &TileCache{}
	per := maxBytes / tcShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*tcEntry)
		c.shards[i].budget = per
	}
	return c
}

// Lookup returns the cached payload and CRC for content coded against ref
// (nil for none) at row width rowBytes, verifying the row width and the
// full content and reference bytes before declaring a hit. Every call
// counts exactly one hit or one miss, which is the accounting contract the
// soak conservation invariant checks (hits + misses == payload tiles coded
// + splice tiles cut). Nil-safe; allocation-free.
func (c *TileCache) Lookup(content, ref []byte, rowBytes int) (payload []byte, crc uint32, ok bool) {
	if c == nil {
		return nil, 0, false
	}
	return c.lookupHashed(tileCacheHash(content, ref, rowBytes), content, ref, rowBytes)
}

// lookupHashed is Lookup with the hash already computed, so a
// miss-then-Insert sequence hashes the bytes exactly once (the hash pass
// is the dominant miss cost on never-repeating content). Callers must pass
// h == tileCacheHash(content, ref, rowBytes) and a non-nil receiver.
func (c *TileCache) lookupHashed(h uint64, content, ref []byte, rowBytes int) (payload []byte, crc uint32, ok bool) {
	sh := &c.shards[h&(tcShards-1)]
	sh.mu.Lock()
	for e := sh.m[h]; e != nil; e = e.hnext {
		if e.matches(content, ref, rowBytes) {
			sh.moveFrontLocked(e)
			sh.mu.Unlock()
			c.hits.Add(1)
			return e.payload, e.crc, true
		}
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	return nil, 0, false
}

// Insert offers (content, ref, rowBytes, payload, crc) after a Lookup
// miss. It returns the canonical cache-owned payload when the entry was
// admitted (possibly one another worker raced in first), or nil when the
// doorkeeper rejected the first sighting — the caller then keeps using its
// own scratch payload. Content, reference and payload are copied on
// admission; the caller's slices are never retained. Nil-safe.
func (c *TileCache) Insert(content, ref []byte, rowBytes int, payload []byte, crc uint32) []byte {
	if c == nil {
		return nil
	}
	return c.insertHashed(tileCacheHash(content, ref, rowBytes), content, ref, rowBytes, payload, crc)
}

// insertHashed is Insert with the hash already computed (paired with
// lookupHashed; same contract).
func (c *TileCache) insertHashed(h uint64, content, ref []byte, rowBytes int, payload []byte, crc uint32) []byte {
	sh := &c.shards[h&(tcShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// A concurrent worker coding the same tile may have admitted it
	// between our Lookup and this Insert; dedupe under the lock.
	for e := sh.m[h]; e != nil; e = e.hnext {
		if e.matches(content, ref, rowBytes) {
			sh.moveFrontLocked(e)
			return e.payload
		}
	}
	// Two-slot doorkeeper probe: a hash is remembered in two independently
	// addressed slots and admitted when either still holds it. With one
	// slot, two recurring hashes sharing it evict each other's first
	// sighting forever and neither is ever admitted — a once-per-stripe-
	// cycle miss per victim tile that shows up as a p99 spike on otherwise
	// fully-cached content. Starvation now needs a collision in both slots.
	s1 := &sh.door[(h>>3)%tcDoorSlots]
	s2 := &sh.door[(h>>17)%tcDoorSlots]
	if *s1 != h && *s2 != h {
		*s1, *s2 = h, h // first sighting: remember, do not admit
		return nil
	}
	e := &tcEntry{
		hash:     h,
		content:  append([]byte(nil), content...),
		rowBytes: rowBytes,
		payload:  append([]byte(nil), payload...),
		crc:      crc,
		hnext:    sh.m[h],
	}
	if ref != nil {
		e.ref = append(make([]byte, 0, len(ref)), ref...)
	}
	sh.m[h] = e
	sh.pushFrontLocked(e)
	sh.bytes += e.size()
	for sh.bytes > sh.budget && sh.tail != nil && sh.tail != e {
		c.evictions.Add(1)
		sh.evictLocked(sh.tail)
	}
	return e.payload
}

// Stats returns the lifetime hit, miss and eviction counts.
func (c *TileCache) Stats() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// Len returns the number of cached entries (test and debug surface).
func (c *TileCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			for ; e != nil; e = e.hnext {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// matches reports whether e caches content coded against ref at row width
// rowBytes.
func (e *tcEntry) matches(content, ref []byte, rowBytes int) bool {
	return e.rowBytes == rowBytes && (e.ref == nil) == (ref == nil) &&
		bytes.Equal(e.content, content) && bytes.Equal(e.ref, ref)
}

// size is what e charges against its shard's byte budget.
func (e *tcEntry) size() int64 {
	return int64(len(e.content)+len(e.ref)+len(e.payload)) + tcEntryOverhead
}

// pushFrontLocked links e at the LRU head.
func (sh *tcShard) pushFrontLocked(e *tcEntry) {
	e.lruP = nil
	e.lruN = sh.head
	if sh.head != nil {
		sh.head.lruP = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// moveFrontLocked refreshes e's LRU position.
func (sh *tcShard) moveFrontLocked(e *tcEntry) {
	if sh.head == e {
		return
	}
	if e.lruP != nil {
		e.lruP.lruN = e.lruN
	}
	if e.lruN != nil {
		e.lruN.lruP = e.lruP
	}
	if sh.tail == e {
		sh.tail = e.lruP
	}
	sh.pushFrontLocked(e)
}

// evictLocked unlinks e from the LRU, the hash chain and the budget.
// Payload memory aliased into in-flight bitstreams stays alive until those
// frames drop their references; the cache only forgets its own.
func (sh *tcShard) evictLocked(e *tcEntry) {
	if e.lruP != nil {
		e.lruP.lruN = e.lruN
	} else {
		sh.head = e.lruN
	}
	if e.lruN != nil {
		e.lruN.lruP = e.lruP
	} else {
		sh.tail = e.lruP
	}
	e.lruP, e.lruN = nil, nil
	if head := sh.m[e.hash]; head == e {
		if e.hnext != nil {
			sh.m[e.hash] = e.hnext
		} else {
			delete(sh.m, e.hash)
		}
	} else {
		for p := head; p != nil; p = p.hnext {
			if p.hnext == e {
				p.hnext = e.hnext
				break
			}
		}
	}
	e.hnext = nil
	sh.bytes -= e.size()
}
