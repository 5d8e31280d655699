package codec

// The bitstream: the frame is split into fixed-height tile rows, each an
// independent encode/decode unit. An unchanged tile is skipped with a
// directory flag; the per-tile offset table lets tiles encode and decode
// concurrently, and the per-tile CRC32 localizes corruption to a tile
// instead of killing the frame.
//
// Layout (all integers little-endian):
//
//	byte 0:       magic 0xD4
//	byte 1:       version (5; any other value is answered with ErrVersion)
//	byte 2:       frame type (0 = key, 1 = delta)
//	byte 3:       quantization shift (0-7)
//	bytes 4-7:    width  (uint32)
//	bytes 8-11:   height (uint32)
//	bytes 12-13:  tile height in pixel rows (uint16)
//	bytes 14-15:  tile count (uint16; must equal ceil(height/tileRows))
//	then per tile, 9 bytes of directory:
//	    byte 0:     flags (bit 0 = dirty; bit 1 = intra; clean tiles carry
//	                no payload)
//	    bytes 1-4:  payload length (uint32)
//	    bytes 5-8:  CRC32-Castagnoli of the payload
//	then the tile payloads, concatenated in tile order.
//
// Each payload is the predictive pair-table coding (payload.go) of the tile's
// quantized content (key frames) or of its byte-wise delta against the
// previous frame (delta frames). Key frames mark every tile dirty.
//
// The intra flag (splice.go) marks a dirty tile of a *delta* frame whose
// payload is absolute content rather than a delta: the decoder copies it
// into place instead of adding it. Spliced frames use it to repair exactly
// the tiles a session's reconstruction is missing while every other tile
// ships as a zero-byte clean entry. Intra is illegal on clean tiles and on
// key frames (whose tiles are all absolute already).
//
// Determinism: workers encode tiles into per-tile scratch buffers and the
// assembly loop concatenates them in fixed tile order, so the bitstream is
// byte-identical whether one worker or sixteen ran the tiles — the pinned
// TestV2SerialParallelByteIdentical guards this.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

const (
	magic2   = 0xD4
	version2 = 5 // version byte of the bitstream

	hdr2Len     = 16
	dirEntryLen = 9

	// DefaultTileRows is the tile height used when Options.TileRows is
	// zero; exported so accounting invariants (tiles per frame =
	// ceil(h/DefaultTileRows)) can be checked from outside the package.
	DefaultTileRows = 16
	maxTileCount    = 1<<16 - 1

	tileFlagDirty = 0x01
	tileFlagIntra = 0x02
)

// castagnoli is the per-tile CRC polynomial (hardware-accelerated on
// amd64/arm64, unlike IEEE on some targets).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTileCRC marks a frame that carried one or more corrupt tile
// payloads. The frame still decodes partially (intact tiles update, corrupt
// tiles keep their previous content); match with errors.Is.
var ErrTileCRC = errors.New("codec: tile payload failed its checksum")

// TileError lists the corrupt tiles of a partially-decoded frame, in
// ascending tile order. errors.Is(err, ErrTileCRC) matches it.
type TileError struct{ Tiles []int }

// Error implements error.
func (e *TileError) Error() string {
	return fmt.Sprintf("codec: %d corrupt tile(s) %v", len(e.Tiles), e.Tiles)
}

// Unwrap makes errors.Is(err, ErrTileCRC) match.
func (e *TileError) Unwrap() error { return ErrTileCRC }

// tileCount returns the number of tileRows-high tiles covering height h.
func tileCount(h, rows int) int { return (h + rows - 1) / rows }

// tileRange returns the byte range of tile i in a w×h RGBA frame split
// into rows-high tiles (the last tile may be short).
func tileRange(w, h, rows, i int) (start, end int) {
	rowBytes := w * 4
	start = i * rows * rowBytes
	end = start + rows*rowBytes
	if max := h * rowBytes; end > max {
		end = max
	}
	return start, end
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

// ensureTileState sizes the per-tile scratch slices once; the tile count is
// fixed per encoder, so steady-state frames find them allocated.
func (e *Encoder) ensureTileState(nt int) {
	if len(e.tilePayload) == nt {
		return
	}
	e.tilePayload = make([][]byte, nt)
	e.tileScratch = make([][]byte, nt)
	e.tileQ = make([][]byte, nt)
	e.tileDelta = make([][]byte, nt)
	e.tileCRC = make([]uint32, nt)
	e.tileDirty = make([]bool, nt)
	e.tileChanged = make([]bool, nt)
	e.tileRawOK = make([]bool, nt)
	e.tileIntra = make([]bool, nt)
	e.tileNanos = make([]int64, nt)
	e.workList = make([]int, 0, nt)
	e.tileChangedAt = make([]int64, nt)
	e.splicePayload = make([][]byte, nt)
	e.spliceScratch = make([][]byte, nt)
	e.spliceCRC = make([]uint32, nt)
	e.spliceAt = make([]int64, nt)
}

// encodeTile codes work-list slot k — one tile the pre-pass selected — into
// the tile's own output slots. It runs concurrently with other tiles: the
// only shared input it reads is its own disjoint slice of e.curPix/e.prev,
// and all outputs are tile-indexed, so the tile regions never race.
func (e *Encoder) encodeTile(k int) {
	start := time.Now()
	i := e.workList[k]
	s, end := tileRange(e.w, e.h, e.tileRows, i)
	if e.tileChanged[i] && !e.curKey && !e.tileIntra[i] {
		// Changed tile shipping as a delta — the hot case. The fused kernel
		// computes quantize(pix) - prev in one pass without materializing
		// the quantized content, then the reference is re-quantized in
		// place from the raw pixels (prev = pix & mask — the same bytes a
		// materialized content copy would have landed; tile ranges are
		// disjoint so concurrent workers never overlap). prevRaw is NOT
		// refreshed here — the pre-pass dropped tileRawOK for this tile and
		// rebuilds the raw reference the next time it classifies clean.
		d := grow(e.tileDelta[i], end-s)
		e.tileDelta[i] = d
		maskSubInto(d, e.curPix[s:end], e.prev[s:end], 0xFF<<e.opts.QuantShift)
		e.tilePayload[i], e.tileCRC[i] = e.codePayload(&e.tileScratch[i], d)
		if e.opts.QuantShift == 0 {
			copy(e.prev[s:end], e.curPix[s:end])
		} else {
			maskInto(e.prev[s:end], e.curPix[s:end], 0xFF<<e.opts.QuantShift)
		}
		e.tileDirty[i] = true
		e.tileNanos[i] = time.Since(start).Nanoseconds()
		return
	}
	// Absolute-content cases: every tile of a key frame, and this frame's
	// keyframe stripe (changed or not).
	var content []byte
	if e.tileChanged[i] {
		q := grow(e.tileQ[i], end-s)
		e.tileQ[i] = q
		if e.opts.QuantShift == 0 {
			copy(q, e.curPix[s:end])
		} else {
			maskInto(q, e.curPix[s:end], 0xFF<<e.opts.QuantShift)
		}
		content = q
	} else {
		// Stripe refresh of an unchanged tile: the reference already holds
		// exactly its quantized content — no quantization work at all.
		content = e.prev[s:end]
	}
	e.tilePayload[i], e.tileCRC[i] = e.codePayload(&e.tileScratch[i], content)
	e.tileDirty[i] = true
	if e.tileChanged[i] {
		// Fold the tile into the persistent reference; tile ranges are
		// disjoint, so concurrent workers never overlap.
		copy(e.prev[s:end], content)
	}
	e.tileNanos[i] = time.Since(start).Nanoseconds()
}

// codePayload produces the payload and CRC for src — the one place tile
// bytes meet the payload coder — through the content-addressed cache when
// one is configured. On a hit the payload aliases immutable cache memory
// (never the scratch), so one encoded payload is shared across frames,
// encoders and hub lanes without copying; a miss codes into the
// caller-owned scratch and offers the result for admission. Cached or fresh,
// the bytes are identical — payload and CRC are pure functions of src and
// the row width (see cache.go).
func (e *Encoder) codePayload(scratch *[]byte, src []byte) ([]byte, uint32) {
	c := e.opts.Cache
	rowBytes := e.w * 4
	var h uint64
	if c != nil {
		h = tileCacheHash(src, rowBytes)
		if payload, crc, ok := c.lookupHashed(h, src, rowBytes); ok {
			return payload, crc
		}
	}
	p := appendPayload((*scratch)[:0], src, rowBytes)
	*scratch = p
	crc := crc32.Checksum(p, castagnoli)
	if c != nil {
		if canon := c.insertHashed(h, src, rowBytes, p, crc); canon != nil {
			p = canon
		}
	}
	return p, crc
}

// encodeTiles appends one frame to dst: predict which tiles need work,
// fan only those across the worker pool, then assemble header + directory +
// payloads in fixed tile order.
func (e *Encoder) encodeTiles(dst, pix []byte) ([]byte, error) {
	nt := tileCount(e.h, e.tileRows)
	if nt > maxTileCount {
		return nil, fmt.Errorf("codec: %d tiles exceed the format limit %d", nt, maxTileCount)
	}
	e.ensureTileState(nt)
	if e.prev == nil {
		e.prev = make([]byte, e.FrameSize())
	}
	if e.prevRaw == nil {
		e.prevRaw = make([]byte, e.FrameSize())
	}
	isKey := !e.refValid || (!e.opts.StripeKeyframes && e.count%e.opts.KeyInterval == 0)
	e.curPix, e.curKey = pix, isKey
	e.predictTiles(nt, isKey)
	e.count++
	e.group.Map(e.opts.Workers, len(e.workList), e.encTask)
	e.curPix = nil

	base := len(dst)
	var hdr [hdr2Len]byte
	hdr[0] = magic2
	hdr[1] = version2
	if isKey {
		hdr[2] = frameKey
	} else {
		hdr[2] = frameDelta
	}
	hdr[3] = byte(e.opts.QuantShift)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(e.w))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(e.h))
	binary.LittleEndian.PutUint16(hdr[12:], uint16(e.tileRows))
	binary.LittleEndian.PutUint16(hdr[14:], uint16(nt))
	out := append(dst, hdr[:]...)

	dirty := 0
	encIdx := e.frames + 1
	var ent [dirEntryLen]byte
	for i := 0; i < nt; i++ {
		ent[0] = 0
		if e.tileDirty[i] {
			ent[0] = tileFlagDirty
			if !isKey && e.tileIntra[i] {
				ent[0] |= tileFlagIntra
			}
			dirty++
		}
		if e.tileChanged[i] {
			// Key frames mark every tile changed whether its content moved
			// or not, so this is conservative there — a later splice may
			// intra-code a tile that did not really change, which costs
			// bytes, never pixels. Stripe refreshes of unchanged tiles do
			// NOT advance the clock: their content is what it was, so
			// splices stay minimal.
			e.tileChangedAt[i] = encIdx
		}
		binary.LittleEndian.PutUint32(ent[1:], uint32(len(e.tilePayload[i])))
		binary.LittleEndian.PutUint32(ent[5:], e.tileCRC[i])
		out = append(out, ent[:]...)
	}
	for i := 0; i < nt; i++ {
		out = append(out, e.tilePayload[i]...)
	}

	e.lastTiles, e.lastDirty = nt, dirty
	e.refValid = true
	e.frames++
	e.bytes += int64(len(out) - base)
	return out, nil
}

// TileStats reports the tile accounting of the last encoded frame: how many
// tiles the frame had and how many were dirty (coded). Both are zero before
// the first frame.
func (e *Encoder) TileStats() (tiles, dirty int) { return e.lastTiles, e.lastDirty }

// TileNanos returns the per-tile encode durations (nanoseconds, tile order)
// of the last encoded frame, in a freshly allocated slice the caller owns.
// Tiles the pre-pass skipped report 0.
// Hot paths that sample every frame should use TileNanosAppend instead.
func (e *Encoder) TileNanos() []int64 {
	return append([]int64(nil), e.tileNanos[:e.lastTiles]...)
}

// TileNanosAppend appends the last frame's per-tile encode durations to dst
// and returns the extended slice, so per-frame samplers can reuse one
// buffer instead of allocating. Like all last-frame accessors it must be
// called before the next Encode on this encoder (under the same lock that
// serializes encoding).
func (e *Encoder) TileNanosAppend(dst []int64) []int64 {
	return append(dst, e.tileNanos[:e.lastTiles]...)
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

// ensureTileState sizes the decoder's per-tile directory scratches.
func (d *Decoder) ensureTileState(nt int) {
	if len(d.tileOff) == nt {
		return
	}
	d.tileOff = make([]int, nt)
	d.tileLen = make([]int, nt)
	d.tileCRC = make([]uint32, nt)
	d.tileGood = make([]bool, nt)
	d.tileIntra = make([]bool, nt)
	d.tileErr = make([]error, nt)
}

// decodeTile validates and applies one tile of the in-flight frame. It
// runs concurrently with other tiles: tile regions are disjoint, shared
// inputs read-only, and the per-tile error slot carries the outcome.
func (d *Decoder) decodeTile(i int) {
	s, end := tileRange(d.curW, d.curH, d.curRows, i)
	dst := d.scratch[s:end]
	if !d.tileGood[i] { // clean tile of a delta frame: nothing to apply
		d.tileErr[i] = nil
		return
	}
	seg := d.curBS[d.tileOff[i] : d.tileOff[i]+d.tileLen[i]]
	keepOld := func() {
		// A corrupt tile of a key frame keeps its previous content in the
		// new frame buffer (zeros when there is no previous frame); a
		// corrupt delta tile simply is not applied.
		if d.curKeyF {
			if d.cur != nil {
				copy(dst, d.cur[s:end])
			} else {
				clear(dst)
			}
		}
	}
	if crc32.Checksum(seg, castagnoli) != d.tileCRC[i] {
		d.tileErr[i] = ErrTileCRC
		keepOld()
		return
	}
	if err := decodePayload(dst, seg, d.curW*4); err != nil {
		d.tileErr[i] = err
		keepOld()
		return
	}
	d.tileErr[i] = nil
	if !d.curKeyF {
		if d.tileIntra[i] {
			// Intra tile of a delta frame: absolute content replaces the
			// tile instead of adding to it (spliced resync frames).
			copy(d.cur[s:end], dst)
		} else {
			addInto(d.cur[s:end], dst)
		}
	}
}

// decodeTiles decodes one frame whose magic byte Decode has checked. Intact
// tiles apply even when some tiles are corrupt; see Decode's contract.
func (d *Decoder) decodeTiles(bs []byte) ([]byte, error) {
	if len(bs) < hdr2Len {
		return nil, ErrTruncated
	}
	if bs[1] != version2 {
		return nil, ErrVersion
	}
	ftype := bs[2]
	if ftype != frameKey && ftype != frameDelta {
		return nil, ErrCorrupt
	}
	isKey := ftype == frameKey
	w := int(binary.LittleEndian.Uint32(bs[4:]))
	h := int(binary.LittleEndian.Uint32(bs[8:]))
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim {
		return nil, ErrDimensions
	}
	rows := int(binary.LittleEndian.Uint16(bs[12:]))
	nt := int(binary.LittleEndian.Uint16(bs[14:]))
	if rows <= 0 || nt != tileCount(h, rows) {
		return nil, ErrCorrupt
	}
	if d.cur != nil && (d.w != w || d.h != h) {
		return nil, ErrDimensions
	}
	if !isKey && d.cur == nil {
		return nil, ErrNoKeyframe
	}

	// Walk the directory before touching any payload byte: offsets are
	// prefix sums of the declared lengths, every length is bounded by the
	// bytes actually present, and the payloads must exactly exhaust the
	// frame — no gaps, no trailing junk.
	dirEnd := hdr2Len + nt*dirEntryLen
	if len(bs) < dirEnd {
		return nil, ErrTruncated
	}
	d.ensureTileState(nt)
	off := dirEnd
	for i := 0; i < nt; i++ {
		ent := bs[hdr2Len+i*dirEntryLen:]
		flags := ent[0]
		if flags&^(tileFlagDirty|tileFlagIntra) != 0 {
			return nil, ErrCorrupt
		}
		// Kept unsigned until checked against the bytes left: on a 32-bit
		// host int(plen) of a hostile length is negative.
		plen := binary.LittleEndian.Uint32(ent[1:])
		dirtyTile := flags&tileFlagDirty != 0
		intraTile := flags&tileFlagIntra != 0
		if !dirtyTile && (plen != 0 || isKey) {
			// Clean tiles carry no payload, and key frames have no clean
			// tiles — every tile of a keyframe is self-contained content.
			return nil, ErrCorrupt
		}
		if intraTile && (!dirtyTile || isKey) {
			// Intra marks absolute content inside a delta frame; it is
			// meaningless on a clean tile and redundant-therefore-illegal
			// on a key frame.
			return nil, ErrCorrupt
		}
		if uint64(plen) > uint64(len(bs)-off) {
			return nil, ErrTruncated
		}
		d.tileOff[i], d.tileLen[i] = off, int(plen)
		d.tileCRC[i] = binary.LittleEndian.Uint32(ent[5:])
		d.tileGood[i] = dirtyTile
		d.tileIntra[i] = intraTile
		off += int(plen)
	}
	if off != len(bs) {
		return nil, ErrCorrupt
	}

	size := w * h * 4
	d.scratch = grow(d.scratch, size)
	d.curBS, d.curKeyF, d.curW, d.curH, d.curRows = bs, isKey, w, h, rows
	if d.group != nil {
		if d.decTask == nil {
			d.decTask = d.decodeTile
		}
		d.group.Map(d.workers, nt, d.decTask)
	} else {
		for i := 0; i < nt; i++ {
			d.decodeTile(i)
		}
	}
	d.curBS = nil

	if isKey {
		d.w, d.h = w, h
		d.cur, d.scratch = d.scratch, d.cur
	}
	d.badTiles = d.badTiles[:0]
	for i := 0; i < nt; i++ {
		if d.tileErr[i] != nil {
			d.badTiles = append(d.badTiles, i)
		}
	}
	if len(d.badTiles) > 0 {
		return d.cur, &TileError{Tiles: append([]int(nil), d.badTiles...)}
	}
	return d.cur, nil
}
