package codec

import "bytes"

// Dirty-tile prediction: a cheap, read-only pre-pass that decides — before
// any coding work is dispatched — which tiles of the incoming frame need an
// encoder at all. The per-tile scans fan across the same worker pool as the
// encode itself; the work list is assembled serially afterwards in tile
// order, so prediction parallelism can never reorder the bitstream.
//
// The encoder used to discover cleanliness mid-encode: quantize the whole
// frame into a fresh buffer, fan every tile out to the pool, and have each
// tile worker compare its quantized slice against the reference before
// (maybe) coding. That costs two full-frame passes (quantize write +
// compare) plus a task dispatch per tile even when nothing changed.
//
// The pre-pass replaces all of that with one fused read-only sweep:
// maskedEqual (wide.go) compares the raw pixels, masked on the fly with the
// quantization mask, directly against the persistent quantized reference.
// Static tiles are classified clean without ever being quantized, copied or
// dispatched; dynamic tiles exit the comparison on the first differing word
// and land on the work list. Only work-list tiles reach the pool, and only
// they quantize (per tile, into per-tile scratch) and update the reference.
//
// A raw-reference shortcut makes the static case cheaper still: prevRaw
// holds, for every tile with tileRawOK set, unquantized pixels whose
// quantization equals prev — so bytes.Equal(pix[t], prevRaw[t]) alone
// proves the tile clean. Raw equality is a plain memcmp — which the
// runtime vectorizes far wider than any scalar masked compare — so a fully
// static frame costs one SIMD sweep; maskedEqual only runs for tiles whose
// raw bytes moved (and still classifies sub-quantum noise as clean). The
// raw reference is maintained lazily, on the clean path only: a tile that
// codes just drops its tileRawOK bit and the next clean classification
// re-establishes it, so constantly-changing content never pays a raw copy.
//
// The same pass selects the temporal keyframe stripe: with
// Options.StripeKeyframes set, delta frame number c intra-refreshes the
// tiles whose index ≡ c (mod KeyInterval), so every tile is re-anchored as
// absolute content once per KeyInterval frames and the periodic full
// keyframe — the p99 encode-time spike — disappears from the cadence
// entirely (the first frame, and any ForceKeyframe, still key-frames).

// predictTiles classifies every tile of e.curPix and rebuilds e.workList
// with the tiles that need coding: content-dirty tiles, this frame's
// keyframe stripe, and all tiles on a key frame. Classification fans across
// the worker pool — per tile it is a read-only scan plus tile-indexed
// output slots, the same disjointness argument as the encode Map — and the
// work list is then assembled serially in ascending tile order, so the
// bitstream stays byte-identical at every worker count.
func (e *Encoder) predictTiles(nt int, isKey bool) {
	e.workList = e.workList[:0]
	if isKey {
		for i := 0; i < nt; i++ {
			e.tileChanged[i] = true
			e.tileRawOK[i] = false
			e.tileIntra[i] = false
			e.workList = append(e.workList, i)
		}
		return
	}
	e.curPhase = -1
	if e.opts.StripeKeyframes {
		e.curPhase = e.count % e.opts.KeyInterval
	}
	e.group.Map(e.opts.Workers, nt, e.predTask)
	for i := 0; i < nt; i++ {
		if e.tileChanged[i] || e.tileIntra[i] {
			e.workList = append(e.workList, i)
		}
	}
}

// predictTile classifies one tile of a delta frame. Clean skipped tiles have
// their outputs zeroed here so the assembly loop reads consistent state
// without touching the pool again.
func (e *Encoder) predictTile(i int) {
	s, end := tileRange(e.w, e.h, e.tileRows, i)
	pix := e.curPix[s:end]
	changed := false
	if !e.tileRawOK[i] || !bytes.Equal(pix, e.prevRaw[s:end]) {
		if maskedEqual(pix, e.prev[s:end], 0xFF<<e.opts.QuantShift) {
			// Clean, but the raw reference is stale (the tile coded
			// recently, or raw bytes moved sub-quantum). Refresh it so the
			// next frame's fast path sees these pixels as baseline.
			copy(e.prevRaw[s:end], pix)
			e.tileRawOK[i] = true
		} else {
			changed = true
			e.tileRawOK[i] = false
		}
	}
	striped := e.curPhase >= 0 && i%e.opts.KeyInterval == e.curPhase
	e.tileChanged[i] = changed
	e.tileIntra[i] = striped
	if !changed && !striped {
		e.tileDirty[i] = false
		e.tilePayload[i] = nil
		e.tileCRC[i] = 0
		e.tileNanos[i] = 0
	}
}
