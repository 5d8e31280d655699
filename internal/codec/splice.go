package codec

// Bitstream splicing: cutting a per-session resync frame out of a shared
// encoder's state without disturbing that encoder's delta chain.
//
// A hub that encodes once and fans out to N viewers has a problem the
// per-session-encoder design never had: a late joiner (or a viewer whose
// delta chain broke) needs absolute content, but forcing a keyframe on the
// shared encoder would cost every healthy viewer a full-frame payload.
// AppendSplice solves it with the per-tile directory — the encoder knows,
// per tile, the last encode whose content moved (tileChangedAt), so it can
// emit a frame containing absolute ("intra") payloads for exactly the tiles
// the session is missing and zero-byte clean entries for the rest:
//
//   - parent == 0: a full key frame cut from e.prev. Decodable with no prior
//     state; what a late joiner gets.
//   - parent > 0: a delta frame whose changed-since-parent tiles carry the
//     dirty|intra flags with absolute content. A session that last displayed
//     encode index `parent` decodes it into exactly the shared encoder's
//     current reconstruction; unchanged tiles are byte-identical on both
//     sides already (deltas are byte-exact), so they ship as clean.
//
// Either way the session lands on e.prev — the same reconstruction every
// verbatim subscriber holds — so the shared stream's next delta applies
// cleanly and the splice never forks the chain.
//
// Intra payloads are memoized per tile (splicePayload/spliceCRC, valid while the
// tile hasn't changed since it was cut), so a churn of joiners against a
// mostly-static scene re-uses one coding pass per tile instead of paying
// O(joiners × frame) encode work.
//
// Concurrency: AppendSplice reads e.prev/tileChangedAt and writes the
// memo slices; callers must serialize it against EncodeAppend and against
// other AppendSplice calls (the hub holds one mutex per shared encoder).

import (
	"encoding/binary"
	"errors"
)

// ErrNoSpliceState is returned by AppendSplice before the encoder has
// encoded its first frame (there is no reconstruction to cut tiles from).
var ErrNoSpliceState = errors.New("codec: splice before first encoded frame")

// AppendSplice appends a resync frame for a session whose reconstruction is
// the shared stream at encode index parent (a past Frames() value), or a
// full key frame when parent <= 0. The spliced frame brings the session to
// the encoder's current reconstruction without touching the encoder's own
// key/delta cadence. The encoder's streaming counters (Frames, Bytes) are
// not advanced: a splice is a per-session repair, not a shared-stream frame.
func (e *Encoder) AppendSplice(dst []byte, parent int64) ([]byte, error) {
	if e.frames == 0 {
		return nil, ErrNoSpliceState
	}
	nt := tileCount(e.h, e.tileRows)
	e.ensureTileState(nt)
	isKey := parent <= 0

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

	included := 0
	var ent [dirEntryLen]byte
	for i := 0; i < nt; i++ {
		ent = [dirEntryLen]byte{}
		if isKey || e.tileChangedAt[i] > parent {
			e.ensureIntraTile(i)
			included++
			ent[0] = tileFlagDirty
			if !isKey {
				ent[0] |= tileFlagIntra
			}
			binary.LittleEndian.PutUint32(ent[1:], uint32(len(e.splicePayload[i])))
			binary.LittleEndian.PutUint32(ent[5:], e.spliceCRC[i])
		}
		out = append(out, ent[:]...)
	}
	for i := 0; i < nt; i++ {
		if isKey || e.tileChangedAt[i] > parent {
			out = append(out, e.splicePayload[i]...)
		}
	}
	e.lastSpliceTiles = included
	return out, nil
}

// LastSpliceTiles returns how many tiles the most recent AppendSplice
// included (payload-carrying entries). With a cache configured, each of
// them did exactly one cache lookup — the accounting hubs publish for the
// soak's cache conservation invariant. Read under the caller's encoder
// lock, like AppendSplice itself.
func (e *Encoder) LastSpliceTiles() int { return e.lastSpliceTiles }

// ensureIntraTile refreshes tile i's intra payload cut from e.prev. With a
// content-addressed cache the payload is looked up (and admitted) there —
// a churn of joiners against tiles the frame path already coded absolute
// (keys, stripe refreshes) shares those payload bytes outright, across
// every lane and session on the cache. Without a cache the per-encoder
// memo (spliceAt vs tileChangedAt) keeps it to one coding pass per change.
func (e *Encoder) ensureIntraTile(i int) {
	if e.opts.Cache == nil && e.spliceAt[i] > 0 && e.spliceAt[i] >= e.tileChangedAt[i] {
		return
	}
	s, end := tileRange(e.w, e.h, e.tileRows, i)
	e.splicePayload[i], e.spliceCRC[i] = e.codePayload(&e.spliceScratch[i], e.prev[s:end], nil)
	e.spliceAt[i] = e.frames
}
