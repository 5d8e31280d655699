package codec

// The legacy v1 bitstream: one flat byte stream per frame, zero-run RLE as
// its only entropy stage. Encoders emit it only on request (Options.Version
// 1, or Bands); it survives as the odrbench baseline and a decoder arm, and
// this file (with bands.go) is the only place run-length coding lives — the
// v2 tile bitstream codes its payloads with payload.go.
//
// Layout (all integers little-endian):
//
//	byte 0:     magic 0xD3
//	byte 1:     frame type (0 = key, 1 = delta, 2 = bands)
//	byte 2:     quantization shift (0-7)
//	bytes 3-6:  width (uint32)
//	bytes 7-10: height (uint32)
//	bytes 11+:  RLE payload (bands.go for type 2)
//
// RLE payload tokens:
//
//	0x00 <uvarint n>            — n zero bytes
//	0x01 <uvarint n> <n bytes>  — n literal bytes

import "encoding/binary"

const (
	magic     = 0xD3
	headerLen = 11

	// minZeroRun is the zero-run length worth breaking a literal run for:
	// a zero token costs >= 2 bytes, so runs of 4+ compress.
	minZeroRun = 4
)

// encodeV1 appends one v1 frame to dst. len(pix) is already validated.
func (e *Encoder) encodeV1(dst, pix []byte) []byte {
	q := e.quantizeInto(pix)
	isKey := e.prev == nil || e.count%e.opts.KeyInterval == 0
	e.count++

	base := len(dst)
	var hdr [headerLen]byte
	out := append(dst, hdr[:]...)
	out[base] = magic
	out[base+2] = byte(e.opts.QuantShift)
	binary.LittleEndian.PutUint32(out[base+3:], uint32(e.w))
	binary.LittleEndian.PutUint32(out[base+7:], uint32(e.h))

	switch {
	case isKey:
		out[base+1] = frameKey
		out = rleAppend(out, q)
	case e.opts.Bands:
		out[base+1] = frameBands
		out = e.appendBands(out, q, e.prev)
	default:
		out[base+1] = frameDelta
		delta := grow(e.delta, len(q))
		deltaInto(delta, q, e.prev)
		e.delta = delta
		out = rleAppend(out, delta)
	}
	// q lives in e.qbuf; keep it as the new reference frame and let the old
	// reference become the next quantization target.
	e.prev, e.qbuf = q, e.prev
	e.frames++
	e.bytes += int64(len(out) - base)
	return out
}

// quantizeInto quantizes pix into the encoder's reusable buffer.
func (e *Encoder) quantizeInto(pix []byte) []byte {
	out := grow(e.qbuf, len(pix))
	e.qbuf = out
	if e.opts.QuantShift == 0 {
		copy(out, pix)
		return out
	}
	maskInto(out, pix, 0xFF<<e.opts.QuantShift)
	return out
}

// decodeV1 decodes one v1 frame.
func (d *Decoder) decodeV1(bs []byte) ([]byte, error) {
	if len(bs) < headerLen {
		return nil, ErrTruncated
	}
	if bs[0] != magic {
		return nil, ErrBadMagic
	}
	ftype := bs[1]
	w := int(binary.LittleEndian.Uint32(bs[3:]))
	h := int(binary.LittleEndian.Uint32(bs[7:]))
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim {
		return nil, ErrDimensions
	}
	size := w * h * 4
	if d.cur != nil && (d.w != w || d.h != h) {
		return nil, ErrDimensions
	}
	switch ftype {
	case frameKey:
		d.scratch = grow(d.scratch, size)
		if err := rleDecodeInto(d.scratch, bs[headerLen:]); err != nil {
			return nil, err
		}
		d.w, d.h = w, h
		d.cur, d.scratch = d.scratch, d.cur
	case frameDelta:
		if d.cur == nil {
			return nil, ErrNoKeyframe
		}
		d.scratch = grow(d.scratch, size)
		if err := rleDecodeInto(d.scratch, bs[headerLen:]); err != nil {
			return nil, err
		}
		addInto(d.cur, d.scratch)
	case frameBands:
		if d.cur == nil {
			return nil, ErrNoKeyframe
		}
		if err := d.applyBands(bs[headerLen:], w, h); err != nil {
			return nil, err
		}
	default:
		return nil, ErrCorrupt
	}
	return d.cur, nil
}

// rleAppend appends the RLE coding of data to dst and returns dst. The
// run scanners walk the data a word at a time but keep the exact token
// boundaries of the original byte-loop coder: zero runs are taken whole,
// and literal runs break at the first zero run of minZeroRun+ bytes.
func rleAppend(dst, data []byte) []byte {
	var scratch [binary.MaxVarintLen64]byte
	i := 0
	for i < len(data) {
		var j int
		if data[i] == 0 {
			j = zeroRunEnd(data, i)
			dst = append(dst, 0x00)
			n := binary.PutUvarint(scratch[:], uint64(j-i))
			dst = append(dst, scratch[:n]...)
			i = j
			continue
		}
		j = literalRunEnd(data, i)
		dst = append(dst, 0x01)
		n := binary.PutUvarint(scratch[:], uint64(j-i))
		dst = append(dst, scratch[:n]...)
		dst = append(dst, data[i:j]...)
		i = j
	}
	return dst
}

// rleDecode expands an RLE payload into exactly size bytes.
func rleDecode(payload []byte, size int) ([]byte, error) {
	out := make([]byte, size)
	if err := rleDecodeInto(out, payload); err != nil {
		return nil, err
	}
	return out, nil
}

// rleDecodeInto expands an RLE payload into exactly len(dst) bytes without
// allocating: zero runs clear the destination range in place (dst is reused
// across frames, so stale bytes must be overwritten) and literal runs copy.
//
// Hostile-input hardening: every run length is bounded against the space
// remaining in dst *before* the cursor advances or a byte is written, while
// still a uint64 — a crafted uvarint near 2^64 can neither drive a huge
// memset nor wrap to a negative int and bypass the slice bounds.
func rleDecodeInto(dst, payload []byte) error {
	o := 0
	i := 0
	for i < len(payload) {
		tok := payload[i]
		i++
		n, used := binary.Uvarint(payload[i:])
		if used <= 0 {
			return ErrCorrupt
		}
		i += used
		if n > uint64(len(dst)-o) {
			return ErrCorrupt
		}
		switch tok {
		case 0x00:
			clear(dst[o : o+int(n)])
			o += int(n)
		case 0x01:
			if n > uint64(len(payload)-i) {
				return ErrTruncated
			}
			copy(dst[o:], payload[i:i+int(n)])
			o += int(n)
			i += int(n)
		default:
			return ErrCorrupt
		}
	}
	if o != len(dst) {
		return ErrTruncated
	}
	return nil
}

// hasZeroByte reports whether any byte lane of v is zero.
func hasZeroByte(v uint64) bool {
	return (v-swarLo)&^v&swarHi != 0
}

// zeroRunEnd returns the index of the first non-zero byte at or after i
// (len(data) if the run reaches the end), skipping eight bytes per probe
// through the body of the run.
func zeroRunEnd(data []byte, i int) int {
	for i+8 <= len(data) && binary.LittleEndian.Uint64(data[i:]) == 0 {
		i += 8
	}
	for i < len(data) && data[i] == 0 {
		i++
	}
	return i
}

// literalRunEnd returns where the literal run starting at i ends: at the
// first zero of the next zero-run of minZeroRun+ bytes, or at len(data).
// Words with no zero byte are skipped eight at a time; the byte-stepping
// fallback keeps the exact run-boundary semantics of the original scanner.
func literalRunEnd(data []byte, i int) int {
	zeros := 0
	for i < len(data) {
		if zeros == 0 && i+8 <= len(data) {
			if w := binary.LittleEndian.Uint64(data[i:]); !hasZeroByte(w) {
				i += 8
				continue
			}
		}
		if data[i] == 0 {
			zeros++
			if zeros >= minZeroRun {
				return i - (zeros - 1)
			}
		} else {
			zeros = 0
		}
		i++
	}
	return len(data)
}
