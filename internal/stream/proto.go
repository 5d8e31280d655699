// Package stream is the real-time implementation of the cloud-3D pipeline:
// a hub that renders a synthetic 3D application, encodes frames with the real
// codec once per resolution lane and streams them to one or many viewers over
// net.Conn, and a client that decodes, displays and measures QoS — with the
// regulation policy (ODR, Interval or NoReg) chosen when the hub is built.
// The ODR components (MultiBuffer, Pacer, InputBox, RenderClock) are the same
// package core objects the simulator uses, running on the real-time runtime
// (package realrt).
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Message types on the wire.
const (
	msgFrame  byte = 1 // server -> client: encoded frame
	msgInput  byte = 2 // client -> server: user input event
	msgBye    byte = 3 // either direction: orderly shutdown
	msgKeyReq byte = 4 // client -> server: request a keyframe (decoder resync)
)

// maxPayload bounds a message payload (64 MiB) to fail fast on corruption.
const maxPayload = 64 << 20

// allocChunk caps how much readMsg allocates ahead of bytes actually
// arriving, so a corrupt length prefix cannot force a 64 MiB allocation.
const allocChunk = 64 << 10

// frameHeaderLen is seq(8) + parentSeq(8) + inputID(8) + inputNanos(8) +
// renderNanos(8) + crc32(4). parentSeq is the seq of the frame this delta
// was encoded against (0 for keyframes): a client that decodes frame N
// against anything but frame parentSeq would silently show wrong pixels, so
// a parent-chain mismatch — caused by a lost frame, or by the server
// dropping an already-encoded frame — triggers a keyframe resync instead.
// The CRC covers the bitstream and then the header's first 40 bytes,
// catching byte corruption that the codec would otherwise decode "validly"
// into wrong pixels, or that would show a frame under a wrong seq.
const frameHeaderLen = 44

var (
	errPayloadTooLarge = errors.New("stream: payload exceeds limit")
	errFrameChecksum   = errors.New("stream: frame checksum mismatch")
)

// writeMsg writes one length-prefixed message: type(1) len(4) payload.
func writeMsg(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxPayload {
		return errPayloadTooLarge
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		// A zero-length Write on a synchronous net.Pipe blocks until a
		// matching zero-length Read that never happens; skip it.
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readMsg reads one message. buf is reused when large enough.
func readMsg(r io.Reader, buf []byte) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ = hdr[0]
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > maxPayload {
		return 0, nil, fmt.Errorf("stream: message of %d bytes exceeds limit", n)
	}
	if cap(buf) >= n {
		payload = buf[:n]
		if _, err = io.ReadFull(r, payload); err != nil {
			return 0, nil, err
		}
		return typ, payload, nil
	}
	// Grow in allocChunk steps, each funded by bytes that actually arrived,
	// so a forged length prefix costs its sender the data, not us the memory.
	payload = buf[:0]
	tmp := make([]byte, min(n, allocChunk))
	for remaining := n; remaining > 0; {
		c := min(remaining, allocChunk)
		if _, err = io.ReadFull(r, tmp[:c]); err != nil {
			return 0, nil, err
		}
		payload = append(payload, tmp[:c]...)
		remaining -= c
	}
	return typ, payload, nil
}

// frameMeta is the decoded frame message header.
type frameMeta struct {
	seq         uint64
	parentSeq   uint64 // seq the delta was encoded against; 0 for keyframes
	inputID     uint64
	inputNanos  int64
	renderNanos int64
}

// putFrameHeader fills the frameHeaderLen-byte frame message header in
// place, so hot paths can build header+bitstream in one recycled buffer.
// bitstream must be the payload that follows the header (for the CRC).
func putFrameHeader(dst []byte, m frameMeta, bitstream []byte) {
	putFrameHeaderCRC(dst, m, crc32.ChecksumIEEE(bitstream))
}

// putFrameHeaderCRC is putFrameHeader with a precomputed bitstream CRC, for
// fan-out paths that checksum a shared bitstream once and reuse it across
// every viewer's header: the stored CRC extends it over the header fields,
// which differ per viewer.
func putFrameHeaderCRC(dst []byte, m frameMeta, crc uint32) {
	binary.LittleEndian.PutUint64(dst[0:], m.seq)
	binary.LittleEndian.PutUint64(dst[8:], m.parentSeq)
	binary.LittleEndian.PutUint64(dst[16:], m.inputID)
	binary.LittleEndian.PutUint64(dst[24:], uint64(m.inputNanos))
	binary.LittleEndian.PutUint64(dst[32:], uint64(m.renderNanos))
	binary.LittleEndian.PutUint32(dst[40:], frameCRC(crc, dst))
}

// frameCRC is the CRC a frame header stores: the bitstream's CRC extended
// over the header's first 40 bytes, everything in it but the CRC itself.
func frameCRC(bitstreamCRC uint32, hdr []byte) uint32 {
	return crc32.Update(bitstreamCRC, crc32.IEEETable, hdr[:40])
}

// frameMsg encodes a frame message payload: header + bitstream.
func frameMsg(m frameMeta, bitstream []byte) []byte {
	out := make([]byte, frameHeaderLen+len(bitstream))
	copy(out[frameHeaderLen:], bitstream)
	putFrameHeader(out, m, out[frameHeaderLen:])
	return out
}

// parseFrameMsg splits a frame message payload, verifying the CRC over the
// bitstream and the header (errFrameChecksum on mismatch — the client
// resyncs rather than decoding corrupt data into wrong pixels or under a
// wrong seq).
func parseFrameMsg(p []byte) (m frameMeta, bitstream []byte, err error) {
	if len(p) < frameHeaderLen {
		return frameMeta{}, nil, errors.New("stream: short frame message")
	}
	m.seq = binary.LittleEndian.Uint64(p[0:])
	m.parentSeq = binary.LittleEndian.Uint64(p[8:])
	m.inputID = binary.LittleEndian.Uint64(p[16:])
	m.inputNanos = int64(binary.LittleEndian.Uint64(p[24:]))
	m.renderNanos = int64(binary.LittleEndian.Uint64(p[32:]))
	bitstream = p[frameHeaderLen:]
	if frameCRC(crc32.ChecksumIEEE(bitstream), p) != binary.LittleEndian.Uint32(p[40:]) {
		return frameMeta{}, nil, errFrameChecksum
	}
	return m, bitstream, nil
}

// inputMsg encodes an input message payload: id(8) + clientNanos(8).
func inputMsg(id uint64, nanos int64) []byte {
	var out [16]byte
	binary.LittleEndian.PutUint64(out[0:], id)
	binary.LittleEndian.PutUint64(out[8:], uint64(nanos))
	return out[:]
}

// parseInputMsg splits an input message payload.
func parseInputMsg(p []byte) (id uint64, nanos int64, err error) {
	if len(p) < 16 {
		return 0, 0, errors.New("stream: short input message")
	}
	return binary.LittleEndian.Uint64(p[0:]), int64(binary.LittleEndian.Uint64(p[8:])), nil
}
