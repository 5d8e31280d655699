package stream

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadMsg feeds arbitrary byte streams to the wire-framing reader. The
// invariants under attack: no panic, allocation bounded by the bytes that
// actually arrived (a forged length prefix must not buy a 64 MiB slice), and
// every well-formed message round-trips.
func FuzzReadMsg(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{msgFrame, 0, 0, 0, 0})
	f.Add([]byte{msgInput, 16, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{msgBye, 0xFF, 0xFF, 0xFF, 0xFF}) // forged 4 GiB length
	f.Add([]byte{msgKeyReq, 0, 0, 0, 0x04})       // 64 MiB + ε: over the limit
	if m := frameMsg(frameMeta{seq: 1, inputID: 2, inputNanos: 3, renderNanos: 4}, []byte{0xD3, 0}); true {
		stream := append([]byte{msgFrame, byte(len(m)), 0, 0, 0}, m...)
		f.Add(stream)
	}
	f.Add([]byte{0xEE, 4, 0, 0, 0, 'j', 'u', 'n', 'k'}) // a type no peer sends: the hub ends such a session
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, payload, err := readMsg(r, nil)
			if err != nil {
				// Truncated or oversized input must error, never hang or
				// panic. EOF family and the size-limit error are the only
				// legitimate shapes here.
				return
			}
			// The payload must be funded by bytes that actually arrived.
			if len(payload) > len(data) {
				t.Fatalf("payload %d bytes from %d input bytes", len(payload), len(data))
			}
			if cap(payload) > 2*len(data)+allocChunk {
				t.Fatalf("readMsg over-allocated: cap %d for %d input bytes", cap(payload), len(data))
			}
			switch typ {
			case msgFrame:
				// Frame parsing must not panic either; checksum errors are
				// the expected rejection path for corrupt payloads.
				if m, bs, err := parseFrameMsg(payload); err == nil {
					// A payload that parses must re-encode identically.
					if !bytes.Equal(frameMsg(m, bs), payload) {
						t.Fatal("frame message did not round-trip")
					}
				} else if !errors.Is(err, errFrameChecksum) && err.Error() != "stream: short frame message" {
					t.Fatalf("unexpected parse error shape: %v", err)
				}
			case msgInput:
				_, _, _ = parseInputMsg(payload)
			}
		}
	})
}

// FuzzFrameRoundTrip fuzzes the frame header encode/decode pair directly:
// any metadata and bitstream must survive a round-trip, and any single-byte
// corruption of the bitstream must be caught by the CRC.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(7), int64(100), int64(200), []byte{0xD3, 0, 1})
	f.Add(uint64(9), uint64(8), uint64(0), int64(-1), int64(0), []byte{})
	f.Fuzz(func(t *testing.T, seq, parent, inputID uint64, inNanos, rNanos int64, bs []byte) {
		in := frameMeta{seq: seq, parentSeq: parent, inputID: inputID, inputNanos: inNanos, renderNanos: rNanos}
		msg := frameMsg(in, bs)
		out, gotBS, err := parseFrameMsg(msg)
		if err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
		if out != in || !bytes.Equal(gotBS, bs) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", out, in)
		}
		if len(bs) > 0 {
			msg[frameHeaderLen] ^= 0x01
			if _, _, err := parseFrameMsg(msg); !errors.Is(err, errFrameChecksum) {
				t.Fatalf("bitstream corruption not caught: %v", err)
			}
		}
	})
}

// TestReadMsgShortWrites drives readMsg through a reader that delivers one
// byte at a time — framing must be byte-accurate, not read-boundary-lucky.
func TestReadMsgShortWrites(t *testing.T) {
	msg := frameMsg(frameMeta{seq: 3, parentSeq: 2}, []byte{1, 2, 3, 4})
	var wire bytes.Buffer
	if err := writeMsg(&wire, msgFrame, msg); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readMsg(&oneByteReader{data: wire.Bytes()}, nil)
	if err != nil || typ != msgFrame || !bytes.Equal(payload, msg) {
		t.Fatalf("one-byte-at-a-time read: typ=%d err=%v", typ, err)
	}
}

// oneByteReader delivers at most one byte per Read.
type oneByteReader struct{ data []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	p[0] = r.data[0]
	r.data = r.data[1:]
	return 1, nil
}
