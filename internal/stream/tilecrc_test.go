package stream

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"odr/internal/chaos"
	"odr/internal/codec"
	"odr/internal/testutil"
)

// TestClientPartialDecodeOnTileCorruption exercises the interplay between
// the wire CRC and the per-tile CRCs: a bitstream corrupted *before* the
// frame header was stamped (server-side memory corruption, not wire noise)
// passes the outer checksum, so only the v2 tile CRC can catch it. The
// client must display the intact tiles, keep the previous content in the
// corrupt one, request a keyframe, and recover fully when it lands.
func TestClientPartialDecodeOnTileCorruption(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const w, h = 16, 40 // three 16-row tiles, the last short
	const rowBytes = w * 4
	tile0 := [2]int{0, 16 * rowBytes}
	tile2 := [2]int{32 * rowBytes, h * rowBytes}

	pixA := make([]byte, w*h*4)
	for i := range pixA {
		pixA[i] = byte(i*7 + 3)
	}
	pixB := append([]byte(nil), pixA...)
	for i := 0; i < 16; i++ { // touch tile 0 and tile 2; tile 1 stays clean
		pixB[tile0[0]+i]++
		pixB[tile2[0]+i]++
	}

	enc := codec.NewEncoder(w, h, codec.Options{QuantShift: 0, KeyInterval: 1 << 20})
	bs1, err := enc.Encode(pixA)
	if err != nil {
		t.Fatal(err)
	}
	bs2, err := enc.Encode(pixB)
	if err != nil {
		t.Fatal(err)
	}
	// The final byte of the bitstream belongs to the last dirty tile's
	// payload (tile 2). Flip it BEFORE stamping the frame header, so the
	// wire CRC is consistent with the already-corrupt bitstream.
	bs2[len(bs2)-1] ^= 0xFF

	sc, cc := net.Pipe()
	defer sc.Close()
	cli := NewClient(cc)
	type capture struct {
		seq uint64
		pix []byte
	}
	frames := make(chan capture, 4)
	cli.OnFrame(func(seq uint64, pix []byte) {
		frames <- capture{seq, append([]byte(nil), pix...)}
	})
	cliDone := make(chan error, 1)
	go func() { cliDone <- cli.Run() }()

	srvDone := make(chan error, 1)
	go func() {
		srvDone <- func() error {
			if err := writeMsg(sc, msgFrame, frameMsg(frameMeta{seq: 1}, bs1)); err != nil {
				return err
			}
			if err := writeMsg(sc, msgFrame, frameMsg(frameMeta{seq: 2, parentSeq: 1}, bs2)); err != nil {
				return err
			}
			typ, _, err := readMsg(sc, nil)
			if err != nil {
				return err
			}
			if typ != msgKeyReq {
				return fmt.Errorf("expected msgKeyReq after tile corruption, got type %d", typ)
			}
			enc.ForceKeyframe()
			key, err := enc.Encode(pixB)
			if err != nil {
				return err
			}
			if err := writeMsg(sc, msgFrame, frameMsg(frameMeta{seq: 3}, key)); err != nil {
				return err
			}
			return writeMsg(sc, msgBye, nil)
		}()
	}()

	select {
	case err := <-srvDone:
		if err != nil {
			t.Fatalf("mock server: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mock server stuck")
	}
	select {
	case err := <-cliDone:
		if err != nil {
			t.Fatalf("client: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client stuck")
	}

	got := map[uint64][]byte{}
	for len(frames) > 0 {
		c := <-frames
		got[c.seq] = c.pix
	}
	partial, ok := got[2]
	if !ok {
		t.Fatal("the partially-decoded frame was never displayed")
	}
	if !bytes.Equal(partial[tile0[0]:tile0[1]], pixB[tile0[0]:tile0[1]]) {
		t.Error("intact tile 0 was not applied in the partial frame")
	}
	if !bytes.Equal(partial[tile2[0]:tile2[1]], pixA[tile2[0]:tile2[1]]) {
		t.Error("corrupt tile 2 did not keep its previous content")
	}
	if !bytes.Equal(got[3], pixB) {
		t.Error("post-resync keyframe did not restore pixel identity")
	}
	rep := cli.Report()
	if rep.Resyncs != 1 || rep.Frames != 3 {
		t.Fatalf("report = %+v, want 1 resync and 3 displayed frames", rep)
	}
}

// TestReconnectRejectsStaleDeltaChain cuts the first session with a chaos
// disconnect schedule mid-frame, then has the "server" continue its delta
// chain on the new connection — as a server that never noticed the
// reconnect would. The client must reject that first post-reconnect delta
// (fresh decoder, fresh chain state), resync via keyframe request, and
// never display the stale delta.
func TestReconnectRejectsStaleDeltaChain(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const w, h = 16, 40
	pix := func(step byte) []byte {
		p := make([]byte, w*h*4)
		for i := range p {
			p[i] = byte(i)*3 + step*17
		}
		return p
	}
	pA, pB, pC := pix(0), pix(1), pix(2)
	enc := codec.NewEncoder(w, h, codec.Options{QuantShift: 0, KeyInterval: 1 << 20})
	mustEncode := func(p []byte) []byte {
		bs, err := enc.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}
	msg1 := frameMsg(frameMeta{seq: 1}, mustEncode(pA))               // key
	msg2 := frameMsg(frameMeta{seq: 2, parentSeq: 1}, mustEncode(pB)) // delta
	msg3 := frameMsg(frameMeta{seq: 3, parentSeq: 2}, mustEncode(pC)) // delta: the stale-chain frame

	// The disconnect lands exactly on the header write of the third frame:
	// session 1 delivers frames 1 and 2 whole, then dies mid-stream.
	disc := chaos.MustParse(fmt.Sprintf("disc@%d", 10+len(msg1)+len(msg2)))

	var sessionN atomic.Int32
	serverConns := make(chan net.Conn, 2)
	dial := func() (net.Conn, error) {
		sc, cc := net.Pipe()
		if sessionN.Add(1) == 1 {
			serverConns <- chaos.Wrap(sc, disc, 1)
		} else {
			serverConns <- sc
		}
		return cc, nil
	}
	cli := NewReconnectingClient(dial, ReconnectPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
		Seed:        1,
	})
	var seqs []uint64
	cli.OnFrame(func(seq uint64, pix []byte) { seqs = append(seqs, seq) })
	cliDone := make(chan error, 1)
	go func() { cliDone <- cli.Run() }()

	srvDone := make(chan error, 1)
	go func() {
		srvDone <- func() error {
			conn1 := <-serverConns
			if err := writeMsg(conn1, msgFrame, msg1); err != nil {
				return err
			}
			if err := writeMsg(conn1, msgFrame, msg2); err != nil {
				return err
			}
			if err := writeMsg(conn1, msgFrame, msg3); err == nil {
				return fmt.Errorf("expected the chaos disconnect to cut frame 3")
			}
			conn1.Close() // the cut link dies for the reader too

			conn2 := <-serverConns
			defer conn2.Close()
			// Continue the old delta chain as if nothing happened.
			if err := writeMsg(conn2, msgFrame, msg3); err != nil {
				return err
			}
			typ, _, err := readMsg(conn2, nil)
			if err != nil {
				return err
			}
			if typ != msgKeyReq {
				return fmt.Errorf("expected msgKeyReq for the stale delta, got type %d", typ)
			}
			enc.ForceKeyframe()
			key, err := enc.Encode(pC)
			if err != nil {
				return err
			}
			if err := writeMsg(conn2, msgFrame, frameMsg(frameMeta{seq: 4}, key)); err != nil {
				return err
			}
			return writeMsg(conn2, msgBye, nil)
		}()
	}()

	select {
	case err := <-srvDone:
		if err != nil {
			t.Fatalf("mock server: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mock server stuck")
	}
	select {
	case err := <-cliDone:
		if err != nil {
			t.Fatalf("client: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client stuck")
	}

	want := []uint64{1, 2, 4}
	if len(seqs) != len(want) {
		t.Fatalf("displayed seqs %v, want %v", seqs, want)
	}
	for i, s := range want {
		if seqs[i] != s {
			t.Fatalf("displayed seqs %v, want %v — the stale delta must never display", seqs, want)
		}
	}
	rep := cli.Report()
	if rep.Reconnects != 1 || rep.Resyncs != 1 {
		t.Fatalf("report = %+v, want 1 reconnect and 1 resync", rep)
	}
}

// TestClientPooledDecodeMatchesSerial feeds one stream to a Client, whose
// decoder runs tiles on the shared worker pool, and to a serial
// codec.Decoder: a key, deltas, a catch-up spliced over two frames the
// client never saw, a delta with one CRC-damaged tile, a delta sent while
// the resync is pending, and the key that answers it. The client must show
// the serial decoder's pixels for every frame it displays, the damaged
// frame's partial pixels included, and send exactly one msgKeyReq, after
// the damaged frame.
func TestClientPooledDecodeMatchesSerial(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const w, h = 96, 72 // five tiles, the last short
	g := NewGame(w, h)
	pix := make([]byte, g.FrameBytes())
	enc := codec.NewEncoder(w, h, codec.Options{KeyInterval: 1 << 20})
	next := func() []byte {
		g.Render(pix)
		bs, err := enc.Encode(pix)
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}
	type sent struct {
		m       frameMeta
		bs      []byte
		shown   bool // the client displays it (it is not skipped for the resync)
		damaged bool
	}
	var stream []sent
	stream = append(stream, sent{m: frameMeta{seq: 1}, bs: next(), shown: true})
	stream = append(stream, sent{m: frameMeta{seq: 2, parentSeq: 1}, bs: next(), shown: true})
	stream = append(stream, sent{m: frameMeta{seq: 3, parentSeq: 2}, bs: next(), shown: true})
	parent := enc.Frames()
	next() // seqs 4 and 5 never reach the client: it catches up by splice
	next()
	splice, err := enc.AppendSplice(nil, parent)
	if err != nil {
		t.Fatal(err)
	}
	if codec.IsKeyframe(splice) || enc.LastSpliceTiles() == 0 {
		t.Fatalf("the catch-up is not a spliced delta (%d tiles)", enc.LastSpliceTiles())
	}
	stream = append(stream, sent{m: frameMeta{seq: 5, parentSeq: 3}, bs: splice, shown: true})
	stream = append(stream, sent{m: frameMeta{seq: 6, parentSeq: 5}, bs: next(), shown: true})
	damaged := next()
	// The last byte is the last dirty tile's payload; the wire CRC is
	// stamped over the damaged bitstream, so only the tile CRC sees it.
	damaged[len(damaged)-1] ^= 0xFF
	stream = append(stream, sent{m: frameMeta{seq: 7, parentSeq: 6}, bs: damaged, shown: true, damaged: true})
	stream = append(stream, sent{m: frameMeta{seq: 8, parentSeq: 7}, bs: next()})
	enc.ForceKeyframe()
	stream = append(stream, sent{m: frameMeta{seq: 9}, bs: next(), shown: true})
	stream = append(stream, sent{m: frameMeta{seq: 10, parentSeq: 9}, bs: next(), shown: true})

	// The serial reference decodes what the client is expected to display.
	ref := codec.NewDecoder()
	want := map[uint64][]byte{}
	for _, f := range stream {
		if !f.shown {
			continue
		}
		p, err := ref.Decode(f.bs)
		if f.damaged && !errors.Is(err, codec.ErrTileCRC) || !f.damaged && err != nil {
			t.Fatalf("serial decode of seq %d: %v", f.m.seq, err)
		}
		want[f.m.seq] = append([]byte(nil), p...)
	}

	sc, cc := net.Pipe()
	defer sc.Close()
	cli := NewClient(cc)
	var shown []uint64
	got := map[uint64][]byte{}
	cli.OnFrame(func(seq uint64, p []byte) {
		shown = append(shown, seq)
		got[seq] = append([]byte(nil), p...)
	})
	cliDone := make(chan error, 1)
	go func() { cliDone <- cli.Run() }()
	upstream := make(chan byte, 8) // message types the client sent
	go func() {
		defer close(upstream)
		for {
			typ, _, err := readMsg(sc, nil)
			if err != nil {
				return
			}
			upstream <- typ
		}
	}()
	for _, f := range stream {
		if err := writeMsg(sc, msgFrame, frameMsg(f.m, f.bs)); err != nil {
			t.Fatal(err)
		}
		if !f.damaged {
			continue
		}
		select {
		case typ := <-upstream:
			if typ != msgKeyReq {
				t.Fatalf("client sent type %d after the damaged frame, want msgKeyReq", typ)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("no msgKeyReq after the damaged frame")
		}
	}
	if err := writeMsg(sc, msgBye, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-cliDone:
		if err != nil {
			t.Fatalf("client: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client stuck")
	}
	sc.Close()
	for typ := range upstream {
		t.Errorf("client sent an unexpected message of type %d", typ)
	}

	if len(shown) != len(want) {
		t.Fatalf("client displayed seqs %v, want the %d the serial decoder decoded", shown, len(want))
	}
	for _, seq := range shown {
		if !bytes.Equal(got[seq], want[seq]) {
			t.Errorf("seq %d: the pooled client's pixels differ from the serial decode", seq)
		}
	}
	if rep := cli.Report(); rep.Resyncs != 1 {
		t.Errorf("report = %+v, want 1 resync", rep)
	}
}
