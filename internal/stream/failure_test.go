package stream

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"odr/internal/chaos"
	"odr/internal/codec"
	"odr/internal/obs"
	"odr/internal/testutil"
)

// ---------------------------------------------------------------------------
// Failure matrix: every chaos fault kind × {Client, Hub} with an explicit
// expected outcome. The chaos schedules are seeded and offset-based,
// so each cell exercises the same fault at the same point in the stream on
// every run.
//
// Outcomes:
//   - tolerate:   the stream keeps delivering frames through the fault
//   - resume:     delivery breaks but recovers (keyframe resync or reconnect)
//   - evict:      the hub detects the stall via its deadline and cuts the
//                 session (eviction counters observable)
//   - cleanError: the session terminates with an error — no hang, no panic,
//                 no goroutine leak
// ---------------------------------------------------------------------------

const matrixSeed = 1

// --- Client column: a reconnecting client against a Hub -------------------

type clientCell struct {
	kind   chaos.Kind
	spec   string
	expect string
}

func TestFailureMatrixClient(t *testing.T) {
	cells := []clientCell{
		// loss@6x2 swallows both writes of one frame message (header +
		// payload) — a whole frame vanishes without breaking framing, which
		// only the parent-chain check can detect. corrupt@5 lands exactly on
		// the first payload write, which only the bitstream CRC can detect.
		{chaos.Latency, "latency@0:2ms", "tolerate"},
		{chaos.Bandwidth, "bw@0:1048576", "tolerate"},
		{chaos.Loss, "loss@6x2", "resume"},
		{chaos.Corrupt, "corrupt@5", "resume"},
		{chaos.StallRead, "stallr@1:50ms", "tolerate"},
		{chaos.StallWrite, "stallw@6000:50ms", "tolerate"},
		{chaos.Disconnect, "disc@9000", "resume"},
		{chaos.HalfOpen, "halfopen@2000", "resume"},
	}
	for _, cell := range cells {
		t.Run(cell.kind.String(), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			sched := chaos.MustParse(cell.spec)
			h := NewHub(HubConfig{Width: 32, Height: 18, TargetFPS: 240})
			go h.Run()
			defer h.Stop()

			// Each dial is a fresh faulty path: write-side faults wrap the
			// hub's end (they shape the frame stream), read-side faults wrap
			// the client's end (they starve its reads).
			dial := func() (net.Conn, error) {
				sc, cc := net.Pipe()
				switch cell.kind {
				case chaos.StallRead, chaos.HalfOpen:
					h.Attach(sc, 0, nil)
					return chaos.Wrap(cc, sched, matrixSeed), nil
				default:
					h.Attach(chaos.Wrap(sc, sched, matrixSeed), 0, nil)
					return cc, nil
				}
			}
			cli := NewReconnectingClient(dial, ReconnectPolicy{
				MaxAttempts: 8,
				BaseDelay:   5 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
				IdleTimeout: 300 * time.Millisecond,
				Seed:        matrixSeed,
			})
			runErr := make(chan error, 1)
			go func() { runErr <- cli.Run() }()

			// The fault offsets all land within the first ~10 KiB of frame
			// traffic, so 40 decoded frames prove post-fault progress.
			waitFrames(t, cli, 40, 15*time.Second)
			rep := cli.Report()
			if cell.expect == "resume" && rep.Resyncs+rep.Reconnects == 0 {
				t.Errorf("%s: expected a resync or reconnect, got none (%+v)", cell.kind, rep)
			}
			cli.Stop()
			select {
			case err := <-runErr:
				if err != nil {
					t.Errorf("%s: client Run: %v", cell.kind, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: client did not stop", cell.kind)
			}
			h.Stop()
		})
	}
}

// --- Hub column: a faulted victim session next to a healthy peer ----------

type hubCell struct {
	kind       chaos.Kind
	spec       string
	expect     string
	readTO     time.Duration
	writeTO    time.Duration
	sendInputs bool // both clients push inputs (read-deadline cells)
}

func TestFailureMatrixHub(t *testing.T) {
	cells := []hubCell{
		{kind: chaos.Latency, spec: "latency@0:2ms", expect: "tolerate"},
		{kind: chaos.Bandwidth, spec: "bw@0:1048576", expect: "tolerate"},
		{kind: chaos.Loss, spec: "loss@6x2", expect: "resume"},
		{kind: chaos.Corrupt, spec: "corrupt@5", expect: "resume"},
		{kind: chaos.StallRead, spec: "stallr@1:10s", expect: "evict",
			readTO: 150 * time.Millisecond, sendInputs: true},
		{kind: chaos.StallWrite, spec: "stallw@6000:300ms", expect: "evict",
			writeTO: 100 * time.Millisecond},
		{kind: chaos.Disconnect, spec: "disc@9000", expect: "cleanError"},
		{kind: chaos.HalfOpen, spec: "halfopen@0", expect: "evict",
			readTO: 150 * time.Millisecond, sendInputs: true},
	}
	for _, cell := range cells {
		t.Run(cell.kind.String(), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			reg := obs.NewRegistry()
			h := NewHub(HubConfig{
				Width: 32, Height: 18, TargetFPS: 240,
				ReadTimeout: cell.readTO, WriteTimeout: cell.writeTO,
				Metrics: reg,
			})
			go h.Run()
			defer h.Stop()
			splicedKeys := reg.CounterVec(NameHubSplicedKeyframes, "", "lane").With1("1")

			// Healthy peer: a clean conn on the same hub, streaming before the
			// victim joins.
			hs, hc := net.Pipe()
			h.Attach(hs, 0, nil)
			healthy := NewClient(hc)
			healthyErr := make(chan error, 1)
			go func() { healthyErr <- healthy.Run() }()
			waitFrames(t, healthy, 1, 10*time.Second)
			keys0 := splicedKeys.Value()

			// Victim: its hub-side conn runs under the fault schedule.
			vs, vc := net.Pipe()
			victimGone := make(chan SessionStats, 1)
			h.Attach(chaos.Wrap(vs, chaos.MustParse(cell.spec), matrixSeed), 0,
				func(s SessionStats) { victimGone <- s })
			victim := NewClient(vc)
			victimErr := make(chan error, 1)
			var victimDone bool
			go func() { victimErr <- victim.Run() }()

			// Teardown runs even when an assertion t.Fatals out mid-cell;
			// each loop channel is received exactly once.
			defer func() {
				victim.Stop()
				healthy.Stop()
				h.Stop()
				if !victimDone {
					select {
					case <-victimErr:
					case <-time.After(10 * time.Second):
						t.Errorf("%s: victim client did not stop", cell.kind)
					}
				}
				select {
				case <-healthyErr:
				case <-time.After(10 * time.Second):
					t.Errorf("%s: healthy client did not stop", cell.kind)
				}
			}()

			stopInputs := make(chan struct{})
			if cell.sendInputs {
				for _, c := range []*Client{victim, healthy} {
					go func(c *Client) {
						for {
							select {
							case <-stopInputs:
								return
							case <-time.After(20 * time.Millisecond):
								if _, err := c.SendInput(); err != nil {
									return
								}
							}
						}
					}(c)
				}
			}
			defer close(stopInputs)

			switch cell.expect {
			case "tolerate":
				waitFrames(t, victim, 40, 15*time.Second)
			case "resume":
				waitFrames(t, victim, 40, 15*time.Second)
				if rep := victim.Report(); rep.Resyncs == 0 {
					t.Errorf("%s: victim expected a resync (%+v)", cell.kind, rep)
				}
				// The victim joined a running lane, so its first frame was a
				// spliced keyframe; its keyframe request must have cut another.
				if n := splicedKeys.Value() - keys0; n < 2 {
					t.Errorf("%s: %d keyframes spliced since the victim joined, want its join's and its resync's", cell.kind, n)
				}
			case "evict":
				select {
				case <-victimGone:
				case <-time.After(15 * time.Second):
					t.Fatalf("%s: victim session never detached", cell.kind)
				}
				if got := h.Evicted(); got != 1 {
					t.Errorf("%s: hub Evicted = %d, want 1", cell.kind, got)
				}
			case "cleanError":
				// The victim's session must terminate (client error or EOF);
				// cut the conn afterwards so the hub-side session detaches.
				select {
				case <-victimErr:
					victimDone = true
				case <-time.After(15 * time.Second):
					t.Fatalf("%s: victim never terminated", cell.kind)
				}
				victim.Stop()
				select {
				case <-victimGone:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: victim session never detached", cell.kind)
				}
			}

			// The healthy peer must be unaffected in every cell.
			waitFrames(t, healthy, 40, 15*time.Second)
			if h.Evicted() > 1 {
				t.Errorf("%s: healthy peer was evicted too", cell.kind)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Protocol-level recovery tests (kept from the pre-matrix suite, updated for
// the parent-chain + CRC header).
// ---------------------------------------------------------------------------

// TestClientResyncsMidStreamJoin verifies the keyframe-recovery protocol: a
// client that joins after the stream started (first frame it sees is a
// delta) requests a keyframe and recovers instead of failing.
func TestClientResyncsMidStreamJoin(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sc, cc := net.Pipe()
	defer sc.Close()

	// Hand-rolled "server": pre-encode three frames (key, delta, delta),
	// send only the deltas first, then answer the key request with a fresh
	// keyframe.
	game := NewGame(16, 9)
	enc := codec.NewEncoder(16, 9, codec.Options{})
	pix := make([]byte, game.FrameBytes())
	encodeNext := func() []byte {
		game.Render(pix)
		bs, err := enc.Encode(pix)
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}
	_ = encodeNext() // keyframe the client never sees
	delta1 := encodeNext()
	delta2 := encodeNext()

	cli := NewClient(cc)
	cliDone := make(chan error, 1)
	go func() { cliDone <- cli.Run() }()

	// A real server reads inputs concurrently with writing frames; the mock
	// must too, or the synchronous pipe deadlocks.
	keyReqs := make(chan byte, 16)
	go func() {
		for {
			typ, _, err := readMsg(sc, nil)
			if err != nil {
				close(keyReqs)
				return
			}
			keyReqs <- typ
		}
	}()
	serverDone := make(chan error, 1)
	go func() {
		// Send the two deltas the client cannot decode.
		if err := writeMsg(sc, msgFrame, frameMsg(frameMeta{seq: 2, parentSeq: 1}, delta1)); err != nil {
			serverDone <- err
			return
		}
		if err := writeMsg(sc, msgFrame, frameMsg(frameMeta{seq: 3, parentSeq: 2}, delta2)); err != nil {
			serverDone <- err
			return
		}
		// Expect a keyframe request.
		typ, ok := <-keyReqs
		if !ok || typ != msgKeyReq {
			serverDone <- errors.New("expected msgKeyReq")
			return
		}
		enc.ForceKeyframe()
		key := encodeNext()
		if err := writeMsg(sc, msgFrame, frameMsg(frameMeta{seq: 4}, key)); err != nil {
			serverDone <- err
			return
		}
		serverDone <- writeMsg(sc, msgBye, nil)
	}()

	select {
	case err := <-serverDone:
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
	rep := cli.Report()
	if rep.Resyncs == 0 {
		t.Fatal("client never requested a resync")
	}
	if rep.Frames != 1 {
		t.Fatalf("client decoded %d frames, want exactly the keyframe", rep.Frames)
	}
}

// TestServerHandlesKeyReq verifies that a one-viewer hub answers a keyframe
// request with a keyframe on the wire, spliced from the lane encoder.
func TestServerHandlesKeyReq(t *testing.T) {
	reg := obs.NewRegistry()
	_, cli, cleanup := startPair(t, HubConfig{
		Width: 32, Height: 18, Policy: ODRRegulation, TargetFPS: 60,
		Codec:   codec.Options{QuantShift: 2, KeyInterval: 1 << 20},
		Metrics: reg,
	})
	defer cleanup()
	waitFrames(t, cli, 10, 10*time.Second)
	keys := reg.CounterVec(NameHubSplicedKeyframes, "", "lane").With1("1")
	before := keys.Value()
	if err := cli.sendKeyReq(); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 5*time.Second, "a spliced keyframe answering the request", func() bool {
		return keys.Value() > before
	})
}

// TestClientResyncsOnChecksumMismatch: a frame whose bitstream fails the CRC
// must trigger a keyframe resync, never reach the decoder.
func TestClientResyncsOnChecksumMismatch(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sc, cc := net.Pipe()
	defer sc.Close()
	cli := NewClient(cc)
	done := make(chan error, 1)
	go func() { done <- cli.Run() }()

	msg := frameMsg(frameMeta{seq: 1}, []byte{0xD3, 0, 0, 16, 0, 0, 0, 9, 0, 0, 0})
	msg[len(msg)-1] ^= 0xFF // corrupt the bitstream after the CRC was stamped
	if err := writeMsg(sc, msgFrame, msg); err != nil {
		t.Fatal(err)
	}
	typ, _, err := readMsg(sc, nil)
	if err != nil || typ != msgKeyReq {
		t.Fatalf("expected a keyframe request after checksum mismatch, got typ=%d err=%v", typ, err)
	}
	if err := writeMsg(sc, msgBye, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("client: %v", err)
	}
	if rep := cli.Report(); rep.Resyncs != 1 || rep.Frames != 0 {
		t.Fatalf("report = %+v, want 1 resync and 0 decoded frames", rep)
	}
}

// TestServerRejectsGarbageMessage: a message type no client sends — garbage,
// or a frame — ends that session, with and without a ReadTimeout, while a
// healthy peer on the same hub streams on; a protocol error is never counted
// as an eviction.
func TestServerRejectsGarbageMessage(t *testing.T) {
	for _, mode := range []struct {
		name   string
		readTO time.Duration
	}{{"poll", 0}, {"timeout", 30 * time.Second}} {
		for _, msg := range []struct {
			name string
			typ  byte
			body []byte
		}{{"garbage", 0xEE, []byte("junk")}, {"frame", msgFrame, frameMsg(frameMeta{seq: 1}, []byte{1})}} {
			t.Run(mode.name+"/"+msg.name, func(t *testing.T) {
				h, stop := startHub(t, HubConfig{Width: 16, Height: 9, TargetFPS: 60, ReadTimeout: mode.readTO})
				defer stop()
				healthy, _, detachHealthy := attachClient(t, h, 0)
				defer detachHealthy()
				waitFrames(t, healthy, 5, 10*time.Second)

				vs, vc := net.Pipe()
				defer vc.Close()
				gone := make(chan SessionStats, 1)
				h.Attach(vs, 0, func(st SessionStats) { gone <- st })
				go io.Copy(io.Discard, vc) // drain frames so the hub is not blocked writing
				if err := writeMsg(vc, msg.typ, msg.body); err != nil {
					t.Fatal(err)
				}
				select {
				case <-gone:
				case <-time.After(10 * time.Second):
					t.Fatal("hub kept the session after a message type no client sends")
				}
				waitFrames(t, healthy, healthy.Report().Frames+20, 10*time.Second)
				if h.Evicted() != 0 {
					t.Fatalf("%d sessions evicted: a protocol error is not a stall", h.Evicted())
				}
			})
		}
	}
}

// TestClientRejectsOversizedMessage: the length prefix is bounded.
func TestClientRejectsOversizedMessage(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sc, cc := net.Pipe()
	defer sc.Close()
	cli := NewClient(cc)
	done := make(chan error, 1)
	go func() { done <- cli.Run() }()
	var hdr [5]byte
	hdr[0] = msgFrame
	binary.LittleEndian.PutUint32(hdr[1:], uint32(maxPayload+1))
	if _, err := sc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected size-limit error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client hung on oversized message")
	}
}

// TestProtoRoundTrip covers the wire encoding helpers directly.
func TestProtoRoundTrip(t *testing.T) {
	payload := frameMsg(frameMeta{seq: 7, parentSeq: 6, inputID: 3, inputNanos: 1234, renderNanos: 5678}, []byte{1, 2, 3})
	m, bs, err := parseFrameMsg(payload)
	if err != nil || m.seq != 7 || m.parentSeq != 6 || m.inputID != 3 ||
		m.inputNanos != 1234 || m.renderNanos != 5678 || len(bs) != 3 {
		t.Fatalf("frame round trip: %+v %v %v", m, bs, err)
	}
	if _, _, err := parseFrameMsg(payload[:10]); err == nil {
		t.Fatal("short frame message accepted")
	}
	corrupted := append([]byte(nil), payload...)
	corrupted[len(corrupted)-1] ^= 0x01
	if _, _, err := parseFrameMsg(corrupted); !errors.Is(err, errFrameChecksum) {
		t.Fatalf("corrupted frame: err = %v, want checksum mismatch", err)
	}
	ip := inputMsg(9, 42)
	id, nanos, err := parseInputMsg(ip)
	if err != nil || id != 9 || nanos != 42 {
		t.Fatalf("input round trip: %v %v %v", id, nanos, err)
	}
	if _, _, err := parseInputMsg(ip[:8]); err == nil {
		t.Fatal("short input message accepted")
	}
	if err := writeMsg(io.Discard, msgFrame, make([]byte, maxPayload+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
}
