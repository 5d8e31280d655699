package stream

import (
	"fmt"
	"net"
	"testing"
	"time"

	"odr/internal/chaos"
	"odr/internal/codec"
	"odr/internal/core"
	"odr/internal/obs"
	"odr/internal/testutil"
)

// streamBytesPerSecond measures what the synthetic game costs on the wire
// at w×h and fps frames a second with the hub's lane codec (striped
// keyframes, shared tile cache): the mean delta-frame message over two
// seconds' worth of frames with an input every sixth. The game advances per rendered frame, not per wall second, so the
// per-frame cost does not depend on the rate. Path bandwidths in these
// tests are stated as fractions of this, so they keep their meaning when
// the codec's output size changes.
func streamBytesPerSecond(t *testing.T, w, h int, fps float64) float64 {
	t.Helper()
	g := NewGame(w, h)
	enc := codec.NewEncoder(w, h, codec.Options{Cache: codec.NewTileCache(0), StripeKeyframes: true})
	pix := make([]byte, g.FrameBytes())
	var bs []byte
	var total, n int
	for i := 0; i < int(2*fps); i++ {
		if i%6 == 0 {
			g.OnInput()
		}
		g.Render(pix)
		var err error
		if bs, err = enc.EncodeAppend(bs[:0], pix); err != nil {
			t.Fatal(err)
		}
		if !codec.IsKeyframe(bs) {
			total += 5 + frameHeaderLen + len(bs) // type+length prefix, frame header, bitstream
			n++
		}
	}
	return float64(total) / float64(n) * fps
}

func tcpPair(t *testing.T) (server net.Conn, client net.Conn) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case sc := <-accepted:
		return sc, cc
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
		return nil, nil
	}
}

// TestRealStackCongestionCollapse reproduces the paper's headline GCE
// result on the REAL stack — a hub serving one viewer, the production path:
// over a bandwidth-limited path (chaos's bw shaper on the hub's end of a
// loopback TCP connection), NoReg's motion-to-photon latency collapses into
// hundreds of milliseconds of queueing while ODR, at the same bandwidth,
// stays interactive.
func TestRealStackCongestionCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time congestion test")
	}
	const w, h, targetFPS = 96, 54, 30
	// The path carries three times the stream at its 30 FPS target: ODR
	// fills a third of it, unregulated encoding (hundreds of frames a second
	// at this size on any host) oversubscribes it several times over.
	bandwidth := 3 * streamBytesPerSecond(t, w, h, targetFPS)
	run := func(policy core.RenderRule) (mtp float64, drops int64) {
		sc, cc := tcpPair(t)
		shaped := chaos.Wrap(sc, chaos.MustParse(fmt.Sprintf("bw@0:%d", int64(bandwidth))), 1)
		reg := obs.NewRegistry()
		hub := NewHub(HubConfig{Width: w, Height: h, Policy: policy, TargetFPS: targetFPS, Metrics: reg})
		go hub.Run()
		hub.Attach(shaped, 0, nil)
		cli := NewClient(cc)
		cliDone := make(chan error, 1)
		go func() { cliDone <- cli.Run() }()
		// Let the queue build, then measure input latency.
		time.Sleep(700 * time.Millisecond)
		for i := 0; i < 8; i++ {
			if _, err := cli.SendInput(); err != nil {
				break
			}
			time.Sleep(150 * time.Millisecond)
		}
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) && cli.Report().LatencySamples < 4 {
			time.Sleep(20 * time.Millisecond)
		}
		rep := cli.Report()
		drops = reg.Counter(NameFramesDropped).Value()
		cli.Stop()
		hub.Stop()
		<-cliDone
		if rep.LatencySamples < 4 {
			t.Fatalf("%v: only %d latency samples", policy, rep.LatencySamples)
		}
		return rep.MeanLatency, drops
	}
	noregMtP, noregDrops := run(core.RuleNoReg)
	odrMtP, _ := run(core.RuleODR)
	t.Logf("real congestion on a %.0f KB/s path: NoReg MtP %.0fms (drops %d) vs ODR MtP %.0fms", bandwidth/1e3, noregMtP, noregDrops, odrMtP)
	if noregMtP < odrMtP*2 {
		t.Fatalf("NoReg MtP %.0fms not well above ODR %.0fms on the saturated path", noregMtP, odrMtP)
	}
}
