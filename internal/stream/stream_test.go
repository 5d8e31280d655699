package stream

import (
	"net"
	"sync"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/testutil"
)

// startPair serves one client from a hub over an in-process pipe — the
// one-viewer shape of a server — and returns the hub's instruments.
func startPair(t *testing.T, cfg HubConfig) (*instruments, *Client, func()) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	h := NewHub(cfg)
	go h.Run()
	sc, cc := net.Pipe()
	h.Attach(sc, 0, nil)
	cli := NewClient(cc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := cli.Run(); err != nil {
			t.Errorf("client: %v", err)
		}
	}()
	cleanup := func() {
		cli.Stop()
		h.Stop()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("stream did not shut down")
		}
	}
	return h.ins, cli, cleanup
}

// watchBrightness installs an OnFrame callback on c that keeps the
// luminance of the last decoded frame, and returns its reader (0 before the
// first frame).
func watchBrightness(c *Client) func() float64 {
	var mu sync.Mutex
	var last float64
	c.OnFrame(func(_ uint64, pix []byte) {
		b := Brightness(pix)
		mu.Lock()
		last = b
		mu.Unlock()
	})
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return last
	}
}

func waitFrames(t *testing.T, c *Client, n int64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if c.Report().Frames >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("client received %d frames, want >= %d", c.Report().Frames, n)
}

func TestStreamODRDeliversFrames(t *testing.T) {
	ins, cli, cleanup := startPair(t, HubConfig{
		Width: 64, Height: 36, Policy: core.RuleODR, TargetFPS: 120,
	})
	defer cleanup()
	bright := watchBrightness(cli)
	waitFrames(t, cli, 30, 10*time.Second)
	// The hub counts a send after its pipe write returns, which can trail
	// the client's decode of that same frame by a beat — poll briefly.
	pollUntil(t, 2*time.Second, "30 frames rendered, encoded and sent", func() bool {
		return ins.Rendered.Value() >= 30 && ins.Encoded.Value() >= 30 && ins.Displayed.Value() >= 30
	})
	pollUntil(t, 2*time.Second, "a decoded frame with content", func() bool { return bright() > 0 })
	if rep := cli.Report(); rep.Bytes == 0 {
		t.Fatalf("client did not receive content: %+v", rep)
	}
}

func TestStreamODRMeetsTargetFPS(t *testing.T) {
	_, cli, cleanup := startPair(t, HubConfig{
		Width: 48, Height: 27, Policy: core.RuleODR, TargetFPS: 60,
	})
	defer cleanup()
	// Collect ~1.5s of frames.
	waitFrames(t, cli, 80, 15*time.Second)
	rep := cli.Report()
	if rep.FPS < 48 || rep.FPS > 75 {
		t.Fatalf("ODR60 client FPS = %.1f, want ~60", rep.FPS)
	}
}

func TestStreamNoRegRendersExcessively(t *testing.T) {
	ins, cli, cleanup := startPair(t, HubConfig{
		Width: 64, Height: 36, Policy: core.RuleNoReg,
	})
	defer cleanup()
	waitFrames(t, cli, 30, 10*time.Second)
	// The renderer never waits, so it outruns the encoder and the pipe.
	pollUntil(t, 10*time.Second, "NoReg to render frames nobody sees", func() bool {
		return ins.Rendered.Value() > ins.Displayed.Value() && ins.Dropped.Value() > 0
	})
}

func TestStreamInputLatencyAndPriority(t *testing.T) {
	ins, cli, cleanup := startPair(t, HubConfig{
		Width: 48, Height: 27, Policy: core.RuleODR, TargetFPS: 30,
	})
	defer cleanup()
	waitFrames(t, cli, 5, 10*time.Second)
	for i := 0; i < 5; i++ {
		if _, err := cli.SendInput(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && cli.Report().LatencySamples < 3 {
		time.Sleep(10 * time.Millisecond)
	}
	rep := cli.Report()
	if rep.LatencySamples < 3 {
		t.Fatalf("got %d latency samples, want >= 3", rep.LatencySamples)
	}
	if rep.MeanLatency <= 0 || rep.MeanLatency > 500 {
		t.Fatalf("MtP latency %.1fms implausible", rep.MeanLatency)
	}
	if ins.Priority.Value() == 0 {
		t.Fatal("no priority frames produced")
	}
}

func TestStreamInputVisibleInPixels(t *testing.T) {
	// The frame responding to an input flashes brighter: verify causality
	// end-to-end through render -> encode -> network -> decode.
	_, cli, cleanup := startPair(t, HubConfig{
		Width: 48, Height: 27, Policy: core.RuleODR, TargetFPS: 30,
	})
	defer cleanup()
	bright := watchBrightness(cli)
	waitFrames(t, cli, 5, 10*time.Second)
	pollUntil(t, 2*time.Second, "a decoded frame with content", func() bool { return bright() > 0 })
	base := bright()
	if _, err := cli.SendInput(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var peak float64
	for time.Now().Before(deadline) {
		if b := bright(); b > peak {
			peak = b
		}
		if peak > base+20 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if peak <= base+10 {
		t.Fatalf("input flash not visible: base %.1f, peak %.1f", base, peak)
	}
}

func TestStreamOverTCP(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 64, Height: 36, Policy: core.RuleODR, TargetFPS: 60})
	defer stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	detached := make(chan SessionStats, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			h.Attach(conn, 0, func(st SessionStats) { detached <- st })
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn)
	cliDone := make(chan error, 1)
	go func() { cliDone <- cli.Run() }()
	waitFrames(t, cli, 30, 15*time.Second)
	if _, err := cli.SendInput(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	cli.Stop()
	select {
	case err := <-cliDone:
		if err != nil {
			t.Fatalf("client: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not stop")
	}
	select {
	case st := <-detached:
		if st.Sent < 30 {
			t.Fatalf("session sent %d frames, want >= 30", st.Sent)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session did not end with its client")
	}
	if n := h.Evicted(); n != 0 {
		t.Fatalf("%d sessions evicted, want an orderly end", n)
	}
}

func TestStreamIntervalRegulation(t *testing.T) {
	_, cli, cleanup := startPair(t, HubConfig{
		Width: 48, Height: 27, Policy: core.RuleInterval, TargetFPS: 50,
	})
	defer cleanup()
	waitFrames(t, cli, 60, 15*time.Second)
	rep := cli.Report()
	// Interval regulation caps at the target but can lose intervals.
	if rep.FPS > 60 {
		t.Fatalf("Interval-50 client FPS = %.1f, want <= ~50", rep.FPS)
	}
}

func TestStreamOnFrameCallback(t *testing.T) {
	_, cli, cleanup := startPair(t, HubConfig{
		Width: 32, Height: 18, Policy: core.RuleODR, TargetFPS: 60,
	})
	defer cleanup()
	var mu sync.Mutex
	var seqs []uint64
	cli.OnFrame(func(seq uint64, pix []byte) {
		mu.Lock()
		seqs = append(seqs, seq)
		mu.Unlock()
	})
	waitFrames(t, cli, 20, 10*time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) == 0 {
		t.Fatal("OnFrame callback never invoked")
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("frame sequence not increasing: %v", seqs[max(0, i-2):i+1])
		}
	}
}

// TestClientMeanInterDisplay pins Report().MeanInterMs to the mean of the
// gaps between display instants, computed by hand.
func TestClientMeanInterDisplay(t *testing.T) {
	c := NewClient(nil)
	if got := c.Report().MeanInterMs; got != 0 {
		t.Fatalf("MeanInterMs before any frame = %v, want 0", got)
	}
	c.mu.Lock()
	for _, ms := range []float64{10, 26.5, 43.25, 60, 76.125} {
		c.markDisplayLocked(time.Duration(ms * float64(time.Millisecond)))
	}
	c.mu.Unlock()
	want := (16.5 + 16.75 + 16.75 + 16.125) / 4
	if got := c.Report().MeanInterMs; got != want {
		t.Fatalf("MeanInterMs = %v, want %v", got, want)
	}
}

func TestGameRenderDeterministicShape(t *testing.T) {
	g := NewGame(16, 9)
	buf := make([]byte, g.FrameBytes())
	g.Render(buf)
	b1 := Brightness(buf)
	g.Render(buf)
	b2 := Brightness(buf)
	if b1 == 0 || b2 == 0 {
		t.Fatal("rendered frames are black")
	}
	g.OnInput()
	g.Render(buf)
	if b3 := Brightness(buf); b3 <= b2 {
		t.Fatalf("input flash did not brighten frame: %.1f <= %.1f", b3, b2)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
