package stream

import (
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"odr/internal/obs"
	"odr/internal/testutil"
)

// flightEvents is the ring a test hub's flight record keeps: the last few
// hundred frames' spans before a failure.
const flightEvents = 1 << 12

// startHub runs a hub for the test. A hub without a tracer gets one, and a
// failed test leaves the hub's trace as a flight record (keepFlightRecord).
func startHub(t *testing.T, cfg HubConfig) (*Hub, func()) {
	t.Helper()
	if cfg.Trace == nil {
		cfg.Trace = obs.NewTracer(flightEvents)
	}
	return runHub(t, cfg)
}

// runHub runs a hub for the test as configured: without a tracer it stays
// untraced, as odrserver always runs it and the benchmark unless asked to
// trace, and leaves no flight record.
func runHub(t *testing.T, cfg HubConfig) (*Hub, func()) {
	t.Helper()
	if cfg.Trace != nil {
		keepFlightRecord(t, cfg.Trace)
	}
	testutil.VerifyNoLeaks(t)
	h := NewHub(cfg)
	go h.Run()
	return h, h.Stop
}

// keepFlightRecord writes tr's events as a Chrome trace to a file under
// os.TempDir() when t has failed, and logs its path. It runs after the
// cleanups registered later, the leak check's included, so their failures
// count too.
func keepFlightRecord(t *testing.T, tr *obs.Tracer) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		f, err := os.CreateTemp("", "odr-hubtrace-"+strings.ReplaceAll(t.Name(), "/", "_")+"-*.json")
		if err != nil {
			t.Logf("flight record: %v", err)
			return
		}
		err = tr.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Logf("flight record %s: %v", f.Name(), err)
			return
		}
		t.Logf("flight record: %s", f.Name())
	})
}

func attachClient(t *testing.T, h *Hub, clientFPS float64) (*Client, chan SessionStats, func()) {
	t.Helper()
	sc, cc := net.Pipe()
	stats := make(chan SessionStats, 1)
	h.Attach(sc, clientFPS, func(s SessionStats) { stats <- s })
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
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("hub client did not stop")
		}
	}
	return cli, stats, cleanup
}

func TestHubStreamsToMultipleClients(t *testing.T) {
	h, stop := runHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 90}) // untraced
	defer stop()
	a, _, cleanA := attachClient(t, h, 0)
	b, _, cleanB := attachClient(t, h, 0)
	defer cleanA()
	defer cleanB()
	brightA, brightB := watchBrightness(a), watchBrightness(b)
	waitFrames(t, a, 30, 10*time.Second)
	waitFrames(t, b, 30, 10*time.Second)
	if h.Clients() != 2 {
		t.Fatalf("Clients = %d", h.Clients())
	}
	pollUntil(t, 2*time.Second, "both clients decode content", func() bool { return brightA() > 0 && brightB() > 0 })
}

func TestHubLateJoinerDecodesImmediately(t *testing.T) {
	// A mid-stream joiner's first frame is a keyframe spliced from shared
	// lane-encoder state — no resync dance needed.
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 90})
	defer stop()
	a, _, cleanA := attachClient(t, h, 0)
	defer cleanA()
	waitFrames(t, a, 20, 10*time.Second)
	b, _, cleanB := attachClient(t, h, 0)
	defer cleanB()
	waitFrames(t, b, 10, 10*time.Second)
	if b.Report().Resyncs != 0 {
		t.Fatalf("late joiner needed %d resyncs", b.Report().Resyncs)
	}
}

func TestHubSlowClientDoesNotStallFastOne(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 120})
	defer stop()
	fast, _, cleanFast := attachClient(t, h, 0)
	defer cleanFast()
	// The slow client paces itself at 10 FPS: the hub must keep feeding the
	// fast one and drop the slow one's obsolete frames.
	slow, slowStats, cleanSlow := attachClient(t, h, 10)
	waitFrames(t, fast, 60, 15*time.Second)
	fastRep := fast.Report()
	slowRep := slow.Report()
	if fastRep.FPS < 40 {
		t.Fatalf("fast client at %.1f FPS: stalled by slow peer", fastRep.FPS)
	}
	if slowRep.Frames >= fastRep.Frames/2 {
		t.Fatalf("slow client got %d of %d frames: pacing not applied", slowRep.Frames, fastRep.Frames)
	}
	cleanSlow()
	select {
	case st := <-slowStats:
		if st.Dropped == 0 {
			t.Fatal("slow client dropped nothing: latest-wins not engaged")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("detach callback never fired")
	}
}

func TestHubInputVisibleToAllClientsButAttributedToSender(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 60})
	defer stop()
	a, _, cleanA := attachClient(t, h, 0)
	b, _, cleanB := attachClient(t, h, 0)
	defer cleanA()
	defer cleanB()
	brightB := watchBrightness(b)
	waitFrames(t, a, 10, 10*time.Second)
	waitFrames(t, b, 10, 10*time.Second)
	pollUntil(t, 2*time.Second, "a decoded frame with content", func() bool { return brightB() > 0 })
	baseB := brightB()
	if _, err := a.SendInput(); err != nil {
		t.Fatal(err)
	}
	// The input's flash must reach BOTH clients (shared world state)...
	deadline := time.Now().Add(5 * time.Second)
	var peakB float64
	for time.Now().Before(deadline) {
		if br := brightB(); br > peakB {
			peakB = br
		}
		if peakB > baseB+15 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if peakB <= baseB+10 {
		t.Fatalf("input flash did not reach the other client: base %.1f peak %.1f", baseB, peakB)
	}
	// ...but the MtP sample must be recorded only by the sender.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && a.Report().LatencySamples == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if a.Report().LatencySamples == 0 {
		t.Fatal("sender never got its latency sample")
	}
	if b.Report().LatencySamples != 0 {
		t.Fatalf("non-sender recorded %d latency samples", b.Report().LatencySamples)
	}
}

func TestHubStopDetachesEverything(t *testing.T) {
	h, _ := startHub(t, HubConfig{Width: 32, Height: 18})
	a, stats, cleanA := attachClient(t, h, 0)
	waitFrames(t, a, 5, 10*time.Second)
	h.Stop()
	select {
	case <-stats:
	case <-time.After(10 * time.Second):
		t.Fatal("session not detached on hub stop")
	}
	if h.Clients() != 0 {
		t.Fatalf("Clients = %d after Stop", h.Clients())
	}
	cleanA()
}

func TestHubRenderPacing(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 32, Height: 18, TargetFPS: 30})
	defer stop()
	a, _, cleanA := attachClient(t, h, 0)
	defer cleanA()
	waitFrames(t, a, 20, 15*time.Second)
	rep := a.Report()
	if rep.FPS > 40 {
		t.Fatalf("hub paced at %.1f FPS, want <= ~30", rep.FPS)
	}
}

func TestPackInputRoundTrip(t *testing.T) {
	// The boundary sessions pin the 2^24 truncation bug: the old 40-bit
	// layout shifted a uint32 session id by 40, so ids >= 1<<24 overflowed
	// uint64 and sessionOf misattributed the input to the wrong viewer.
	for _, s := range []uint32{1, 7, 1 << 20, 1 << 24, 1<<24 + 1, ^uint32(0)} {
		for _, l := range []uint64{1, 99, 1<<32 - 1} {
			id := packInput(s, l)
			if sessionOf(id) != s {
				t.Fatalf("session %d/local %d: got session %d", s, l, sessionOf(id))
			}
			if got := uint64(id) & 0xFFFFFFFF; got != l {
				t.Fatalf("session %d/local %d: local round-trips as %d", s, l, got)
			}
		}
	}
	// Locals above 32 bits are masked, never bleed into the session bits.
	if got := sessionOf(packInput(3, 1<<40|5)); got != 3 {
		t.Fatalf("masked local: session = %d, want 3", got)
	}
}

func TestHubConcurrentAttachDetach(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 32, Height: 18, TargetFPS: 120})
	defer stop()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, _, clean := attachClient(t, h, 0)
			waitFrames(t, cli, 5, 10*time.Second)
			clean()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent attach/detach deadlocked")
	}
}

func TestHubDownscaledViewer(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 64, Height: 36, TargetFPS: 90})
	defer stop()
	full, _, cleanFull := attachClient(t, h, 0)
	defer cleanFull()

	sc, cc := net.Pipe()
	h.AttachWithOptions(sc, AttachOptions{ClientFPS: 30, Downscale: 2})
	thumb := NewClient(cc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := thumb.Run(); err != nil {
			t.Errorf("thumb client: %v", err)
		}
	}()
	defer func() {
		thumb.Stop()
		<-done
	}()

	waitFrames(t, full, 20, 10*time.Second)
	waitFrames(t, thumb, 5, 10*time.Second)
	var thumbPix, fullPix int
	var thumbBright float64
	var mu sync.Mutex
	thumb.OnFrame(func(_ uint64, pix []byte) {
		b := Brightness(pix)
		mu.Lock()
		thumbPix, thumbBright = len(pix), b
		mu.Unlock()
	})
	full.OnFrame(func(_ uint64, pix []byte) { mu.Lock(); fullPix = len(pix); mu.Unlock() })
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		tp, fp, tb := thumbPix, fullPix, thumbBright
		mu.Unlock()
		if tp > 0 && fp > 0 {
			if tp*4 != fp {
				t.Fatalf("thumbnail %d bytes vs full %d: want quarter area", tp, fp)
			}
			// Content must still be real (not black).
			if tb == 0 {
				t.Fatal("downscaled frames are black")
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("never observed both frame sizes")
}

func TestDownsampleAverages(t *testing.T) {
	// 4x4 source of alternating black/white 2x2 blocks downsampled by 2
	// must yield the block colors exactly.
	src := make([]byte, 4*4*4)
	set := func(x, y int, v byte) {
		i := (y*4 + x) * 4
		src[i], src[i+1], src[i+2], src[i+3] = v, v, v, 255
	}
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			v := byte(0)
			if (x/2+y/2)%2 == 0 {
				v = 200
			}
			set(x, y, v)
		}
	}
	dst := make([]byte, 2*2*4)
	downsample(src, 4, dst, 2, 2, 2)
	want := []byte{200, 0, 0, 200}
	for i, w := range want {
		if dst[i*4] != w {
			t.Fatalf("cell %d = %d, want %d", i, dst[i*4], w)
		}
	}
}
