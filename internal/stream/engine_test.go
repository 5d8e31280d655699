package stream

import (
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/testutil"
)

// TestHubGoroutineBudgetIndependentOfSessions pins the engine's headline
// property: hub goroutines are O(worker pool), not O(sessions). The old
// per-session shape spent three goroutines per viewer (send loop, input
// loop, reaper), so 96 viewers cost ~288; the engine serves them all from a
// fixed sender pool, one timer wheel and a small reader pool. The harness
// itself owns exactly one discard goroutine per viewer, which is subtracted.
func TestHubGoroutineBudgetIndependentOfSessions(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const viewers = 96
	h := NewHub(HubConfig{Width: 32, Height: 18, TargetFPS: 240})
	go h.Run()
	defer h.Stop()

	before := runtime.NumGoroutine()
	conns := make([]net.Conn, 0, viewers)
	for i := 0; i < viewers; i++ {
		sc, cc := net.Pipe()
		conns = append(conns, cc)
		fps := 0.0
		if i%4 == 0 {
			fps = 30 // every 4th viewer paced: its delays ride the wheel
		}
		h.Attach(sc, fps, nil)
		// One harness goroutine per viewer drains the stream.
		go io.Copy(io.Discard, cc)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for h.Clients() != viewers || h.Snapshot()["sent"].(int64) < viewers {
		if time.Now().After(deadline) {
			t.Fatalf("hub never streamed to all %d viewers (clients=%d)", viewers, h.Clients())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Engine budget: sender workers (max(2, GOMAXPROCS)) + timer wheel +
	// readers + one lane encoder, plus generous slack for runtime/test
	// goroutines. Independent of viewer count; the old design's 3/viewer
	// would sit near 3×96 here.
	budget := runtime.GOMAXPROCS(0) + 1 + hubReaders + 1 + 24
	delta := runtime.NumGoroutine() - before - viewers
	if delta > budget {
		t.Fatalf("hub spends %d goroutines beyond the harness for %d viewers, want <= %d (O(pool), not O(sessions))",
			delta, viewers, budget)
	}
}

// TestHubStopTearsDownPacingStragglers covers the shutdown straggler sweep:
// sessions parked in a long pacing delay hold no pool entry when Stop drops
// the wheel's timers, so shutdown must detach them directly — every detach
// callback fires and no goroutine survives.
func TestHubStopTearsDownPacingStragglers(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const viewers = 8
	h := NewHub(HubConfig{Width: 32, Height: 18, TargetFPS: 480})
	go h.Run()

	detached := make(chan SessionStats, viewers)
	conns := make([]net.Conn, 0, viewers)
	for i := 0; i < viewers; i++ {
		sc, cc := net.Pipe()
		conns = append(conns, cc)
		// 2 FPS: after each sent frame the session sits in a ~500ms wheel
		// delay, so a Stop almost certainly catches some mid-pacing.
		h.Attach(sc, 2, func(s SessionStats) { detached <- s })
		go io.Copy(io.Discard, cc)
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Snapshot()["sent"].(int64) < viewers {
		if time.Now().After(deadline) {
			t.Fatal("viewers never got their first frame")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.Stop()
	for i := 0; i < viewers; i++ {
		select {
		case <-detached:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d pacing sessions detached after Stop", i, viewers)
		}
	}
	if n := h.Clients(); n != 0 {
		t.Fatalf("Clients = %d after Stop", n)
	}
	for _, c := range conns {
		c.Close()
	}
}

// TestHubPacingDifferential pins the tentpole's bit-for-bit pacing claim:
// the engine's wheel-scheduled delays must be computed by exactly the same
// PaceAfterObserved arithmetic the old blocking send loop used. The hub's
// paceHook records every (start, end, delay) decision for one paced viewer;
// replaying the same observations through a fresh reference pacer must
// reproduce every delay exactly — any drift in call order, skipped frames,
// or credit accounting would diverge within a frame or two.
func TestHubPacingDifferential(t *testing.T) {
	const clientFPS = 60
	h, stop := startHub(t, HubConfig{Width: 32, Height: 18, TargetFPS: 480})
	defer stop()

	type decision struct {
		id         uint32
		start, end time.Duration
		d          time.Duration
	}
	var mu sync.Mutex
	var got []decision
	h.paceHook = func(id uint32, start, end, d time.Duration) {
		mu.Lock()
		got = append(got, decision{id, start, end, d})
		mu.Unlock()
	}

	cli, _, clean := attachClient(t, h, clientFPS)
	waitFrames(t, cli, 40, 15*time.Second)
	clean()

	mu.Lock()
	defer mu.Unlock()
	if len(got) < 40 {
		t.Fatalf("paceHook saw %d decisions, want >= 40", len(got))
	}
	ref := core.NewPacer(clientFPS)
	var delayed int
	for i, dec := range got {
		want := ref.PaceAfterObserved(dec.start, dec.end)
		if dec.d != want {
			t.Fatalf("decision %d (start=%v end=%v): engine delay %v, reference pacer %v",
				i, dec.start, dec.end, dec.d, want)
		}
		if dec.d > 0 {
			delayed++
		}
	}
	if delayed == 0 {
		t.Fatal("a 60 FPS viewer on a 480 FPS hub never accumulated a pacing delay; differential test exercised nothing")
	}
}

// TestHubPacedViewerHeldToTarget proves the wheel actually enforces the
// delays it schedules: a viewer paced to 30 FPS on a much faster hub must
// receive close to 30 FPS, not the hub rate.
func TestHubPacedViewerHeldToTarget(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 32, Height: 18, TargetFPS: 480})
	defer stop()
	cli, _, clean := attachClient(t, h, 30)
	defer clean()
	waitFrames(t, cli, 30, 15*time.Second)
	if fps := cli.Report().FPS; fps > 40 {
		t.Fatalf("viewer paced at 30 FPS measured %.1f FPS: wheel pacing not applied", fps)
	}
}

// TestHubReadsPastSilentSession: with ReadTimeout set, a silent session holds
// up the inputs of a client on the same reader stripe for one poll window,
// not for the whole timeout.
func TestHubReadsPastSilentSession(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 16, Height: 9, TargetFPS: 60, ReadTimeout: 1500 * time.Millisecond})
	defer stop()
	// Sessions land on reader id%hubReaders: ids 1 and 3 share a stripe.
	detachSilent := attachDiscarding(h, AttachOptions{}) // id 1, never writes
	defer detachSilent()
	detachOther := attachDiscarding(h, AttachOptions{}) // id 2
	defer detachOther()
	cli, _, detach := attachClient(t, h, 0) // id 3
	defer detach()
	waitFrames(t, cli, 1, 10*time.Second)

	const n = 20
	base := h.ins.Inputs.Value()
	start := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			if _, err := cli.SendInput(); err != nil {
				return
			}
		}
	}()
	for h.ins.Inputs.Value() < base+n {
		if took := time.Since(start); took > 200*time.Millisecond {
			t.Fatalf("%d of %d inputs counted after %v: the silent session on the stripe held them up",
				h.ins.Inputs.Value()-base, n, took)
		}
		time.Sleep(time.Millisecond)
	}
}
