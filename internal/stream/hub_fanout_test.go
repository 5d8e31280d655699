package stream

import (
	"crypto/sha256"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"odr/internal/obs"
	"odr/internal/testutil"
)

// TestHubAttachStopRace is the regression for the attach/stop race: an
// Attach that passed the entry check while a concurrent Stop snapshotted the
// registry used to register a session Stop never closed, leaking its
// goroutines forever. Post-fix, every racing attach either lands in Stop's
// sweep or refuses itself — its detach callback fires either way, and the
// leak checker proves nothing survived.
func TestHubAttachStopRace(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const attachers = 8
	for iter := 0; iter < 25; iter++ {
		h := NewHub(HubConfig{Width: 16, Height: 16, TargetFPS: 480})
		go h.Run()

		var conns [attachers]net.Conn
		detached := make(chan struct{}, attachers)
		var wg sync.WaitGroup
		for i := 0; i < attachers; i++ {
			sc, cc := net.Pipe()
			conns[i] = cc
			wg.Add(1)
			go func(sc net.Conn) {
				defer wg.Done()
				h.Attach(sc, 0, func(SessionStats) { detached <- struct{}{} })
			}(sc)
		}
		h.Stop()
		wg.Wait()
		for i := 0; i < attachers; i++ {
			select {
			case <-detached:
			case <-time.After(10 * time.Second):
				t.Fatalf("iter %d: session %d never detached after Stop", iter, i)
			}
		}
		for _, c := range conns {
			c.Close()
		}
	}
}

// TestHubInputAttributionHighSessionIDs is the regression for the packInput
// truncation bug: with the old 40-bit layout, session ids at and above 2^24
// overflowed the uint64 shift, so the responding frame was never attributed
// to the sender and its motion-to-photon sample was lost.
func TestHubInputAttributionHighSessionIDs(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 32, Height: 18, TargetFPS: 120})
	defer stop()
	// The next two attaches get ids 1<<24 and 1<<24 + 1.
	h.nextID.Store(1<<24 - 1)

	sender, _, cleanA := attachClient(t, h, 0)
	defer cleanA()
	bystander, _, cleanB := attachClient(t, h, 0)
	defer cleanB()
	waitFrames(t, sender, 3, 10*time.Second)
	waitFrames(t, bystander, 3, 10*time.Second)

	if _, err := sender.SendInput(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && sender.Report().LatencySamples == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if sender.Report().LatencySamples == 0 {
		t.Fatal("sender at session id 1<<24 never got its input echoed (MtP sample lost)")
	}
	if n := bystander.Report().LatencySamples; n != 0 {
		t.Fatalf("bystander at session id 1<<24+1 recorded %d latency samples, want 0", n)
	}
}

// TestHubSendErrorSealsWithByeOnDrain is the regression for the error path
// that skipped the drain bye: a session whose send path errors while the hub
// is draining must still seal with an orderly msgBye, exactly like the
// buffer-close path.
func TestHubSendErrorSealsWithByeOnDrain(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	h := NewHub(HubConfig{Width: 16, Height: 16, TargetFPS: 480})
	go h.Run()
	defer h.Stop()

	sc, cc := net.Pipe()
	detached := make(chan struct{})
	h.Attach(sc, 0, func(SessionStats) { close(detached) })

	// Read one frame, then stop reading: the synchronous pipe blocks the
	// send loop mid-write while newer artifacts queue up behind it.
	cc.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, _, err := readMsg(cc, nil)
	if err != nil || typ != msgFrame {
		t.Fatalf("first message: type %d err %v", typ, err)
	}
	time.Sleep(50 * time.Millisecond) // let artifacts pile up behind the stalled write

	// Every subsequent send attempt fails.
	errInjected := errors.New("injected send failure")
	hook := func(uint32) error { return errInjected }
	h.sendErr.Store(&hook)

	drainDone := make(chan error, 1)
	go func() { drainDone <- h.Drain(10 * time.Second) }()
	for !h.drainRequested() {
		time.Sleep(time.Millisecond)
	}

	// Resume reading: the blocked frame completes, the next artifact hits
	// the injected error, and the drain-aware teardown must write msgBye.
	sawBye := false
	var buf []byte
	for !sawBye {
		cc.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, payload, err := readMsg(cc, buf)
		if err != nil {
			t.Fatalf("connection ended before msgBye: %v", err)
		}
		buf = payload[:cap(payload)]
		if typ == msgBye {
			sawBye = true
		}
	}
	select {
	case <-detached:
	case <-time.After(10 * time.Second):
		t.Fatal("session never detached")
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	cc.Close()
}

// TestHubRenderBufferRecycling pins the render-path fix: pixel buffers
// recycle through the free list instead of being reallocated every frame.
func TestHubRenderBufferRecycling(t *testing.T) {
	h := NewHub(HubConfig{Width: 32, Height: 18})

	// The free list round-trips the identical backing array, alloc-free.
	b1 := h.pixGet()
	h.pixPut(b1)
	b2 := h.pixGet()
	if &b1[0] != &b2[0] {
		t.Fatal("pixGet after pixPut returned a different buffer")
	}
	h.pixPut(b2)
	if n := testing.AllocsPerRun(200, func() { h.pixPut(h.pixGet()) }); n != 0 {
		t.Fatalf("pixGet/pixPut allocates %.1f/op, want 0", n)
	}

	// End to end: a running renderer must not allocate a fresh frame buffer
	// per frame. The per-frame frame.Frame bookkeeping is far smaller than
	// one 32×18 RGBA buffer, so bytes-per-frame under FrameBytes proves the
	// pixel buffer recycled.
	// The hub renders only for somebody: a viewer that discards its stream
	// keeps the loop running.
	h3 := NewHub(HubConfig{Width: 32, Height: 18, TargetFPS: 2000})
	go h3.Run()
	sc, cc := net.Pipe()
	defer cc.Close()
	h3.Attach(sc, 0, nil)
	go io.Copy(io.Discard, cc)
	for h3.Rendered() < 20 { // warm up the free list
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := h3.Rendered()
	for h3.Rendered() < start+200 {
		time.Sleep(time.Millisecond)
	}
	runtime.ReadMemStats(&after)
	frames := h3.Rendered() - start
	h3.Stop()
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / float64(frames)
	if limit := float64(h3.game.FrameBytes()); perFrame >= limit {
		t.Fatalf("render loop allocates %.0f B/frame, want < %.0f (pixel buffer not recycled)", perFrame, limit)
	}
}

// refRenders replays the deterministic shared game and returns the sha256 of
// each frame up to maxSeq (index seq-1): the per-session-encoder reference a
// fanned-out viewer's pixels must match byte for byte.
func refRenders(w, h int, maxSeq uint64) [][32]byte {
	g := NewGame(w, h)
	pix := make([]byte, g.FrameBytes())
	hashes := make([][32]byte, maxSeq)
	for i := uint64(0); i < maxSeq; i++ {
		g.Render(pix)
		hashes[i] = sha256.Sum256(pix)
	}
	return hashes
}

// TestHubSharedEncoderFanOut proves the tentpole end to end, counted per
// frame: N same-resolution viewers share one lane encoder, so every seq a
// viewer displayed was encoded exactly once, however many viewers displayed
// it, and every viewer's decoded pixels are byte-identical to the
// per-session-encoder reference — including late joiners, whose first frame
// is spliced, not re-encoded.
func TestHubSharedEncoderFanOut(t *testing.T) {
	const clients = 6
	const wantFrames = 30
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1 << 16)
	h, stop := startHub(t, HubConfig{Width: 32, Height: 18, TargetFPS: 240, Metrics: reg, Trace: tr})
	defer stop()

	var mu sync.Mutex
	got := make(map[uint64][32]byte) // seq → pixel hash, must agree across viewers
	shownBy := make(map[uint64]int)  // seq → viewers that displayed it
	var maxSeq uint64
	mismatch := false

	clis := make([]*Client, 0, clients)
	cleanups := make([]func(), 0, clients)
	for i := 0; i < clients; i++ {
		cli, _, clean := attachClient(t, h, 0)
		cli.OnFrame(func(seq uint64, pix []byte) {
			sum := sha256.Sum256(pix)
			mu.Lock()
			if prev, ok := got[seq]; ok && prev != sum {
				mismatch = true
			}
			got[seq] = sum
			shownBy[seq]++
			if seq > maxSeq {
				maxSeq = seq
			}
			mu.Unlock()
		})
		clis = append(clis, cli)
		cleanups = append(cleanups, clean)
		// Stagger attaches so later viewers join mid-stream and exercise
		// the spliced-keyframe path.
		time.Sleep(10 * time.Millisecond)
	}
	for _, cli := range clis {
		waitFrames(t, cli, wantFrames, 15*time.Second)
	}
	for _, clean := range cleanups {
		clean()
	}
	h.Stop()

	// Encode-once: the shared encoder ran once per encoded frame, bounded
	// by what was rendered, and each displayed frame is one encode however
	// many viewers it fanned out to.
	rendered := h.Rendered()
	encodes := reg.CounterVec(NameHubSharedEncodes, "", "lane").With1("1").Value()
	if encodes <= 0 || encodes > rendered {
		t.Fatalf("shared encodes = %d, rendered = %d; want 0 < encodes <= rendered", encodes, rendered)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("the trace ring overwrote %d events", tr.Dropped())
	}
	encodedN := make(map[uint64]int) // seq → lane encodes
	for _, ev := range tr.Events() {
		if ev.Name == "encode" {
			encodedN[ev.Seq]++
		}
	}
	splicedKeys := reg.CounterVec(NameHubSplicedKeyframes, "", "lane").With1("1").Value()
	if splicedKeys <= 0 {
		t.Fatalf("spliced keyframes = %d, want > 0 (late joiners must splice, not force shared keys)", splicedKeys)
	}

	mu.Lock()
	defer mu.Unlock()
	shared := 0
	for seq, n := range shownBy {
		if encodedN[seq] != 1 {
			t.Errorf("frame %d was displayed by %d viewers and encoded %d times, want once", seq, n, encodedN[seq])
		}
		if n >= 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("no frame was displayed by two viewers (%d frames displayed); fan-out not shared", len(shownBy))
	}

	// Byte-identity: viewers agreed with each other and with the reference.
	if mismatch {
		t.Fatal("two viewers decoded different pixels for the same frame seq")
	}
	if len(got) == 0 {
		t.Fatal("no frames hashed")
	}
	ref := refRenders(32, 18, maxSeq)
	for seq, sum := range got {
		if ref[seq-1] != sum {
			t.Fatalf("frame %d: decoded pixels differ from the per-session-encoder reference", seq)
		}
	}
}

// TestHubFrameWriteOverTCP streams over real TCP, where writeFrame is one
// writev of the frame's head and its bitstream, and over a TCP conn behind a
// wrapper without writev, where it is two writes. Verbatim frames, a late
// joiner's spliced key, the key that answers a msgKeyReq and the wrapped
// conn's frames must all decode to the reference pixels.
func TestHubFrameWriteOverTCP(t *testing.T) {
	lst, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer lst.Close()
	reg := obs.NewRegistry()
	h, stop := startHub(t, HubConfig{Width: 32, Height: 18, TargetFPS: 240, Metrics: reg})
	defer stop()
	splicedKeys := reg.CounterVec(NameHubSplicedKeyframes, "", "lane").With1("1")

	var mu sync.Mutex
	got := make(map[uint64][32]byte) // seq → pixel hash, must agree across viewers
	var maxSeq uint64
	mismatch := false
	var clis []*Client
	var cleanups []func()
	defer func() {
		for _, clean := range cleanups {
			clean()
		}
	}()
	// view attaches a TCP viewer, behind a wrapper without writev if wrap.
	view := func(wrap bool) *Client {
		t.Helper()
		accepted := make(chan net.Conn, 1)
		go func() {
			c, _ := lst.Accept()
			accepted <- c
		}()
		cc, err := net.Dial("tcp", lst.Addr().String())
		if err != nil {
			t.Fatalf("loopback TCP dial: %v", err)
		}
		var sc net.Conn = <-accepted
		if sc == nil {
			t.Fatal("loopback TCP accept failed")
		}
		if wrap {
			sc = struct{ net.Conn }{sc}
		}
		h.Attach(sc, 0, nil)
		cli := NewClient(cc)
		cli.OnFrame(func(seq uint64, pix []byte) {
			sum := sha256.Sum256(pix)
			mu.Lock()
			if prev, ok := got[seq]; ok && prev != sum {
				mismatch = true
			}
			got[seq] = sum
			if seq > maxSeq {
				maxSeq = seq
			}
			mu.Unlock()
		})
		done := make(chan error, 1)
		go func() { done <- cli.Run() }()
		clis = append(clis, cli)
		cleanups = append(cleanups, func() {
			cli.Stop()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("client: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Error("client did not stop")
			}
		})
		return cli
	}

	first := view(false)
	waitFrames(t, first, 20, 15*time.Second)

	keys := splicedKeys.Value()
	late := view(false)
	waitFrames(t, late, 20, 15*time.Second)
	if splicedKeys.Value() == keys {
		t.Fatal("the late joiner was served no spliced key")
	}

	keys = splicedKeys.Value()
	if err := first.sendKeyReq(); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 5*time.Second, "a spliced key answering the request", func() bool { return splicedKeys.Value() > keys })
	waitFrames(t, first, first.Report().Frames+20, 15*time.Second)

	wrapped := view(true)
	waitFrames(t, wrapped, 20, 15*time.Second)

	for _, clean := range cleanups {
		clean()
	}
	cleanups = nil
	h.Stop()
	for i, cli := range clis {
		if rep := cli.Report(); rep.Resyncs != 0 {
			t.Errorf("viewer %d resynced %d times: a frame arrived damaged", i, rep.Resyncs)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if mismatch {
		t.Fatal("two viewers decoded different pixels for the same frame seq")
	}
	ref := refRenders(32, 18, maxSeq)
	for seq, sum := range got {
		if ref[seq-1] != sum {
			t.Fatalf("frame %d: decoded pixels differ from the reference render", seq)
		}
	}
}

// TestDownsampleNonDivisible covers the box filter when the source dimension
// does not divide evenly: dst is the floor (320×180 at div=3 → 106×60) and
// every output pixel averages a full div×div block inside bounds.
func TestDownsampleNonDivisible(t *testing.T) {
	const srcW, srcH, div = 320, 180, 3
	dstW, dstH := srcW/div, srcH/div
	src := make([]byte, srcW*srcH*4)
	for i := range src {
		src[i] = byte(i*7 + i/13)
	}
	dst := make([]byte, dstW*dstH*4)
	downsample(src, srcW, dst, dstW, dstH, div)
	// Independent expectation: sum the block per channel, truncate.
	for _, p := range []struct{ x, y int }{{0, 0}, {dstW - 1, dstH - 1}, {dstW / 2, dstH / 3}} {
		for c := 0; c < 4; c++ {
			sum := 0
			for dy := 0; dy < div; dy++ {
				for dx := 0; dx < div; dx++ {
					sum += int(src[((p.y*div+dy)*srcW+(p.x*div+dx))*4+c])
				}
			}
			want := byte(sum / (div * div))
			if got := dst[(p.y*dstW+p.x)*4+c]; got != want {
				t.Fatalf("pixel (%d,%d) channel %d = %d, want %d", p.x, p.y, c, got, want)
			}
		}
	}
}

// TestDownsampleDivOne: at div=1 the filter is an exact copy.
func TestDownsampleDivOne(t *testing.T) {
	const w, h = 7, 5
	src := make([]byte, w*h*4)
	for i := range src {
		src[i] = byte(i * 11)
	}
	dst := make([]byte, len(src))
	downsample(src, w, dst, w, h, 1)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("byte %d: got %d, want %d", i, dst[i], src[i])
		}
	}
}

// TestDownsampleKnownAverage: a block of known values must average exactly,
// including the truncating division.
func TestDownsampleKnownAverage(t *testing.T) {
	// 2×2 source, div=2 → one output pixel. Channel 0 values 1,2,3,4
	// average to 10/4 = 2 (truncated).
	src := make([]byte, 2*2*4)
	for i, v := range []byte{1, 2, 3, 4} {
		src[i*4] = v
		src[i*4+1] = v * 10
		src[i*4+3] = 255
	}
	dst := make([]byte, 4)
	downsample(src, 2, dst, 1, 1, 2)
	if dst[0] != 2 {
		t.Fatalf("channel 0 = %d, want 2 (truncated mean of 1..4)", dst[0])
	}
	if dst[1] != 25 {
		t.Fatalf("channel 1 = %d, want 25", dst[1])
	}
	if dst[3] != 255 {
		t.Fatalf("alpha = %d, want 255", dst[3])
	}
}

// TestHubTileCacheConservation pins the accounting contract the soak's cache
// invariant scrapes: every payload tile of every shared encode and every
// tile of every spliced frame does exactly one cache lookup, and the hub
// publishes the cache's totals after each operation — so once the hub has
// stopped, hits + misses == dirty tiles + spliced tiles, exactly.
func TestHubTileCacheConservation(t *testing.T) {
	reg := obs.NewRegistry()
	h, stop := startHub(t, HubConfig{Width: 64, Height: 36, TargetFPS: 240, Metrics: reg})
	defer stop()

	const clients = 4
	cleanups := make([]func(), 0, clients)
	clis := make([]*Client, 0, clients)
	for i := 0; i < clients; i++ {
		cli, _, clean := attachClient(t, h, 0)
		clis = append(clis, cli)
		cleanups = append(cleanups, clean)
		// Stagger so late joiners splice keys mid-stream.
		time.Sleep(10 * time.Millisecond)
	}
	for _, cli := range clis {
		waitFrames(t, cli, 25, 15*time.Second)
	}
	for _, clean := range cleanups {
		clean()
	}
	h.Stop()

	hits := reg.Counter(NameCodecTileCacheHits).Value()
	misses := reg.Counter(NameCodecTileCacheMisses).Value()
	dirty := reg.CounterVec(NameTilesOutcome, "", "tile_outcome").With1("dirty").Value()
	spliced := reg.CounterVec(NameHubSplicedTiles, "", "lane").With1("1").Value()
	if hits+misses == 0 {
		t.Fatal("hub streamed with zero cache lookups; cache not wired to lanes")
	}
	if hits+misses != dirty+spliced {
		t.Fatalf("cache conservation broken: hits %d + misses %d = %d, want dirty %d + spliced %d = %d",
			hits, misses, hits+misses, dirty, spliced, dirty+spliced)
	}
	keys := reg.CounterVec(NameHubSplicedKeyframes, "", "lane").With1("1").Value()
	if keys > 0 && spliced == 0 {
		t.Fatal("spliced keyframes recorded but no spliced tiles counted")
	}
}

// TestHubAttachUnderLiveFanOut is the -race regression for the attach
// publication order: AttachWithOptions used to make the session visible to
// lane fan-out before assigning its metrics probe, so a sender worker
// delivering the joiner's first frame could read s.probe while attach was
// still writing it. With a registry configured (the probe is only built
// then) and the lane fanning out at full rate, every attach here races a
// delivery; the race detector fails the test if the field is published late.
func TestHubAttachUnderLiveFanOut(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 16, Height: 16, TargetFPS: 2000, Metrics: obs.NewRegistry()})
	defer stop()
	steady, _, cleanSteady := attachClient(t, h, 0)
	defer cleanSteady()
	waitFrames(t, steady, 5, 10*time.Second)
	for round := 0; round < 40; round++ {
		var cleanups [4]func()
		var joiners [4]*Client
		for i := range joiners {
			joiners[i], _, cleanups[i] = attachClient(t, h, 0)
		}
		for i, cli := range joiners {
			waitFrames(t, cli, 1, 10*time.Second)
			cleanups[i]()
		}
	}
}
