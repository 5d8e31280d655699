package stream

import (
	"crypto/sha256"
	"io"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"odr/internal/codec"
	"odr/internal/obs"
)

// pollUntil polls cond until it holds, failing the test at the deadline.
func pollUntil(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", within, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// attachDiscarding attaches a viewer that reads its stream and throws it
// away; the returned func detaches it.
func attachDiscarding(h *Hub, opts AttachOptions) func() {
	sc, cc := net.Pipe()
	h.AttachWithOptions(sc, opts)
	go io.Copy(io.Discard, cc)
	return func() { cc.Close() }
}

// rawViewer reads its stream message by message without decoding it.
type rawViewer struct {
	t     *testing.T
	cc    net.Conn
	start time.Time
	buf   []byte
}

// attachRaw attaches a raw viewer; close detaches it.
func attachRaw(t *testing.T, h *Hub, opts AttachOptions) *rawViewer {
	sc, cc := net.Pipe()
	v := &rawViewer{t: t, cc: cc, start: time.Now()}
	h.AttachWithOptions(sc, opts)
	return v
}

// next reads the viewer's next frame and returns its header, its bitstream
// (valid until the next call) and how long after the attach it arrived.
func (v *rawViewer) next() (m frameMeta, bs []byte, took time.Duration) {
	v.t.Helper()
	v.cc.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := readMsg(v.cc, v.buf)
	took = time.Since(v.start)
	if err != nil || typ != msgFrame {
		v.t.Fatalf("next message: type %d, err %v; want a frame", typ, err)
	}
	v.buf = payload[:cap(payload)]
	if m, bs, err = parseFrameMsg(payload); err != nil {
		v.t.Fatalf("frame: %v", err)
	}
	return m, bs, took
}

// drain discards the frames already on their way: it returns once none has
// arrived for 50 ms.
func (v *rawViewer) drain() {
	for {
		v.cc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		_, payload, err := readMsg(v.cc, v.buf)
		if err != nil {
			return
		}
		v.buf = payload[:cap(payload)]
	}
}

func (v *rawViewer) close() { v.cc.Close() }

// parked waits for the render loop to adopt target 0 with nobody attached.
func parked(t *testing.T, h *Hub) {
	t.Helper()
	pollUntil(t, 10*time.Second, "the hub to park", func() bool {
		return h.Clients() == 0 && h.ins.renderTarget.Value() == 0
	})
}

// TestHubRendersOnDemand is R2 and R3 on the real stack: no viewer, no frame
// and no watts; a 30 FPS audience is rendered at 30 and forwarded verbatim;
// the last detach stops the renderer again.
func TestHubRendersOnDemand(t *testing.T) {
	reg := obs.NewRegistry()
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 60, Metrics: reg})
	defer stop()
	encoded := reg.Counter(NameFramesEncoded)
	spliced := reg.CounterVec(NameHubSplicedDeltas, "", "lane").With1("1")
	watts := reg.GaugeVec(NameSessionWatts, "", "session").With1("shared")

	// The first viewer's first frame is the first frame ever rendered,
	// however long the hub sat idle before it came.
	if h.Rendered() != 0 || encoded.Value() != 0 {
		t.Fatalf("idle hub rendered %d and encoded %d frames", h.Rendered(), encoded.Value())
	}
	first := attachRaw(t, h, AttachOptions{})
	if m, _, _ := first.next(); m.seq != 1 {
		t.Fatalf("first frame after attaching to an idle hub has seq %d, want 1", m.seq)
	}
	first.close()
	parked(t, h)
	if w := watts.Value(); w != 0 {
		t.Fatalf("parked hub reports %v W on the shared probe, want 0", w)
	}
	idleRendered, idleEncoded := h.Rendered(), encoded.Value()

	// One 30 FPS viewer: the clock follows it.
	cli, _, detach := attachClient(t, h, 30)
	waitFrames(t, cli, 10, 10*time.Second)
	if got := h.ins.renderTarget.Value(); got != 30 {
		t.Fatalf("render target with one 30 FPS viewer = %v, want 30", got)
	}
	r0, f0, s0, t0 := h.Rendered(), cli.Report().Frames, spliced.Value(), time.Now()
	waitFrames(t, cli, f0+45, 15*time.Second)
	r1, f1, s1, dt := h.Rendered(), cli.Report().Frames, spliced.Value(), time.Since(t0)
	if fps := float64(r1-r0) / dt.Seconds(); fps < 27 || fps > 33 {
		t.Fatalf("rendered %.1f FPS for a 30 FPS-only audience, want about 30", fps)
	}
	if diff := (r1 - r0) - (f1 - f0); diff < -3 || diff > 3 {
		t.Fatalf("rendered %d frames while the viewer displayed %d: want one render per display", r1-r0, f1-f0)
	}
	// Rendered at 60 every one of these 45 sends was a spliced catch-up; at
	// the viewer's own rate they forward verbatim (two allowed for a host
	// that stalls the sender a whole frame).
	if s1-s0 > 2 {
		t.Fatalf("%d catch-up deltas spliced over 45 frames for a viewer paced at the render rate, want none", s1-s0)
	}

	// Detach: rendering stops. The next viewer is served the last frame
	// rendered for the previous audience at once, unless the render its
	// attach wakes lands first; either way the frame after the last one
	// rendered before the attach is the first rendered since.
	detach()
	parked(t, h)
	if idleRendered == h.Rendered() || idleEncoded == encoded.Value() {
		t.Fatal("counters did not move while a viewer was attached")
	}
	last := uint64(h.Rendered())
	v := attachRaw(t, h, AttachOptions{})
	defer v.close()
	m, _, _ := v.next()
	if m.seq != last && m.seq != last+1 {
		t.Fatalf("first frame after re-attaching has seq %d, want %d (the newest, served at once) or %d: the parked hub rendered in between", m.seq, last, last+1)
	}
	if m.seq == last {
		if m, _, _ = v.next(); m.seq != last+1 {
			t.Fatalf("second frame after re-attaching has seq %d, want %d: the parked hub rendered in between", m.seq, last+1)
		}
	}
}

// TestHubAttachWakesParkedRenderer is the lost-wake-up guard: every attach
// that finds the renderer parked (or about to park) must make it render, and
// promptly — well inside the 100 ms interval a free-running 10 FPS hub would
// make a joiner wait through on average half of. A joiner is served the
// newest frame already rendered at once, so what is timed is the first frame
// rendered after the attach. Run under -race.
func TestHubAttachWakesParkedRenderer(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 16, Height: 16, TargetFPS: 10, Metrics: obs.NewRegistry()})
	defer stop()
	const cycles = 1000
	took := make([]time.Duration, 0, cycles)
	for i := 0; i < cycles; i++ {
		parked(t, h)
		before := uint64(h.Rendered())
		v := attachRaw(t, h, AttachOptions{})
		for {
			m, _, d := v.next()
			if m.seq > before {
				took = append(took, d)
				break
			}
		}
		v.close()
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if med := took[cycles/2]; med > 20*time.Millisecond {
		t.Fatalf("median first newly rendered frame after attaching to a parked hub took %v, want about one render and encode", med)
	}
}

// TestHubFanOutKeepsInputFrames is the fan-out regression behind R1: with 16
// other viewers on the lane, the frame rendered right after an input frame
// used to displace it in the issuing viewer's buffer several times a second,
// and the input came back late, on the frame that displaced it. Counted per
// input: each is echoed once, in order, on the first frame the full-rate
// viewer displayed at or after the input's own frame (the newest the hub
// traced as rendered for an input up to the echo), and no input frame is
// traced as dropped, at the lane or in a viewer's buffer. A regular frame
// never displaces an input frame the viewer's sender has not written yet,
// however long a loaded host stalls that sender. A sender that fell two
// frames behind writes the input frame as a catch-up spliced from the lane
// encoder, which may hold the next frame by then: the echo rides that frame,
// which shows the input's response and is the first the viewer displays
// after it. The viewers are on loopback TCP, as in production: the socket
// buffers what the hub sends, so a reader the host schedules late does not
// stall the sender workers.
func TestHubFanOutKeepsInputFrames(t *testing.T) {
	tr := obs.NewTracer(1 << 16)
	h, stop := startHub(t, HubConfig{Width: 64, Height: 36, TargetFPS: 60, Trace: tr})
	defer stop()
	for i := 0; i < 16; i++ {
		sc, cc := tcpPair(t)
		h.Attach(sc, 0, nil)
		go io.Copy(io.Discard, cc)
		defer cc.Close()
	}
	sc, cc := tcpPair(t)
	h.Attach(sc, 0, nil)
	var mu sync.Mutex
	echoedOn := make(map[uint64][]uint64) // input id → seqs of the displayed frames echoing it
	var shown []uint64                    // every frame the viewer displayed
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf []byte
		for {
			typ, payload, err := readMsg(cc, buf)
			if err != nil {
				return
			}
			buf = payload[:cap(payload)]
			m, _, err := parseFrameMsg(payload)
			if typ != msgFrame || err != nil {
				t.Errorf("viewer read type %d, err %v; want frames", typ, err)
				return
			}
			mu.Lock()
			shown = append(shown, m.seq)
			if m.inputID != 0 {
				echoedOn[m.inputID&0xFFFFFFFF] = append(echoedOn[m.inputID&0xFFFFFFFF], m.seq)
			}
			mu.Unlock()
		}
	}()
	defer func() {
		cc.Close()
		<-done
	}()
	pollUntil(t, 10*time.Second, "the hub to warm up", func() bool { return h.Rendered() >= 5 })

	const inputs = 30
	next := time.Now()
	for id := uint64(1); id <= inputs; id++ {
		if err := writeMsg(cc, msgInput, inputMsg(id, int64(id))); err != nil {
			t.Fatal(err)
		}
		next = next.Add(100 * time.Millisecond)
		time.Sleep(time.Until(next))
	}
	// Inputs the renderer combined into one frame come back once, on it:
	// that takes a host stalled for a whole 100 ms input period, and the
	// trace then shows fewer input frames than inputs.
	inputFrames := make(map[uint64]bool)
	pollUntil(t, 10*time.Second, "every input frame to be echoed", func() bool {
		for _, ev := range tr.Events() {
			if ev.Name == "priority-frame" {
				inputFrames[ev.Seq] = true
			}
		}
		mu.Lock()
		defer mu.Unlock()
		return len(echoedOn) >= len(inputFrames) && len(inputFrames) > 0
	})
	if tr.Dropped() != 0 {
		t.Fatalf("the trace ring overwrote %d events", tr.Dropped())
	}
	for _, ev := range tr.Events() {
		if ev.Name == "mulbuf-drop" && inputFrames[ev.Seq] {
			t.Errorf("input frame %d was dropped", ev.Seq)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if combined := inputs - len(inputFrames); inputs-len(echoedOn) > combined {
		t.Errorf("%d of %d inputs echoed, with %d combined into another input's frame", len(echoedOn), inputs, combined)
	}
	var last uint64
	for id := uint64(1); id <= inputs; id++ {
		seqs, ok := echoedOn[id]
		if !ok {
			continue
		}
		if len(seqs) != 1 {
			t.Errorf("input %d echoed on %d frames (%v), want one", id, len(seqs), seqs)
			continue
		}
		var own uint64 // the input's own frame
		for seq := range inputFrames {
			if seq <= seqs[0] && seq > own {
				own = seq
			}
		}
		for _, seq := range shown {
			if seq >= own && seq < seqs[0] {
				t.Errorf("input %d echoed on frame %d, but the viewer displayed frame %d after its input frame %d first", id, seqs[0], seq, own)
				break
			}
		}
		if seqs[0] <= last {
			t.Errorf("input %d echoed on frame %d, after an earlier input's frame %d", id, seqs[0], last)
		}
		last = seqs[0]
	}
}

// TestHubEmptiedLaneIsNotEncoded: once the last half-resolution viewer has
// left, its lane is offered no more frames — and a later joiner on it still
// decodes exactly the downscaled reference pixels.
func TestHubEmptiedLaneIsNotEncoded(t *testing.T) {
	const w, hgt = 64, 36
	reg := obs.NewRegistry()
	h, stop := startHub(t, HubConfig{Width: w, Height: hgt, TargetFPS: 120, Metrics: reg})
	defer stop()
	lane2 := reg.CounterVec(NameHubSharedEncodes, "", "lane").With1("2")
	full, _, detachFull := attachClient(t, h, 0)
	defer detachFull()

	detachHalf := attachDiscarding(h, AttachOptions{Downscale: 2})
	pollUntil(t, 10*time.Second, "the half-resolution lane to encode", func() bool { return lane2.Value() >= 5 })
	detachHalf()
	pollUntil(t, 10*time.Second, "the half-resolution viewer to detach", func() bool { return h.Clients() == 1 })
	// Let whatever the lane already held drain, then watch it stay flat while
	// the full-resolution viewer keeps being served.
	waitFrames(t, full, full.Report().Frames+5, 10*time.Second)
	before := lane2.Value()
	waitFrames(t, full, full.Report().Frames+40, 10*time.Second)
	if after := lane2.Value(); after != before {
		t.Fatalf("lane 2 encoded %d frames with no viewer on it", after-before)
	}

	sc, cc := net.Pipe()
	h.AttachWithOptions(sc, AttachOptions{Downscale: 2})
	joiner := NewClient(cc)
	var mu sync.Mutex
	got := make(map[uint64][32]byte)
	joiner.OnFrame(func(seq uint64, pix []byte) {
		mu.Lock()
		got[seq] = sha256.Sum256(pix)
		mu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := joiner.Run(); err != nil {
			t.Errorf("joiner: %v", err)
		}
	}()
	waitFrames(t, joiner, 10, 10*time.Second)
	joiner.Stop()
	<-done
	if lane2.Value() == before {
		t.Fatal("lane 2 did not resume encoding for its new viewer")
	}

	mu.Lock()
	defer mu.Unlock()
	var maxSeq uint64
	for seq := range got {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	g := NewGame(w, hgt)
	pix := make([]byte, g.FrameBytes())
	small := make([]byte, (w/2)*(hgt/2)*4)
	for seq := uint64(1); seq <= maxSeq; seq++ {
		g.Render(pix)
		sum, ok := got[seq]
		if !ok {
			continue
		}
		downsample(pix, w, small, w/2, hgt/2, 2)
		if sum != sha256.Sum256(small) {
			t.Fatalf("frame %d on the re-joined lane differs from the downscaled reference", seq)
		}
	}
}

// TestHubSoloViewerEncodesEveryFrame is Mul-Buf1 on the real stack: with one
// unpaced viewer over loopback TCP, no inputs and an uncapped target, the
// renderer waits for its lane's back buffer instead of outrunning the
// encoder, so once the hub has drained every rendered frame has been encoded.
// The equality is exact on a host of any speed.
func TestHubSoloViewerEncodesEveryFrame(t *testing.T) {
	sc, cc := tcpPair(t)
	reg := obs.NewRegistry()
	h := NewHub(HubConfig{Width: 320, Height: 180, TargetFPS: 100000, Metrics: reg})
	go h.Run()
	defer h.Stop()
	h.Attach(sc, 0, nil)
	cli := NewClient(cc)
	done := make(chan error, 1)
	go func() { done <- cli.Run() }()
	waitFrames(t, cli, 200, 60*time.Second)
	if err := h.Drain(10 * time.Second); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("client: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client never received the bye")
	}
	rendered, encoded := h.ins.Rendered.Value(), h.ins.Encoded.Value()
	if rendered < 200 || encoded != rendered {
		t.Fatalf("rendered %d frames and encoded %d; want every one of at least 200 encoded", rendered, encoded)
	}
}

// TestHubRendererWaitsForItsLane pins Mul-Buf1 on the hub without timing
// the encoder. The lane's encMu is held from the moment its viewer attaches,
// so the lane takes one frame and cannot encode it. An unpaced ODR renderer
// then fills the back buffer and waits: it renders at most two frames and
// drops none. A renderer that did not wait would go on rendering and
// displace the back buffer frame after frame, however fast the host.
func TestHubRendererWaitsForItsLane(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 100000})
	defer stop()
	// The lane exists before its viewer, so encMu is held before the
	// renderer starts: the lane cannot have encoded a frame already.
	ln := h.lane(1)
	ln.encMu.Lock()
	defer attachDiscarding(h, AttachOptions{})()
	// An unpaced renderer that did not wait would render hundreds of
	// frames in this window.
	time.Sleep(200 * time.Millisecond)
	rendered, dropped := h.ins.Rendered.Value(), h.ins.Dropped.Value()
	ln.encMu.Unlock()
	if rendered > 2 {
		t.Errorf("the renderer rendered %d frames while its lane could not encode, want at most 2", rendered)
	}
	if dropped != 0 {
		t.Errorf("odr_frames_dropped_total = %d while the lane could not encode, want 0", dropped)
	}
	pollUntil(t, 10*time.Second, "the lane to encode", func() bool { return ln.sharedEncodes.Value() >= 3 })
}

// TestHubFailedLaneIsReplaced: an encoder error retires its lane. The lane's
// viewer detaches, the lane leaves the hub, so the renderer stops waiting on
// it, and the next viewer at that divisor gets a fresh lane and decodes.
func TestHubFailedLaneIsReplaced(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 120})
	defer stop()
	detached := make(chan SessionStats, 1)
	sc, cc := net.Pipe()
	defer cc.Close()
	h.AttachWithOptions(sc, AttachOptions{Detach: func(st SessionStats) { detached <- st }})
	go io.Copy(io.Discard, cc)
	failed := h.lane(1)
	pollUntil(t, 10*time.Second, "the lane to encode", func() bool { return failed.sharedEncodes.Value() >= 3 })

	// An encoder for another frame size makes the lane's next EncodeAppend
	// fail on the real path.
	failed.encMu.Lock()
	failed.enc = codec.NewEncoder(failed.w+1, failed.h, h.cfg.Codec)
	failed.encMu.Unlock()
	select {
	case <-detached:
	case <-time.After(10 * time.Second):
		t.Fatal("the failed lane's viewer never detached")
	}

	cli, _, cleanup := attachClient(t, h, 0)
	defer cleanup()
	waitFrames(t, cli, 10, 10*time.Second)
	if h.lane(1) == failed {
		t.Fatal("the failed lane still serves its divisor")
	}
	stopped := make(chan struct{})
	go func() {
		h.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return")
	}
}
