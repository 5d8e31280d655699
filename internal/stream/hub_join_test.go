package stream

import (
	"bytes"
	"testing"
	"time"

	"odr/internal/codec"
	"odr/internal/frame"
	"odr/internal/obs"
	"odr/internal/testutil"
)

// joinTries bounds how often a join test repeats an attempt that a render
// interrupted: at 2 FPS one lands inside the few milliseconds an attempt
// takes only now and then, while a hub that waits for the next render to
// serve a joiner has one inside every attempt.
const joinTries = 5

// refFrame replays the deterministic shared game up to frame seq and returns
// its pixels, box-filtered by div as a lane at that divisor encodes them.
func refFrame(w, h, div int, seq uint64) []byte {
	g := NewGame(w, h)
	pix := make([]byte, g.FrameBytes())
	for i := uint64(0); i < seq; i++ {
		g.Render(pix)
	}
	if div == 1 {
		return pix
	}
	small := make([]byte, (w/div)*(h/div)*4)
	downsample(pix, w, small, w/div, h/div, div)
	return small
}

// servedAtOnce runs prepare and then attempt until no render lands inside an
// attempt, and returns the seq the hub had rendered when that attempt began
// with the frame it read. The frame is then served with no render in
// between, which is what every caller wants to see; a hub that renders for
// each attempt fails the test.
func servedAtOnce(t *testing.T, h *Hub, prepare func(), attempt func() (frameMeta, []byte)) (rendered uint64, m frameMeta, bs []byte) {
	t.Helper()
	for i := 0; i < joinTries; i++ {
		prepare()
		before := h.Rendered()
		m, bs := attempt()
		if after := h.Rendered(); after == before {
			return uint64(before), m, bs
		}
	}
	t.Fatalf("a render landed inside each of %d attempts: the hub rendered for the frame instead of serving the newest one", joinTries)
	return 0, frameMeta{}, nil
}

// checkKeyOf fails unless the frame is a key of frame seq that decodes to the
// reference pixels at divisor div.
func checkKeyOf(t *testing.T, what string, w, h, div int, seq uint64, m frameMeta, bs []byte) {
	t.Helper()
	if m.seq != seq {
		t.Fatalf("%s has seq %d, want %d: the newest frame rendered", what, m.seq, seq)
	}
	if m.parentSeq != 0 || !codec.IsKeyframe(bs) {
		t.Fatalf("%s (seq %d) is not a key (parent %d)", what, m.seq, m.parentSeq)
	}
	pix, err := codec.NewDecoder().Decode(bs)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(pix, refFrame(w, h, div, seq)) {
		t.Fatalf("%s (seq %d) differs from the reference render", what, m.seq)
	}
}

// TestHubJoinServesNewestFrameAtOnce is the joiner on a running lane: its
// first frame is a key of the newest frame, spliced from the lane encoder by
// the send pass its attach starts, with no render in between (at 2 FPS the
// next one is up to 500 ms away).
func TestHubJoinServesNewestFrameAtOnce(t *testing.T) {
	const w, hgt = 64, 36
	h, stop := startHub(t, HubConfig{Width: w, Height: hgt, TargetFPS: 2})
	defer stop()
	defer attachDiscarding(h, AttachOptions{})()
	ln := h.lane(1)
	pollUntil(t, 10*time.Second, "the lane to encode a frame", func() bool { return ln.sharedEncodes.Value() >= 1 })

	var v *rawViewer
	rendered, m, bs := servedAtOnce(t, h, func() {
		if v != nil {
			v.close()
		}
	}, func() (frameMeta, []byte) {
		v = attachRaw(t, h, AttachOptions{})
		m, bs, _ := v.next()
		return m, bs
	})
	defer v.close()
	checkKeyOf(t, "the joiner's first frame", w, hgt, 1, rendered, m, bs)
}

// TestHubJoinOffersNewestFrameToLaggingLane is the joiner on a lane that has
// not been offered the newest frame: a lane created by the join, and a lane
// whose last viewer left while the full-resolution lane kept rendering. The
// attach offers the lane the newest frame the renderer keeps, so the first
// frame is a key of it with no render in between.
func TestHubJoinOffersNewestFrameToLaggingLane(t *testing.T) {
	const w, hgt = 64, 36
	h, stop := startHub(t, HubConfig{Width: w, Height: hgt, TargetFPS: 2})
	defer stop()
	defer attachDiscarding(h, AttachOptions{})()
	pollUntil(t, 10*time.Second, "a frame to render", func() bool { return h.Rendered() >= 1 })

	var v *rawViewer
	leave := func() {
		if v != nil {
			v.close()
			pollUntil(t, 10*time.Second, "the lagging lane's viewer to detach", func() bool { return h.Clients() == 1 })
		}
	}
	div := 1
	rendered, m, bs := servedAtOnce(t, h, func() {
		leave()
		div++ // a divisor no lane has served yet
	}, func() (frameMeta, []byte) {
		v = attachRaw(t, h, AttachOptions{Downscale: div})
		m, bs, _ := v.next()
		return m, bs
	})
	checkKeyOf(t, "the first frame on a new lane", w, hgt, div, rendered, m, bs)

	rendered, m, bs = servedAtOnce(t, h, func() {
		// Empty the lane, and let the full-resolution lane render past it.
		leave()
		next := h.Rendered() + 1
		pollUntil(t, 10*time.Second, "the full-resolution lane to render on", func() bool { return h.Rendered() >= next })
	}, func() (frameMeta, []byte) {
		v = attachRaw(t, h, AttachOptions{Downscale: div})
		m, bs, _ := v.next()
		return m, bs
	})
	defer v.close()
	checkKeyOf(t, "the first frame on an emptied lane", w, hgt, div, rendered, m, bs)
}

// TestHubKeyRequestAnsweredAtOnce: the frame that answers a msgKeyReq is a
// key of the lane's current frame, sent with no render in between.
func TestHubKeyRequestAnsweredAtOnce(t *testing.T) {
	const w, hgt = 64, 36
	h, stop := startHub(t, HubConfig{Width: w, Height: hgt, TargetFPS: 2})
	defer stop()
	v := attachRaw(t, h, AttachOptions{})
	defer v.close()
	v.next()
	rendered, m, bs := servedAtOnce(t, h, v.drain, func() (frameMeta, []byte) {
		if err := writeMsg(v.cc, msgKeyReq, nil); err != nil {
			t.Fatal(err)
		}
		m, bs, _ := v.next()
		return m, bs
	})
	checkKeyOf(t, "the keyframe request's answer", w, hgt, 1, rendered, m, bs)
	ln := h.lane(1)
	ln.encMu.Lock()
	current := ln.lastSeq
	ln.encMu.Unlock()
	if m.seq != current {
		t.Fatalf("the keyframe request's answer has seq %d, the lane's current frame is %d", m.seq, current)
	}
}

// TestHubJoinOfferIsNoDrop: the newest frame an attach offers to a lagging
// lane, for its joiner, is not counted as dropped when the next render
// replaces it before the lane's encoder takes it. The test renders by hand,
// so the replacement is certain: the lane is busy encoding a frame from
// before it emptied when the joiner comes.
func TestHubJoinOfferIsNoDrop(t *testing.T) {
	const w, hgt = 64, 36
	testutil.VerifyNoLeaks(t)
	tr := obs.NewTracer(1 << 10)
	h := NewHub(HubConfig{Width: w, Height: hgt, TargetFPS: 60, Trace: tr}) // Run is never started
	defer h.Stop()
	g := NewGame(w, hgt)
	render := func(seq uint64) {
		pix := make([]byte, g.FrameBytes())
		g.Render(pix)
		h.publish(&frame.Frame{Seq: seq, Pixels: pix})
	}
	ln := h.lane(2)
	ln.encMu.Lock() // the lane cannot encode until the end
	first := attachRaw(t, h, AttachOptions{Downscale: 2})
	render(1) // the lane takes it and waits for its encoder
	first.close()
	pollUntil(t, 10*time.Second, "the first viewer to detach", func() bool { return h.Clients() == 0 })
	render(2) // not offered: the lane has no viewer
	joiner := attachRaw(t, h, AttachOptions{Downscale: 2})
	defer joiner.close()
	if got := ln.offered.Load(); got != 2 {
		t.Fatalf("the lane was last offered frame %d at the join, want the newest, 2", got)
	}
	render(3) // replaces frame 2 in the lane's back buffer
	ln.encMu.Unlock()
	for _, ev := range tr.Events() {
		if ev.Name == "mulbuf-drop" && ev.Seq == 2 {
			t.Fatal("the frame offered for the joiner was traced as a drop when the next render replaced it")
		}
	}
	joiner.next() // the joiner is served what the lane encodes
}
