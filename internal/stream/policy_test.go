package stream

import (
	"bytes"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/frame"
	"odr/internal/realrt"
	"odr/internal/testutil"
)

// recordConn keeps every byte written to it; only Write and Close are used.
type recordConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *recordConn) Close() error                { return nil }

// handRig drives one lane and its sessions by hand — no renderer, no sender
// pool, no clock: the test renders, encodes and sends each frame itself.
type handRig struct {
	t    *testing.T
	h    *Hub
	ln   *encLane
	game *Game
	pix  []byte
	scr  senderScratch
}

func newHandRig(t *testing.T, policy core.RenderRule) *handRig {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	h := NewHub(HubConfig{Width: 16, Height: 8, Policy: policy})
	t.Cleanup(h.Stop)
	r := &handRig{t: t, h: h, ln: h.lane(1), game: NewGame(16, 8)}
	r.pix = make([]byte, r.game.FrameBytes())
	return r
}

// session registers a session on the lane whose sends land in its recordConn.
func (r *handRig) session(id uint32) *hubSession {
	conn := &recordConn{}
	dom := realrt.NewDomainAt(r.h.epoch)
	s := &hubSession{id: id, hub: r.h, lane: r.ln, conn: conn, dom: dom,
		pace: core.NewPacer(0), buf: r.h.sessionBuf(dom),
		probe: newSessionProbe(r.h.ins, "h"+strconv.FormatUint(uint64(id), 10))}
	r.ln.viewMu.Lock()
	r.ln.addLocked(s)
	r.ln.viewMu.Unlock()
	return s
}

// encode renders frame seq answering stamps and hands it to the lane.
func (r *handRig) encode(seq uint64, stamps ...frame.InputStamp) {
	r.t.Helper()
	r.game.Render(r.pix)
	f := &frame.Frame{Seq: seq, Pixels: r.pix}
	core.Tag(f, stamps)
	if err := r.ln.encode(f); err != nil {
		r.t.Fatal(err)
	}
}

// send transmits the session's next queued artifact and returns the header
// the client received.
func (r *handRig) send(s *hubSession) frameMeta {
	r.t.Helper()
	f := s.buf.TryAcquire()
	if f == nil {
		r.t.Fatalf("session %d has nothing queued", s.id)
	}
	art := f.Encoded.(*encArtifact)
	sent, _, err := s.sendArtifact(&r.scr, f, art)
	s.buf.Release()
	art.release()
	if err != nil || !sent {
		r.t.Fatalf("send of frame %d: sent %v, err %v", art.seq, sent, err)
	}
	wire := &s.conn.(*recordConn).buf
	typ, payload, err := readMsg(wire, nil)
	if err != nil || typ != msgFrame || wire.Len() != 0 {
		r.t.Fatalf("wire after sending frame %d: type %d, err %v, %d bytes left", art.seq, typ, err, wire.Len())
	}
	m, _, err := parseFrameMsg(payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return m
}

// TestPushDropCarriesStampsToNextSentFrame walks a push policy's drop path by
// hand on a one-viewer hub: a frame refused by the full session queue is
// dropped before it is encoded (so the delta chain the client follows never
// breaks), and its input stamp goes out in the header of the next frame that
// is encoded, never on an older queued one.
func TestPushDropCarriesStampsToNextSentFrame(t *testing.T) {
	r := newHandRig(t, core.RuleNoReg)
	s := r.session(1)
	stamp := func(local uint64) frame.InputStamp {
		return frame.InputStamp{ID: packInput(s.id, local), Issued: time.Duration(local) * time.Millisecond}
	}

	r.encode(1)
	if m := r.send(s); m.seq != 1 || m.parentSeq != 0 || m.inputID != 0 {
		t.Fatalf("frame 1: %+v, want an untagged keyframe", m)
	}
	for seq := uint64(2); seq <= 1+pushQueueDepth; seq++ {
		r.encode(seq)
	}
	// Queue full: the two frames answering inputs 7 and 8 are refused.
	r.encode(2+pushQueueDepth, stamp(7))
	r.encode(3+pushQueueDepth, stamp(8))
	if enc, drop := r.h.ins.Encoded.Value(), r.h.ins.Dropped.Value(); enc != 1+pushQueueDepth || drop != 2 {
		t.Fatalf("after two refusals: %d encoded, %d dropped, want %d and 2", enc, drop, 1+pushQueueDepth)
	}

	// The sender frees a slot, and the next frame is encoded: it carries the
	// oldest dropped stamp as its motion-to-photon reference and all three
	// for the record.
	if m := r.send(s); m.seq != 2 || m.parentSeq != 1 || m.inputID != 0 {
		t.Fatalf("frame 2: %+v, want an untagged delta on 1", m)
	}
	last := uint64(4 + pushQueueDepth)
	r.encode(last, stamp(9))
	// Every frame queued ahead of it was rendered before the inputs: none
	// shows their response.
	for seq := uint64(3); seq <= 1+pushQueueDepth; seq++ {
		if m := r.send(s); m.seq != seq || m.parentSeq != seq-1 || m.inputID != 0 {
			t.Fatalf("queued frame %d: %+v, want an untagged delta on %d", seq, m, seq-1)
		}
	}
	f := s.buf.TryAcquire()
	if f == nil || len(f.Inputs) != 3 || !f.Priority {
		t.Fatalf("frame %d queued as %+v, want a priority frame holding 3 stamps", last, f)
	}
	m := r.send(s)
	if m.seq != last || m.inputID != uint64(stamp(7).ID) || m.inputNanos != int64(7*time.Millisecond) {
		t.Fatalf("frame %d: %+v, want the oldest dropped stamp (7)", last, m)
	}
	if m.parentSeq != 1+pushQueueDepth {
		t.Fatalf("frame %d builds on %d, want %d: a refused frame must not advance the delta chain", last, m.parentSeq, 1+pushQueueDepth)
	}
	if len(r.ln.carried.list) != 0 || len(s.carried.list) != 0 {
		t.Fatalf("stamps still carried after they were sent: lane %v, session %v", r.ln.carried.list, s.carried.list)
	}
}

// TestPushFullSessionSkipsToLaterFrame: with two viewers on a push lane, one
// whose queue is full skips the artifact its peer takes. The skipped frame's
// stamp waits out the older frames queued ahead of it and rides the
// session's next send, which the hub splices because the chain skipped.
func TestPushFullSessionSkipsToLaterFrame(t *testing.T) {
	r := newHandRig(t, core.RuleInterval)
	full, peer := r.session(1), r.session(2)
	for seq := uint64(1); seq <= pushQueueDepth; seq++ {
		r.encode(seq)
		r.send(peer)
	}
	skipped := uint64(pushQueueDepth + 1)
	r.encode(skipped, frame.InputStamp{ID: packInput(full.id, 5), Issued: 5 * time.Millisecond})
	if m := r.send(peer); m.seq != skipped {
		t.Fatalf("peer got frame %d, want %d", m.seq, skipped)
	}
	if full.dropped != 1 || r.h.ins.Dropped.Value() != 1 {
		t.Fatalf("full session dropped %d (hub %d), want the one skipped artifact", full.dropped, r.h.ins.Dropped.Value())
	}
	for seq := uint64(1); seq <= pushQueueDepth; seq++ {
		if m := r.send(full); m.seq != seq || m.inputID != 0 {
			t.Fatalf("queued frame %d: %+v, want untagged: it was rendered before the input", seq, m)
		}
	}
	r.encode(skipped + 1)
	m := r.send(full)
	if m.seq != skipped+1 || m.parentSeq != pushQueueDepth || m.inputID != uint64(packInput(full.id, 5)) {
		t.Fatalf("next send %+v, want frame %d spliced onto %d carrying input 5", m, skipped+1, pushQueueDepth)
	}
}

// TestLaneCarryWaitsForALaterFrame: a stamp the lane carries from a frame it
// dropped (frame 3, displaced while frame 2 was being encoded) does not ride
// the encode of an older frame, which was rendered before the input; it
// rides the next encode of a later one.
func TestLaneCarryWaitsForALaterFrame(t *testing.T) {
	r := newHandRig(t, core.RuleODR)
	s := r.session(1)
	stamp := frame.InputStamp{ID: packInput(s.id, 7), Issued: 7 * time.Millisecond}
	r.ln.carried.add(3, []frame.InputStamp{stamp})
	r.encode(2)
	if m := r.send(s); m.seq != 2 || m.inputID != 0 {
		t.Fatalf("frame 2: %+v, want it untagged: it was rendered before the input", m)
	}
	r.encode(4)
	if m := r.send(s); m.seq != 4 || m.inputID != uint64(stamp.ID) {
		t.Fatalf("frame 4: %+v, want it to carry input 7", m)
	}
}

// TestNewHubRefusesRulesItDoesNotRun: NewHub panics on RVS, whose vblank
// feedback the wire does not carry, and on any rule outside core's four,
// naming the rule, instead of rendering ODR under a label no rule has.
func TestNewHubRefusesRulesItDoesNotRun(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for rule, want := range map[core.RenderRule]string{
		core.RuleRVS:        "the hub has no RVS",
		core.RenderRule(4):  "RenderRule(4)",
		core.RenderRule(-1): "RenderRule(-1)",
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, want) {
					t.Errorf("NewHub under rule %d panicked with %q, want it to say %q", int(rule), msg, want)
				}
			}()
			NewHub(HubConfig{Width: 16, Height: 8, Policy: rule}).Stop()
		}()
		if err := CheckRule(rule); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CheckRule(%d) = %v, want an error that says %q", int(rule), err, want)
		}
	}
	for _, rule := range []core.RenderRule{core.RuleODR, core.RuleInterval, core.RuleNoReg} {
		if err := CheckRule(rule); err != nil {
			t.Errorf("CheckRule(%v) = %v, want nil", rule, err)
		}
	}
}
