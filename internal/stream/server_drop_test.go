package stream

import (
	"net"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/frame"
)

// TestPushDropCarriesStampsToNextSentFrame walks the push policies' drop
// path by hand — no goroutines, no clock: a frame refused by the full send
// queue is dropped before it is encoded (so the delta chain the client
// follows never breaks), and its input stamp goes out in the header of the
// next frame that is admitted, never on an older one.
func TestPushDropCarriesStampsToNextSentFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	s := NewServer(a, ServerConfig{Width: 16, Height: 8, Policy: NoRegulation, QueueFrames: 2})
	st := &encodeState{scratch: make([]byte, s.game.FrameBytes())}
	rendered := func(seq uint64, stamps ...frame.InputStamp) *frame.Frame {
		f := &frame.Frame{Seq: seq, Pixels: s.pool.Get().([]byte)}
		s.game.Render(f.Pixels)
		core.Tag(f, stamps)
		return f
	}
	send := func(f *frame.Frame) frameMeta {
		t.Helper()
		if !s.admitPush(f) {
			t.Fatalf("frame %d refused with %d of %d queue slots used", f.Seq, len(s.sendq), cap(s.sendq))
		}
		s.claimCarried(f)
		if err := s.encodeOne(f, st); err != nil {
			t.Fatal(err)
		}
		s.sendq <- f
		m, _, err := parseFrameMsg(f.Pixels)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	if m := send(rendered(1)); m.parentSeq != 0 || m.inputID != 0 {
		t.Fatalf("frame 1: %+v, want an untagged keyframe", m)
	}
	if m := send(rendered(2)); m.parentSeq != 1 {
		t.Fatalf("frame 2 builds on %d, want 1", m.parentSeq)
	}

	// Queue full: the two frames answering inputs 7 and 8 are refused.
	for seq := uint64(3); seq <= 4; seq++ {
		id := frame.InputID(seq + 4)
		f := rendered(seq, frame.InputStamp{ID: id, Issued: time.Duration(id) * time.Millisecond})
		if s.admitPush(f) {
			t.Fatalf("frame %d admitted into a full queue", seq)
		}
	}
	if got := s.Stats().Snapshot(); got.Dropped != 2 || got.Encoded != 2 {
		t.Fatalf("after two refusals: %d dropped, %d encoded, want 2 and 2", got.Dropped, got.Encoded)
	}
	// A frame rendered before the dropped ones cannot show their response.
	old := &frame.Frame{Seq: 3}
	if s.claimCarried(old); old.Input != 0 {
		t.Fatalf("frame 3 claimed input %d carried from a later frame", old.Input)
	}

	// The sender frees a slot: the next frame is sent, carrying the oldest
	// dropped stamp as its motion-to-photon reference and all three for the
	// record, and still decodable from what the client already has.
	<-s.sendq
	f5 := rendered(5, frame.InputStamp{ID: 9, Issued: 9 * time.Millisecond})
	m := send(f5)
	if m.inputID != 7 || m.inputNanos != int64(7*time.Millisecond) {
		t.Fatalf("frame 5 header carries input %d issued at %dns, want the oldest dropped stamp (7)", m.inputID, m.inputNanos)
	}
	if m.parentSeq != 2 {
		t.Fatalf("frame 5 builds on %d, want 2: a refused frame must not advance the delta chain", m.parentSeq)
	}
	if len(f5.Inputs) != 3 || !f5.Priority {
		t.Fatalf("frame 5 holds %d stamps (priority %v), want 3", len(f5.Inputs), f5.Priority)
	}
	if again := s.takeCarried(^uint64(0)); len(again) != 0 {
		t.Fatalf("%d stamps still carried after they were sent", len(again))
	}
}
