// Package frame defines the frame representation shared by the simulator and
// the real-time streaming stack: identity, input provenance (for
// motion-to-photon accounting and PriorityFrame), per-step timestamps and,
// for the real stack, pixel payloads.
package frame

import "time"

// InputID identifies a user input event. Zero means "no input": the frame
// was triggered by the application's internal refresh (§3 of the paper notes
// most frames are refresh frames).
type InputID uint64

// InputStamp records one user input: its id and the client-side time it was
// issued. When several inputs are pending at render time they are combined
// into one frame (§5.3), and the frame carries all of their stamps so that
// motion-to-photon latency can be accounted per input.
type InputStamp struct {
	ID     InputID
	Issued time.Duration
}

// Frame is one rendered frame traveling through the cloud-3D pipeline
// (Fig. 2 of the paper: render -> copy -> encode -> transmit -> decode).
type Frame struct {
	// Seq is the rendering sequence number, assigned by the renderer.
	Seq uint64

	// Input is the id of the user input this frame responds to, or 0 for
	// internal-refresh frames. When multiple inputs are pending they are
	// combined (§5.3) and Input holds the oldest pending input.
	Input InputID

	// InputTime is when that oldest input was issued by the user (client
	// clock), used for motion-to-photon accounting.
	InputTime time.Duration

	// Priority marks an input-triggered frame handled by PriorityFrame.
	Priority bool

	// Extra marks a frame the render clock started before its slot because
	// an input arrived: a frame on top of the target cadence, not one of it.
	// Filled by the simulator only.
	Extra bool

	// Inputs holds all inputs combined into this frame (oldest first);
	// empty for refresh frames.
	Inputs []InputStamp

	// Timestamps of the processing steps, as offsets from run start.
	RenderStart time.Duration
	RenderEnd   time.Duration
	CopyEnd     time.Duration
	EncodeStart time.Duration
	EncodeEnd   time.Duration
	SendEnd     time.Duration
	DecodeEnd   time.Duration

	// Complexity is the scene-complexity factor in effect when the frame
	// was rendered (drives processing times and encoded size).
	Complexity float64

	// Bytes is the encoded size. The simulator fills it from the workload
	// model; the stream stack fills it from the actual codec output.
	Bytes int

	// Pixels is the raw RGBA payload; filled by the real-time streaming
	// stack only (the simulator models frames without content).
	Pixels []byte

	// Retire, when non-nil, is called exactly once by the frame's final
	// consumer when it is done with Pixels, letting producers recycle the
	// pixel buffer. A frame fanned out to several consumers carries a
	// reference-counted closure here.
	Retire func()

	// Encoded carries an already-encoded representation of the frame when a
	// shared encoder sits upstream of per-session buffers (the stream hub's
	// encode-once fan-out path); consumers that find it non-nil must not
	// touch Pixels. Typed as any to keep package frame free of codec
	// dependencies.
	Encoded any

	// Per-step service costs sampled by the workload model (before
	// contention scaling); filled by the simulator only.
	CostRender time.Duration
	CostCopy   time.Duration
	CostEncode time.Duration
	CostDecode time.Duration
}

// Latency returns the motion-to-photon latency for an input-triggered frame:
// time from the input being issued to the frame's decode completing. It
// returns 0 for refresh frames.
func (f *Frame) Latency() time.Duration {
	if f.Input == 0 {
		return 0
	}
	return f.DecodeEnd - f.InputTime
}

// PipelineTime returns the time the frame spent in the pipeline, from render
// start to decode end.
func (f *Frame) PipelineTime() time.Duration {
	return f.DecodeEnd - f.RenderStart
}
