package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"odr"
	"odr/internal/codec"
	"odr/internal/core"
	"odr/internal/frame"
	"odr/internal/obs"
	"odr/internal/powermodel"
	"odr/internal/qoe"
	"odr/internal/realrt"
	"odr/internal/stream"
	"odr/internal/timerwheel"
	"odr/internal/wpool"
)

// Layer replay: each layer's public functions timed single-threaded in the
// generator process, on the workload's own frames where a layer handles
// frames. These are the floors under the traced run's spans: a span can be
// compared with what its layer costs when nothing else runs.

// replayRounds is how many times each timing loop runs; the median is kept.
const replayRounds = 5

// nsPerOp times fn(n) replayRounds times and returns the median ns per op.
func nsPerOp(n int, fn func(n int)) float64 {
	per := make([]float64, replayRounds)
	for r := range per {
		start := time.Now()
		fn(n)
		per[r] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

// replayFrames renders the workload's own content: the synthetic game at the
// workload's resolution, with an input every sixth frame (10 Hz at 60 FPS).
func replayFrames(w, h, n int) (frames [][]byte, renderNsPerPx float64) {
	g := stream.NewGame(w, h)
	frames = make([][]byte, n)
	per := make([]float64, n)
	for i := range frames {
		frames[i] = make([]byte, g.FrameBytes())
		if i%6 == 0 {
			g.OnInput()
		}
		start := time.Now()
		g.Render(frames[i])
		per[i] = float64(time.Since(start)) / float64(w*h)
	}
	return frames, median(per)
}

// replayLayers returns the replay metrics for a stream workload's resolution.
func replayLayers(width, height int) (metricSet, error) {
	out := metricSet{}
	const nFrames = 90
	frames, renderNs := replayFrames(width, height, nFrames)
	out.putN("game.render_ns_per_px", renderNs, "ns", nFrames)

	// The lane configuration odr.NewHub builds: v2, striped keyframes, shared
	// tile cache.
	enc := codec.NewEncoder(width, height, codec.Options{Cache: codec.NewTileCache(0), StripeKeyframes: true})
	streams := make([][]byte, nFrames)
	encUs := make([]float64, nFrames)
	var encBytes float64
	for i, f := range frames {
		start := time.Now()
		bs, err := enc.EncodeAppend(nil, f)
		encUs[i] = float64(time.Since(start)) / 1e3
		if err != nil {
			return nil, fmt.Errorf("replay encode: %w", err)
		}
		streams[i] = bs
		encBytes += float64(len(bs))
	}
	out.putN("codec.encode_us_per_frame", median(encUs[1:]), "us", nFrames-1)
	out.putN("codec.bytes_per_frame", encBytes/nFrames, "B", nFrames)

	dec := codec.NewDecoder()
	decUs := make([]float64, nFrames)
	for i, bs := range streams {
		start := time.Now()
		if _, err := dec.Decode(bs); err != nil {
			return nil, fmt.Errorf("replay decode: %w", err)
		}
		decUs[i] = float64(time.Since(start)) / 1e3
	}
	out.putN("codec.decode_us_per_frame", median(decUs[1:]), "us", nFrames-1)

	var spliceBuf []byte
	var spliceErr error
	out.putN("codec.splice_key_us", nsPerOp(20, func(n int) {
		for i := 0; i < n; i++ {
			if spliceBuf, spliceErr = enc.AppendSplice(spliceBuf[:0], 0); spliceErr != nil {
				return
			}
		}
	})/1e3, "us", 20*replayRounds)
	if spliceErr != nil {
		return nil, fmt.Errorf("replay splice: %w", spliceErr)
	}

	const ops = 200000
	pacer := core.NewPacer(60)
	out.putN("core.pacer_ns_per_op", nsPerOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			t := time.Duration(i) * time.Millisecond
			pacer.PaceAfterObserved(t, t+3*time.Millisecond)
		}
	}), "ns", ops*replayRounds)

	mb := core.NewMultiBuffer(realrt.NewDomain())
	fr := &frame.Frame{}
	out.putN("core.multibuffer_ns_per_handoff", nsPerOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			mb.PutPriorityStored(fr)
			if mb.TryAcquire() != nil {
				mb.Release()
			}
		}
	}), "ns", ops*replayRounds)

	box := core.NewInputBox(realrt.NewDomain())
	out.putN("core.inputbox_ns_per_input", nsPerOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			box.OnInput(frame.InputID(i+1), 0)
			box.ConsumePending()
		}
	}), "ns", ops*replayRounds)

	hist := obs.NewRegistry().Histogram("replay_us")
	out.putN("obs.hist_observe_ns", nsPerOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(int64(i & 4095))
		}
	}), "ns", ops*replayRounds)

	tr := obs.NewTracer(1 << 12)
	out.putN("obs.tracer_span_ns", nsPerOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			tr.Span(obs.TrackNetwork, "tx", uint64(i), time.Duration(i), time.Duration(i+1))
		}
	}), "ns", ops*replayRounds)

	meter := powermodel.NewSessionMeter(powermodel.Config{}, 0.5)
	out.putN("powermodel.meter_add_ns", nsPerOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			meter.AddSend(36000, 10*time.Microsecond)
		}
	}), "ns", ops*replayRounds)

	live := qoe.NewLiveWindow(0)
	out.putN("qoe.livewindow_onsend_ns", nsPerOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			live.OnSend(time.Duration(i)*time.Millisecond, 0)
		}
	}), "ns", ops*replayRounds)

	out.putN("wpool.striped_submit_ns", nsPerOp(ops, func(n int) {
		pool := wpool.NewStriped[int](2, func(int, []int) {})
		for i := 0; i < n; i++ {
			pool.Submit(i, i)
		}
		pool.Close()
	}), "ns", ops*replayRounds)

	replayWheel(out)
	if err := replayLoopback(out, int(encBytes/nFrames)); err != nil {
		return nil, err
	}
	if err := replaySim(out, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// replayWheel times the pacing wheel: the cost of arming and firing a timer,
// and how late 1000 timers re-armed at 30 Hz (the paced viewers' cadence)
// fire.
func replayWheel(out metricSet) {
	const n = 20000
	var fired atomic.Int64
	allFired := make(chan struct{}, 1)
	wheel := timerwheel.New(timerwheel.Config{})
	timers := make([]timerwheel.Timer, n)
	for i := range timers {
		timers[i].Fn = func() {
			if fired.Add(1)%n == 0 {
				allFired <- struct{}{}
			}
		}
	}
	out.putN("timerwheel.schedule_fire_ns", nsPerOp(n, func(n int) {
		for i := 0; i < n; i++ {
			wheel.Schedule(&timers[i], 0)
		}
		<-allFired
	}), "ns", n*replayRounds)
	wheel.Stop()

	const viewers = 1000
	const period = time.Second / 30
	var lags []float64 // appended on the wheel goroutine only
	rearm := make(chan *timerwheel.Timer, viewers)
	paced := timerwheel.New(timerwheel.Config{
		OnFire: func(lag time.Duration) { lags = append(lags, float64(lag)/1e3) },
	})
	pt := make([]timerwheel.Timer, viewers)
	for i := range pt {
		t := &pt[i]
		// A timer may not re-arm itself from its own Fn; hand it over.
		t.Fn = func() { rearm <- t }
		paced.Schedule(t, period*time.Duration(i)/viewers)
	}
	deadline := time.After(500 * time.Millisecond)
loop:
	for {
		select {
		case t := <-rearm:
			paced.Schedule(t, period)
		case <-deadline:
			break loop
		}
	}
	paced.Stop()
	sort.Float64s(lags)
	out.putN("timerwheel.lag_p95_us", percentile(lags, 95), "us", len(lags))
}

// loopbackSink is a loopback TCP connection whose far end reads and
// discards: what the hub's sender sees of a viewer.
type loopbackSink struct {
	conn net.Conn
	head [wireHeaderLen]byte
	// got reports each whole message the far end has read.
	got chan error
}

func newLoopbackSink() (*loopbackSink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	far, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	near, err := ln.Accept()
	if err != nil {
		far.Close()
		return nil, err
	}
	s := &loopbackSink{conn: near, got: make(chan error, 1)}
	s.head[0] = wireMsgFrame
	go func() {
		defer far.Close()
		br := bufio.NewReaderSize(far, 64<<10)
		var hdr [wireHeaderLen]byte
		for {
			_, err := io.ReadFull(br, hdr[:])
			if err == nil {
				_, err = br.Discard(int(binary.LittleEndian.Uint32(hdr[1:])))
			}
			select {
			case s.got <- err:
			default: // nobody is timing deliveries
			}
			if err != nil {
				return
			}
		}
	}()
	return s, nil
}

// send writes one frame message the way the hub does: header and payload in
// one vectored write.
func (s *loopbackSink) send(payload []byte) error {
	binary.LittleEndian.PutUint32(s.head[1:], uint32(len(payload)))
	bufs := net.Buffers{s.head[:], payload}
	_, err := bufs.WriteTo(s.conn)
	return err
}

func (s *loopbackSink) close() { s.conn.Close() }

// replayLoopback times one frame-sized message over loopback TCP, written as
// the hub writes it and read as a viewer reads it: the floor under
// engine.tx_us plus client.recv_decode_us.
func replayLoopback(out metricSet, frameBytes int) error {
	sink, err := newLoopbackSink()
	if err != nil {
		return err
	}
	defer sink.close()
	payload := make([]byte, frameBytes)
	const n = 400
	per := make([]float64, n)
	for i := range per {
		for len(sink.got) > 0 {
			<-sink.got
		}
		start := time.Now()
		if err := sink.send(payload); err != nil {
			return err
		}
		if err := <-sink.got; err != nil {
			return err
		}
		per[i] = float64(time.Since(start)) / 1e3
	}
	out.putN("wire.loopback_us_per_frame", median(per), "us", n)
	return nil
}

// simBenchmarks are the six Pictor benchmarks odr.Simulate models.
var simBenchmarks = []string{"STK", "0AD", "RE", "D2", "IM", "ITP"}

const simCellDuration = 60 * time.Second

// replaySim times one simulator cell per benchmark under ODR: the
// reproduction side of the repo, which shares internal/core with the hub.
func replaySim(out metricSet, seed int64) error {
	ms := make([]float64, len(simBenchmarks))
	for i, b := range simBenchmarks {
		start := time.Now()
		if _, err := odr.Simulate(odr.SimConfig{Benchmark: b, Policy: odr.PolicyODR, TargetFPS: 60, Duration: simCellDuration, Seed: seed}); err != nil {
			return err
		}
		ms[i] = float64(time.Since(start)) / 1e6
	}
	out.putN("sim.cell_ms_p50", median(ms), "ms", len(ms))
	out.putN("pipeline.us_per_sim_s", median(ms)*1e3/simCellDuration.Seconds(), "us", len(ms))
	return nil
}
