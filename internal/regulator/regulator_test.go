package regulator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/frame"
	"odr/internal/netsim"
	"odr/internal/sim"
	"odr/internal/simrt"
)

const ms = time.Millisecond

type fixture struct {
	env     *sim.Env
	ctx     *Ctx
	dropped []*frame.Frame
}

func newFixture(netParams netsim.Params) *fixture {
	env := sim.NewEnv()
	dom := simrt.NewDomain(env)
	f := &fixture{env: env}
	f.ctx = &Ctx{
		Env:    env,
		Dom:    dom,
		Link:   netsim.NewLink(netParams, 1),
		Inputs: core.NewInputBox(dom),
		Buffer: 1 << 20,
		OnDrop: func(fr *frame.Frame) { f.dropped = append(f.dropped, fr) },
	}
	return f
}

func defaultNet() netsim.Params {
	return netsim.Params{RTT: 2 * ms, Jitter: 0.05, Bandwidth: 100e6 / 8, BufferBytes: 1 << 20}
}

// TestMailboxLatestWins: the push half's renderer-to-proxy MultiBuffer is a
// latest-wins mailbox — the proxy takes the newest frame, the rest drop.
func TestMailboxLatestWins(t *testing.T) {
	f := newFixture(defaultNet())
	p := NewNoReg(f.ctx)
	var got *frame.Frame
	f.env.Spawn("producer", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		p.SubmitRendered(w, &frame.Frame{Seq: 1})
		p.SubmitRendered(w, &frame.Frame{Seq: 2})
		p.SubmitRendered(w, &frame.Frame{Seq: 3})
	})
	f.env.Spawn("consumer", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		pr.Sleep(ms)
		got = p.AcquireForEncode(w)
	})
	f.env.RunAll()
	f.env.Shutdown()
	if got == nil || got.Seq != 3 {
		t.Fatalf("got %+v, want latest frame (Seq 3)", got)
	}
	if len(f.dropped) != 2 {
		t.Fatalf("dropped %d frames, want 2", len(f.dropped))
	}
}

func TestNoRegNeverGates(t *testing.T) {
	f := newFixture(defaultNet())
	p := NewNoReg(f.ctx)
	var gateTime time.Duration
	f.env.Spawn("renderer", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		for i := 0; i < 100; i++ {
			p.RenderGate(w)
		}
		gateTime = pr.Now()
	})
	f.env.RunAll()
	f.env.Shutdown()
	if gateTime != 0 {
		t.Fatalf("NoReg gates consumed %v of virtual time", gateTime)
	}
}

func TestIntervalGateAlignsToGrid(t *testing.T) {
	f := newFixture(defaultNet())
	p := NewInterval(f.ctx, 100) // 10ms grid
	var starts []time.Duration
	f.env.Spawn("renderer", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		for i := 0; i < 5; i++ {
			p.RenderGate(w)
			starts = append(starts, pr.Now())
			pr.Sleep(3 * ms) // render faster than the interval
			p.SubmitRendered(w, &frame.Frame{Seq: uint64(i + 1)})
		}
	})
	f.env.RunAll()
	f.env.Shutdown()
	for i, s := range starts {
		if s%(10*ms) != 0 {
			t.Fatalf("render %d started off-grid at %v", i, s)
		}
	}
}

func TestIntervalOverrunSkipsGridSlots(t *testing.T) {
	f := newFixture(defaultNet())
	p := NewInterval(f.ctx, 100)
	var starts []time.Duration
	f.env.Spawn("renderer", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		p.RenderGate(w)
		starts = append(starts, pr.Now())
		pr.Sleep(25 * ms) // overruns 2.5 intervals
		p.SubmitRendered(w, &frame.Frame{Seq: 1})
		p.RenderGate(w)
		starts = append(starts, pr.Now())
	})
	f.env.RunAll()
	f.env.Shutdown()
	// The first render starts on the grid's first slot, time zero. Its 25ms
	// render runs to 25ms, so the 10ms and 20ms slots are lost forever (the
	// §4.1 pathology) and the next start is 30ms.
	if starts[0] != 0 {
		t.Fatalf("first start = %v, want 0", starts[0])
	}
	if starts[1] != 30*ms {
		t.Fatalf("post-overrun start = %v, want 30ms", starts[1])
	}
}

func TestIntMaxRatchetsDownNeverUp(t *testing.T) {
	f := newFixture(defaultNet())
	p := NewInterval(f.ctx, 0)
	if !p.adaptive {
		t.Fatal("IntMax should be adaptive")
	}
	intervalMs := func() float64 { return 1000 / p.fps }
	p.OnWindow(100, 50) // gap of 50: slow down toward 50
	first := intervalMs()
	if first < 19 || first > 22 {
		t.Fatalf("interval after first violation = %.1fms, want ~20.7", first)
	}
	p.OnWindow(52, 50) // gap below threshold: no change
	if intervalMs() != first {
		t.Fatal("small gap should not adjust")
	}
	p.OnWindow(100, 80) // another violation: must not speed up
	if intervalMs() < first {
		t.Fatal("IntMax sped up — it must only ratchet down")
	}
	for i := 0; i < 1000; i++ {
		p.OnWindow(100, 20)
	}
	if p.fps < 10-1e-9 {
		t.Fatalf("ratchet went below the 10FPS floor: %.1f", p.fps)
	}
}

func TestIntervalProxyPollAddsLatency(t *testing.T) {
	f := newFixture(defaultNet())
	p := NewInterval(f.ctx, 100) // 10ms grid
	var acquired time.Duration
	f.env.Spawn("producer", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		pr.Sleep(12 * ms)
		p.SubmitRendered(w, &frame.Frame{Seq: 1})
	})
	f.env.Spawn("proxy", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		p.AcquireForEncode(w)
		acquired = pr.Now()
	})
	f.env.RunAll()
	f.env.Shutdown()
	// Frame ready at 12ms; the proxy grabs it at the next poll tick, 20ms.
	if acquired != 20*ms {
		t.Fatalf("acquired at %v, want 20ms (next poll tick)", acquired)
	}
}

func TestRVSDisplayOnVblankAndDrop(t *testing.T) {
	f := newFixture(defaultNet())
	p := NewRVS(f.ctx, 60, 0.25)
	fr1 := &frame.Frame{Seq: 1}
	disp1, ok1 := p.DisplayTime(fr1, 20*ms)
	if !ok1 {
		t.Fatal("first frame dropped")
	}
	period := time.Second / 60
	if disp1 != 2*period { // next vblank after 20ms is 33.3ms
		t.Fatalf("display at %v, want %v", disp1, 2*period)
	}
	// A frame decoding within the same vblank window is dropped.
	if _, ok := p.DisplayTime(&frame.Frame{Seq: 2}, 21*ms); ok {
		t.Fatal("same-vblank frame should be dropped")
	}
	if len(f.dropped) != 1 {
		t.Fatalf("dropped = %d, want 1", len(f.dropped))
	}
	// The next vblank is free again.
	if _, ok := p.DisplayTime(&frame.Frame{Seq: 3}, 35*ms); !ok {
		t.Fatal("next-vblank frame should display")
	}
}

func TestRVSFeedbackDelaysRender(t *testing.T) {
	f := newFixture(defaultNet())
	p := NewRVS(f.ctx, 60, 1.0)
	// Consume the priming tokens and stall the gate, then deliver display
	// feedback and check the gate resumes with the cc-scaled delay.
	var gateDone time.Duration
	f.env.Spawn("renderer", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		// One more gate than the priming-token depth, so the last gate
		// must wait for real feedback.
		for i := 0; i < 5; i++ {
			p.RenderGate(w)
		}
		gateDone = pr.Now()
	})
	const decodeEnd = 5 * ms
	f.env.Spawn("client", func(pr *sim.Proc) {
		pr.Sleep(decodeEnd)
		p.DisplayTime(&frame.Frame{Seq: 1}, pr.Now())
	})
	f.env.RunAll()
	f.env.Shutdown()
	if p.FeedbackSent() != 1 {
		t.Fatalf("feedback sent = %d", p.FeedbackSent())
	}
	// The token arrives one link delay after the display; with cc = 1 the
	// gate then serves the whole slack to the 60 Hz vblank.
	slack := time.Second/60 - decodeEnd
	if gateDone < decodeEnd+slack || gateDone >= 50*ms {
		t.Fatalf("gate finished at %v: want the feedback's token plus a %v delay, before the 50ms fallback", gateDone, slack)
	}
}

// TestRVSRendersByTheHubClock: RVS's hooks start the same frames as a bare
// core.RenderClock under RuleRVS fed the same feedback — each displayed
// frame's vblank slack times cc, one link delay after the display — through
// vblank drops, bursts and a silence long enough for the fallback.
func TestRVSRendersByTheHubClock(t *testing.T) {
	const (
		hz     = 60
		cc     = 0.25
		render = 3 * ms
		run    = time.Second
		prop   = ms // half the RTT: the link has no jitter
	)
	rng := rand.New(rand.NewSource(5))
	var decodeEnds []time.Duration
	for at := 10 * ms; at < run; at += time.Duration(2+rng.Intn(30)) * ms {
		if at < 400*ms || at > 550*ms {
			decodeEnds = append(decodeEnds, at)
		}
	}
	renderer := func(env *sim.Env, begin func(core.Waiter), end func()) *[]time.Duration {
		var starts []time.Duration
		env.Spawn("renderer", func(pr *sim.Proc) {
			w := simrt.NewWaiter(pr)
			for {
				begin(w)
				starts = append(starts, pr.Now())
				pr.Sleep(render)
				end()
			}
		})
		return &starts
	}

	f := newFixture(netsim.Params{RTT: 2 * prop, Bandwidth: 100e6 / 8, BufferBytes: 1 << 20})
	p := NewRVS(f.ctx, hz, cc)
	viaPolicy := renderer(f.env, p.RenderGate, func() { p.SubmitRendered(nil, &frame.Frame{}) })
	for _, at := range decodeEnds {
		at := at
		f.env.At(at, func() { p.DisplayTime(&frame.Frame{}, at) })
	}
	f.env.Run(run)
	p.Close()
	f.env.Shutdown()

	env := sim.NewEnv()
	dom := simrt.NewDomain(env)
	clock := core.NewRenderClock(dom, core.NewInputBox(dom), core.NewPacer(0), core.RuleRVS)
	clock.SetDemand(hz)
	period := time.Second / hz
	var lastVblank time.Duration
	fed := 0
	for _, at := range decodeEnds {
		vblank := (at/period + 1) * period
		if vblank <= lastVblank {
			continue
		}
		lastVblank = vblank
		d := time.Duration(cc * float64(vblank-at))
		env.At(at+prop, func() { clock.Feedback(d) })
		fed++
	}
	viaClock := renderer(env, func(w core.Waiter) { clock.Begin(w) }, clock.End)
	env.Run(run)
	clock.Stop()
	env.Shutdown()

	if p.FeedbackSent() != int64(fed) || fed == len(decodeEnds) {
		t.Fatalf("policy fed back %d displays, the bare clock %d of %d decodes: want equal, with some dropped", p.FeedbackSent(), fed, len(decodeEnds))
	}
	got, want := *viaPolicy, *viaClock
	if len(got) != len(want) || len(got) < 40 {
		t.Fatalf("policy started %d frames, bare clock %d", len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("frame %d: policy started it at %v, bare clock at %v", k, got[k], want[k])
		}
	}
}

// TestODRLabels: each ODR row of the configuration table, under the label
// core.Policy gives it, builds through New a plain ODR at the label's target
// (no ablation switch set).
func TestODRLabels(t *testing.T) {
	f := newFixture(defaultNet())
	for _, c := range []struct {
		fps  float64
		want string
	}{
		{0, "ODRMax"},
		{60, "ODR60"},
		{30, "ODR30"},
	} {
		cfg := core.Policy{Rule: core.RuleODR, FPS: c.fps}
		if got := cfg.String(); got != c.want {
			t.Errorf("label = %q, want %q", got, c.want)
		}
		built := New(f.ctx, cfg)
		p, ok := built.(*ODR)
		if !ok {
			t.Fatalf("%s: New built %T, want *ODR", c.want, built)
		}
		if p.opts != (ODROptions{TargetFPS: c.fps}) {
			t.Errorf("%s: options %+v, want TargetFPS %v only", c.want, p.opts, c.fps)
		}
	}
	f.env.Shutdown()
}

// TestOtherLabels: the baseline rows — NoReg, Int60, IntMax, RVS60 and
// RVSMax — build through New the policy type and setting their label names.
func TestOtherLabels(t *testing.T) {
	f := newFixture(defaultNet())
	label := func(p core.Policy, want string) {
		t.Helper()
		if got := p.String(); got != want {
			t.Fatalf("label = %q, want %q", got, want)
		}
	}

	noreg := core.Policy{Rule: core.RuleNoReg}
	label(noreg, "NoReg")
	if _, ok := New(f.ctx, noreg).(*NoReg); !ok {
		t.Fatal("NoReg: New did not build a *NoReg")
	}

	int60 := core.Policy{Rule: core.RuleInterval, FPS: 60}
	label(int60, "Int60")
	if iv, ok := New(f.ctx, int60).(*Interval); !ok || iv.adaptive || iv.fps != 60 {
		t.Fatal("Int60: New did not build a fixed 60 FPS *Interval")
	}
	intMax := core.Policy{Rule: core.RuleInterval}
	label(intMax, "IntMax")
	if iv, ok := New(f.ctx, intMax).(*Interval); !ok || !iv.adaptive {
		t.Fatal("IntMax: New did not build an adaptive *Interval")
	}

	rvs60 := core.Policy{Rule: core.RuleRVS, FPS: 60}
	label(rvs60, "RVS60")
	if r, ok := New(f.ctx, rvs60).(*RVS); !ok || r.period != time.Second/60 {
		t.Fatal("RVS60: New did not build a 60 Hz *RVS")
	}
	rvsMax := core.Policy{Rule: core.RuleRVS, FPS: core.RVSMaxHz}
	label(rvsMax, "RVSMax")
	if r, ok := New(f.ctx, rvsMax).(*RVS); !ok || r.period != time.Second/core.RVSMaxHz {
		t.Fatal("RVSMax: New did not build a 240 Hz *RVS")
	}
	f.env.Shutdown()
}

func TestODRPriorityFrameJumpsQueue(t *testing.T) {
	f := newFixture(defaultNet())
	p := NewODR(f.ctx, ODROptions{TargetFPS: 60})
	var order []uint64
	f.env.Spawn("renderer", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		p.SubmitRendered(w, &frame.Frame{Seq: 1})
		pr.Sleep(2 * ms) // let the proxy start encoding frame 1
		p.SubmitRendered(w, &frame.Frame{Seq: 2})
		// An input-triggered frame arrives: it must replace Seq 2 (queued,
		// un-encoded) while frame 1, already being encoded, survives.
		p.SubmitRendered(w, &frame.Frame{Seq: 3, Priority: true})
	})
	f.env.Spawn("proxy", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		pr.Sleep(ms)
		for i := 0; i < 2; i++ {
			fr := p.AcquireForEncode(w)
			if fr == nil {
				return
			}
			order = append(order, fr.Seq)
			pr.Sleep(2 * ms)
			p.SubmitEncoded(w, fr)
		}
	})
	f.env.Run(200 * ms)
	f.env.Shutdown()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("encode order = %v, want [1 3] (priority frame replaced 2)", order)
	}
	// Frame 2 is dropped un-encoded from Mul-Buf1; frame 1, encoded but
	// never transmitted (no network stage in this fixture), is dropped from
	// Mul-Buf2 when the priority frame replaces it there too.
	var seqs []uint64
	for _, d := range f.dropped {
		seqs = append(seqs, d.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 2 || seqs[1] != 1 {
		t.Fatalf("dropped = %v, want [2 1]", seqs)
	}
}

// started is when a renderer began one frame, and whether the render clock
// called it an extra frame.
type started struct {
	at    time.Duration
	extra bool
}

// odrInputScript returns a feeder for one seeded script of 100 inputs over
// 10 s, a tenth of them dead on a 60 FPS slot, for the ODR differentials.
func odrInputScript() func(env *sim.Env, box *core.InputBox) {
	interval := core.NewPacer(60).Interval()
	rng := rand.New(rand.NewSource(7))
	var script []time.Duration
	for j := 0; j < 100; j++ {
		at := time.Duration(j)*100*ms + time.Duration(rng.Int63n(int64(100*ms)))
		if j%10 == 3 {
			at = at / interval * interval // dead on a slot
		}
		script = append(script, at)
	}
	return func(env *sim.Env, box *core.InputBox) {
		for j, at := range script {
			id, at := frame.InputID(j+1), at
			env.At(at, func() { box.OnInput(id, at) })
		}
	}
}

// TestODRRendersByTheHubClock is the two-substrate differential: one seeded
// input script on the virtual clock, run through ODR's hooks (RenderGate, a
// fixed render cost, SubmitRendered, with a proxy and network that empty the
// buffers at once) and through a bare core.RenderClock driven the way
// Hub.Run drives it, gives the same frame starts and the same extra flags.
func TestODRRendersByTheHubClock(t *testing.T) {
	const (
		render  = 3 * ms
		horizon = 10 * time.Second
	)
	feed := odrInputScript()

	var viaODR []started
	f := newFixture(defaultNet())
	p := NewODR(f.ctx, ODROptions{TargetFPS: 60})
	feed(f.env, f.ctx.Inputs)
	f.env.Spawn("renderer", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		for {
			p.RenderGate(w)
			fr := &frame.Frame{}
			core.Tag(fr, f.ctx.Inputs.ConsumePending())
			viaODR = append(viaODR, started{at: pr.Now()})
			pr.Sleep(render)
			p.SubmitRendered(w, fr)
			viaODR[len(viaODR)-1].extra = fr.Extra
		}
	})
	f.env.Spawn("proxy", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		for fr := p.AcquireForEncode(w); fr != nil; fr = p.AcquireForEncode(w) {
			p.SubmitEncoded(w, fr)
		}
	})
	f.env.Spawn("network", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		for fr := p.AcquireForSend(w); fr != nil; fr = p.AcquireForSend(w) {
			p.DoneSend(fr)
		}
	})
	f.env.Run(horizon)
	f.env.Shutdown()

	var viaClock []started
	env := sim.NewEnv()
	dom := simrt.NewDomain(env)
	box := core.NewInputBox(dom)
	clock := core.NewRenderClock(dom, box, core.NewPacer(0), core.RuleODR)
	feed(env, box)
	clock.SetDemand(60)
	env.Spawn("renderer", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		for clock.Begin(w) {
			viaClock = append(viaClock, started{pr.Now(), clock.Extra()})
			box.ConsumePending()
			pr.Sleep(render)
			clock.End()
		}
	})
	env.Run(horizon)
	env.Shutdown()

	extras := 0
	for _, s := range viaClock {
		if s.extra {
			extras++
		}
	}
	if extras < 50 || len(viaClock) < 600 {
		t.Fatalf("%d frames, %d extra: the script does not exercise the clock", len(viaClock), extras)
	}
	if len(viaODR) != len(viaClock) {
		t.Fatalf("ODR started %d frames, the hub's clock %d", len(viaODR), len(viaClock))
	}
	for k := range viaClock {
		if viaODR[k] != viaClock[k] {
			t.Fatalf("frame %d: ODR %+v, hub's clock %+v", k, viaODR[k], viaClock[k])
		}
	}
}

// TestODRWaitsForTheEncoderAsTheHubDoes is the same differential with an
// encoder at twice the render cost, slower than the 60 FPS slot, so Mul-Buf1
// paces the renderer. ODR's hooks and a bare RuleODR clock driven the way
// Hub.Run drives it (Begin; WaitBackFree, cut by a pending input; render;
// TryPut for a regular frame or PutPriority for an input frame; End) into a
// core.MultiBuffer drained by a proxy of the same cost give the same frame
// starts, extra flags and drops, and on both sides no regular frame's put
// drops a frame: only an input frame displaces obsolete ones.
func TestODRWaitsForTheEncoderAsTheHubDoes(t *testing.T) {
	const (
		render  = 9 * ms
		encode  = 2 * render
		horizon = 10 * time.Second
	)
	feed := odrInputScript()
	type side struct {
		starts       []started
		dropped      []uint64
		regularDrops int
	}
	var viaODR side
	f := newFixture(defaultNet())
	p := NewODR(f.ctx, ODROptions{TargetFPS: 60})
	feed(f.env, f.ctx.Inputs)
	f.env.Spawn("renderer", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		for seq := uint64(1); ; seq++ {
			p.RenderGate(w)
			fr := &frame.Frame{Seq: seq}
			core.Tag(fr, f.ctx.Inputs.ConsumePending())
			viaODR.starts = append(viaODR.starts, started{at: pr.Now()})
			pr.Sleep(render)
			before := len(f.dropped)
			p.SubmitRendered(w, fr)
			if !fr.Priority {
				viaODR.regularDrops += len(f.dropped) - before
			}
			viaODR.starts[len(viaODR.starts)-1].extra = fr.Extra
		}
	})
	f.env.Spawn("proxy", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		for fr := p.AcquireForEncode(w); fr != nil; fr = p.AcquireForEncode(w) {
			pr.Sleep(encode)
			p.SubmitEncoded(w, fr)
		}
	})
	f.env.Spawn("network", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		for fr := p.AcquireForSend(w); fr != nil; fr = p.AcquireForSend(w) {
			p.DoneSend(fr)
		}
	})
	f.env.Run(horizon)
	f.env.Shutdown()
	for _, d := range f.dropped {
		viaODR.dropped = append(viaODR.dropped, d.Seq)
	}

	var viaHub side
	waited := 0
	env := sim.NewEnv()
	dom := simrt.NewDomain(env)
	box := core.NewInputBox(dom)
	lane := core.NewMultiBuffer(dom)
	box.Subscribe(lane.Changed())
	clock := core.NewRenderClock(dom, box, core.NewPacer(0), core.RuleODR)
	feed(env, box)
	clock.SetDemand(60)
	env.Spawn("renderer", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		for seq := uint64(1); clock.Begin(w); seq++ {
			begun := pr.Now()
			lane.WaitBackFree(w, box.PendingLocked)
			if pr.Now() > begun {
				waited++
			}
			viaHub.starts = append(viaHub.starts, started{pr.Now(), clock.Extra()})
			fr := &frame.Frame{Seq: seq}
			core.Tag(fr, box.ConsumePending())
			pr.Sleep(render)
			if fr.Priority {
				for _, d := range lane.PutPriority(fr) {
					viaHub.dropped = append(viaHub.dropped, d.Seq)
				}
			} else if !lane.TryPut(fr) {
				viaHub.regularDrops++
			}
			clock.End()
		}
	})
	env.Spawn("proxy", func(pr *sim.Proc) {
		w := simrt.NewWaiter(pr)
		for fr := lane.Acquire(w); fr != nil; fr = lane.Acquire(w) {
			pr.Sleep(encode)
			lane.Release()
		}
	})
	env.Run(horizon)
	env.Shutdown()

	if waited < 100 || len(viaHub.dropped) == 0 {
		t.Fatalf("the renderer waited on the encoder %d times and input frames dropped %d: the encoder does not pace the renderer", waited, len(viaHub.dropped))
	}
	if viaODR.regularDrops != 0 || viaHub.regularDrops != 0 {
		t.Fatalf("regular frames dropped %d frames through ODR, %d through the hub's sequence; want none", viaODR.regularDrops, viaHub.regularDrops)
	}
	if len(viaODR.starts) != len(viaHub.starts) {
		t.Fatalf("ODR started %d frames, the hub's sequence %d", len(viaODR.starts), len(viaHub.starts))
	}
	for k := range viaHub.starts {
		if viaODR.starts[k] != viaHub.starts[k] {
			t.Fatalf("frame %d: ODR %+v, hub's sequence %+v", k, viaODR.starts[k], viaHub.starts[k])
		}
	}
	if fmt.Sprint(viaODR.dropped) != fmt.Sprint(viaHub.dropped) {
		t.Fatalf("ODR dropped frames %v, the hub's sequence %v", viaODR.dropped, viaHub.dropped)
	}
}

// TestIntervalRendersByTheHubClock is the same differential for the interval
// baselines: one seeded input script on the virtual clock, run through
// Interval's hooks and through a bare core.RenderClock under RuleInterval
// driven the way Hub.Run drives it, gives the same frame starts. The IntMax
// case applies one scripted ratchet to both sides: Interval's OnWindow, and on
// the bare clock SetDemand of the same step, as the hub publishes a demand.
func TestIntervalRendersByTheHubClock(t *testing.T) {
	const (
		render  = 3 * ms
		horizon = 10 * time.Second
	)
	rng := rand.New(rand.NewSource(11))
	var script []time.Duration
	for j := 0; j < 100; j++ {
		script = append(script, time.Duration(j)*100*ms+time.Duration(rng.Int63n(int64(100*ms))))
	}
	// One rate window every 500 ms, off the grid; every third shows a gap.
	type window struct {
		at             time.Duration
		render, client float64
	}
	var windows []window
	for k := 1; k < 20; k++ {
		client := 40 + 60*rng.Float64()
		w := window{at: time.Duration(k)*500*ms + time.Duration(rng.Int63n(int64(50*ms))), render: client + 2, client: client}
		if k%3 == 0 {
			w.render += 10
		}
		windows = append(windows, w)
	}
	schedule := func(env *sim.Env, box *core.InputBox, onWindow func(window)) {
		for j, at := range script {
			id, at := frame.InputID(j+1), at
			env.At(at, func() { box.OnInput(id, at) })
		}
		if onWindow != nil {
			for _, w := range windows {
				w := w
				env.At(w.at, func() { onWindow(w) })
			}
		}
	}

	for _, target := range []float64{60, 0} {
		name := "Int60"
		if target == 0 {
			name = "IntMax"
		}
		t.Run(name, func(t *testing.T) {
			var viaInterval []time.Duration
			f := newFixture(defaultNet())
			p := NewInterval(f.ctx, target)
			var onWindow func(window)
			if target == 0 {
				onWindow = func(w window) { p.OnWindow(w.render, w.client) }
			}
			schedule(f.env, f.ctx.Inputs, onWindow)
			f.env.Spawn("renderer", func(pr *sim.Proc) {
				w := simrt.NewWaiter(pr)
				for {
					p.RenderGate(w)
					fr := &frame.Frame{}
					core.Tag(fr, f.ctx.Inputs.ConsumePending())
					viaInterval = append(viaInterval, pr.Now())
					pr.Sleep(render)
					p.SubmitRendered(w, fr)
				}
			})
			f.env.Spawn("proxy", func(pr *sim.Proc) {
				w := simrt.NewWaiter(pr)
				for fr := p.AcquireForEncode(w); fr != nil; fr = p.AcquireForEncode(w) {
					p.SubmitEncoded(w, fr)
				}
			})
			f.env.Spawn("network", func(pr *sim.Proc) {
				w := simrt.NewWaiter(pr)
				for fr := p.AcquireForSend(w); fr != nil; fr = p.AcquireForSend(w) {
					p.DoneSend(fr)
				}
			})
			f.env.Run(horizon)
			f.env.Shutdown()

			var viaClock []time.Duration
			env := sim.NewEnv()
			dom := simrt.NewDomain(env)
			box := core.NewInputBox(dom)
			clock := core.NewRenderClock(dom, box, core.NewPacer(0), core.RuleInterval)
			demand, steps := target, 0
			onWindow = nil
			if target == 0 {
				demand = math.Inf(1)
				onWindow = func(w window) {
					if next := ratchet(demand, w.render, w.client); next != demand {
						demand = next
						steps++
						clock.SetDemand(demand)
					}
				}
			}
			schedule(env, box, onWindow)
			clock.SetDemand(demand)
			env.Spawn("renderer", func(pr *sim.Proc) {
				w := simrt.NewWaiter(pr)
				for clock.Begin(w) {
					viaClock = append(viaClock, pr.Now())
					box.ConsumePending()
					pr.Sleep(render)
					clock.End()
				}
			})
			env.Run(horizon)
			env.Shutdown()

			if target == 0 && (steps < 3 || len(viaClock) < 500) {
				t.Fatalf("%d frames over %d ratchet steps: the script does not exercise IntMax", len(viaClock), steps)
			}
			if iv := core.NewPacer(60).Interval(); target == 60 && len(viaClock) != int((horizon+iv-1)/iv) {
				t.Fatalf("%d frames, want one per 60 FPS tick before %v", len(viaClock), horizon)
			}
			if len(viaInterval) != len(viaClock) {
				t.Fatalf("%s started %d frames, the hub's clock %d", name, len(viaInterval), len(viaClock))
			}
			for k := range viaClock {
				if viaInterval[k] != viaClock[k] {
					t.Fatalf("frame %d: %s started at %v, the hub's clock at %v", k, name, viaInterval[k], viaClock[k])
				}
			}
		})
	}
}

func TestODRSendBacklogZeroWithMulBuf2(t *testing.T) {
	f := newFixture(defaultNet())
	p := NewODR(f.ctx, ODROptions{})
	if p.SendBacklog() != 0 {
		t.Fatal("Mul-Buf2 backlog must be 0")
	}
	f.env.Shutdown()
}

func TestSendBufTailDropsAndCounts(t *testing.T) {
	f := newFixture(netsim.Params{RTT: 2 * ms, Bandwidth: 1e6, BufferBytes: 100 << 10})
	f.ctx.Buffer = 100 << 10
	p := NewNoReg(f.ctx)
	var w core.Waiter
	f.env.Spawn("proxy", func(pr *sim.Proc) {
		w = simrt.NewWaiter(pr)
		for i := 0; i < 5; i++ {
			p.SubmitEncoded(w, &frame.Frame{Seq: uint64(i), Bytes: 30 << 10})
		}
	})
	f.env.RunAll()
	f.env.Shutdown()
	// 100KB buffer fits 3 x 30KB; 2 dropped.
	if len(f.dropped) != 2 {
		t.Fatalf("dropped %d, want 2", len(f.dropped))
	}
	if p.SendBacklog() != 90<<10 {
		t.Fatalf("SendBacklog = %d", p.SendBacklog())
	}
}

func TestPoliciesCloseCleanly(t *testing.T) {
	f := newFixture(defaultNet())
	policies := []Policy{
		NewNoReg(f.ctx),
		NewInterval(f.ctx, 60),
		NewRVS(f.ctx, 60, 0),
		NewODR(f.ctx, ODROptions{TargetFPS: 60}),
	}
	var unblocked int
	for _, p := range policies {
		p := p
		f.env.Spawn("enc", func(pr *sim.Proc) {
			w := simrt.NewWaiter(pr)
			if p.AcquireForEncode(w) == nil {
				unblocked++
			}
		})
		f.env.Spawn("net", func(pr *sim.Proc) {
			w := simrt.NewWaiter(pr)
			if p.AcquireForSend(w) == nil {
				unblocked++
			}
		})
	}
	f.env.After(10*ms, func() {
		for _, p := range policies {
			p.Close()
		}
	})
	f.env.RunAll()
	f.env.Shutdown()
	if unblocked != len(policies)*2 {
		t.Fatalf("unblocked %d of %d stage waits", unblocked, len(policies)*2)
	}
}

func TestODRAutoStepsDownAndRecovers(t *testing.T) {
	f := newFixture(defaultNet())
	a := NewODRAuto(f.ctx, 60, 20)
	if a.Target() != 60 {
		t.Fatalf("initial target = %v", a.Target())
	}
	// Three windows well below target: step down.
	for i := 0; i < 3; i++ {
		a.OnWindow(60, 40)
	}
	if a.Target() >= 60 {
		t.Fatalf("target did not step down: %v", a.Target())
	}
	down := a.Target()
	// Ten windows at target: step back up.
	for i := 0; i < 10; i++ {
		a.OnWindow(down, down)
	}
	if a.Target() <= down {
		t.Fatalf("target did not recover: %v", a.Target())
	}
	// Sustained collapse bottoms out at the floor.
	for i := 0; i < 200; i++ {
		a.OnWindow(60, 5)
	}
	if a.Target() < 20-1e-9 {
		t.Fatalf("target fell below the floor: %v", a.Target())
	}
	// The pacer must track the controller once the renderer adopts the new
	// demand, at its next render gate.
	f.env.Spawn("renderer", func(pr *sim.Proc) { a.RenderGate(simrt.NewWaiter(pr)) })
	f.env.RunAll()
	if got := float64(time.Second) / float64(a.Pacer().Interval()); got != a.Target() {
		t.Fatalf("pacer at %.1f FPS, controller at %.1f", got, a.Target())
	}
	f.env.Shutdown()
}

func TestODRAutoIgnoresEmptyWindows(t *testing.T) {
	f := newFixture(defaultNet())
	a := NewODRAuto(f.ctx, 60, 0)
	for i := 0; i < 10; i++ {
		a.OnWindow(0, 0)
	}
	if a.Target() != 60 {
		t.Fatalf("empty windows moved the target to %v", a.Target())
	}
	f.env.Shutdown()
}
