package core_test

import (
	"math/rand"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/frame"
	"odr/internal/sim"
	"odr/internal/simrt"
)

// clockFrame is one frame a clockRig renderer produced.
type clockFrame struct {
	start  time.Duration
	inputs int // stamps the frame consumed
}

// lateWaiter overshoots every timed wait, the way a real timer does.
type lateWaiter struct {
	core.Waiter
	late func() time.Duration
}

func (l lateWaiter) WaitTimeout(c core.Cond, d time.Duration) bool {
	return l.Waiter.WaitTimeout(c, d+l.late())
}

// clockRig is a renderer loop on the virtual clock: Begin, consume inputs,
// render for a fixed cost, End.
type clockRig struct {
	env    *sim.Env
	box    *core.InputBox
	pace   *core.Pacer
	clock  *core.RenderClock
	frames []clockFrame
	exited time.Duration // when Begin reported false; -1 while running
}

func newClockRig(render time.Duration, late func() time.Duration) *clockRig {
	return newRuleRig(core.RuleODR, func(int) time.Duration { return render }, late)
}

// newRuleRig is newClockRig under any render rule, with frame k taking
// cost(k) to render.
func newRuleRig(rule core.RenderRule, cost func(k int) time.Duration, late func() time.Duration) *clockRig {
	env, dom := newSim()
	r := &clockRig{env: env, box: core.NewInputBox(dom), pace: core.NewPacer(0), exited: -1}
	r.clock = core.NewRenderClock(dom, r.box, r.pace, rule)
	env.Spawn("renderer", func(p *sim.Proc) {
		var w core.Waiter = simrt.NewWaiter(p)
		if late != nil {
			w = lateWaiter{Waiter: w, late: late}
		}
		for r.clock.Begin(w) {
			r.frames = append(r.frames, clockFrame{start: p.Now(), inputs: len(r.box.ConsumePending())})
			p.Sleep(cost(len(r.frames) - 1))
			r.clock.End()
		}
		r.exited = p.Now()
	})
	return r
}

// split walks the frames against the slot grid: a frame that starts at or
// after the next unserved slot is that slot's frame, anything earlier is an
// extra frame. It returns the slot frames by slot index and the extras.
func split(frames []clockFrame, interval time.Duration) (slots map[int]clockFrame, extras []clockFrame) {
	slots = make(map[int]clockFrame)
	next := 0
	for _, f := range frames {
		if f.start >= time.Duration(next)*interval {
			k := int(f.start / interval)
			slots[k] = f
			next = k + 1
		} else {
			extras = append(extras, f)
		}
	}
	return slots, extras
}

// TestRenderClockCadenceExact is R1 on the virtual clock: ten seconds at
// 60 FPS with 100 jittered inputs give exactly 600 slot frames, each on its
// slot, plus one extra frame per input that no slot frame picked up.
func TestRenderClockCadenceExact(t *testing.T) {
	const (
		nSlots = 600
		render = 2 * ms
	)
	r := newClockRig(render, nil)
	interval := core.NewPacer(60).Interval()
	rng := rand.New(rand.NewSource(21))
	var arrivals []time.Duration
	for j := 0; j < 100; j++ {
		at := time.Duration(j)*100*ms + 50*ms + time.Duration(rng.Int63n(int64(50*ms))) - 25*ms
		if j%10 == 5 {
			at = at / interval * interval // dead on a slot: that slot's frame answers it
		}
		arrivals = append(arrivals, at)
		id := frame.InputID(j + 1)
		r.env.At(at, func() { r.box.OnInput(id, at) })
	}
	r.clock.SetDemand(60)
	r.env.Run(nSlots*interval - 1)
	r.env.Shutdown()

	slots, extras := split(r.frames, interval)
	if len(slots) != nSlots {
		t.Fatalf("%d slot frames, want exactly %d", len(slots), nSlots)
	}
	onSlots := 0
	for _, f := range slots {
		onSlots += f.inputs
	}
	if want := len(arrivals) - onSlots; len(extras) != want {
		t.Fatalf("%d extra frames, want %d (100 inputs, %d picked up by slot frames)", len(extras), want, onSlots)
	}
	if onSlots != 10 {
		t.Fatalf("%d inputs on slot frames, want the 10 that arrived dead on a slot", onSlots)
	}

	// An extra frame starts when its input arrives, or — the input having
	// landed during a render — when that render ends; either way there is one
	// frame for the input, not two.
	duringRender := 0
	for _, f := range extras {
		if f.inputs != 1 {
			t.Fatalf("extra frame at %v carries %d inputs, want 1", f.start, f.inputs)
		}
		found := false
		for _, at := range arrivals {
			if f.start == at {
				found = true
			} else if at < f.start && f.start-at < render {
				found = true
				duringRender++
			}
		}
		if !found {
			t.Fatalf("extra frame at %v answers no input", f.start)
		}
	}
	if duringRender == 0 {
		t.Fatal("no input landed during a render: the seed does not cover that case")
	}

	// Every slot frame starts on its slot. The only lateness is an extra
	// frame still rendering when the slot comes due; the slot frame starts as
	// that render ends, and the slot after it is back on the grid.
	late := 0
	for k := 0; k < nSlots; k++ {
		f := slots[k]
		due := time.Duration(k) * interval
		if f.start == due {
			continue
		}
		late++
		if f.start-due >= render {
			t.Fatalf("slot %d started %v late, more than a straddling render explains", k, f.start-due)
		}
		straddled := false
		for _, e := range extras {
			if e.start < due && e.start+render == f.start {
				straddled = true
			}
		}
		if !straddled {
			t.Fatalf("slot %d started at %v, off its slot %v with no extra frame straddling it", k, f.start, due)
		}
		if k+1 < nSlots && slots[k+1].start != due+interval {
			t.Fatalf("slot %d did not absorb slot %d's overrun: started at %v, want %v", k+1, k, slots[k+1].start, due+interval)
		}
	}
	if late == 0 {
		t.Fatal("no extra frame straddled a slot: the seed does not cover a charged overrun")
	}
}

// TestRenderClockAbsorbsTimerOvershoot: every delay wakes 0.7 ms late, and
// the rate still holds — 600 regular frames, each 0.7 ms behind its slot,
// because lateness is charged to the next delay instead of added to it.
func TestRenderClockAbsorbsTimerOvershoot(t *testing.T) {
	const late = 700 * time.Microsecond
	r := newClockRig(2*ms, func() time.Duration { return late })
	interval := core.NewPacer(60).Interval()
	r.clock.SetDemand(60)
	r.env.Run(600*interval - 1)
	r.env.Shutdown()
	if len(r.frames) != 600 {
		t.Fatalf("%d frames, want exactly 600", len(r.frames))
	}
	for k, f := range r.frames[1:] {
		if want := time.Duration(k+1)*interval + late; f.start != want {
			t.Fatalf("frame %d started at %v, want %v", k+1, f.start, want)
		}
	}
}

// TestRenderClockSkipsMissedSlots: a wake-up 40 ms late (a descheduled
// renderer) loses the two slots that went by; they are not replayed back to
// back, and the grid is unmoved.
func TestRenderClockSkipsMissedSlots(t *testing.T) {
	const stall = 40 * ms
	waits := 0
	r := newClockRig(2*ms, func() time.Duration {
		if waits++; waits == 100 {
			return stall
		}
		return 0
	})
	interval := core.NewPacer(60).Interval()
	r.clock.SetDemand(60)
	r.env.Run(600*interval - 1)
	r.env.Shutdown()
	slots, extras := split(r.frames, interval)
	if len(extras) != 0 || len(slots) != 598 {
		t.Fatalf("%d slot frames and %d extras, want 598 and 0", len(slots), len(extras))
	}
	for k := 0; k < 600; k++ {
		f, ok := slots[k]
		switch due := time.Duration(k) * interval; {
		case k == 100 || k == 101:
			if ok {
				t.Fatalf("slot %d, which passed during the stall, was rendered at %v", k, f.start)
			}
		case k == 102:
			if want := 100*interval + stall; f.start != want {
				t.Fatalf("first frame after the stall at %v, want %v", f.start, want)
			}
		case f.start != due:
			t.Fatalf("slot %d started at %v, want %v", k, f.start, due)
		}
	}
}

// TestRenderClockUncappedNeverDelays: at the "maximize FPS" target every
// frame starts the instant the previous one ends.
func TestRenderClockUncappedNeverDelays(t *testing.T) {
	r := newClockRig(ms, nil)
	r.clock.SetDemand(100000)
	r.env.Run(time.Second - 1)
	r.env.Shutdown()
	if len(r.frames) != 1000 {
		t.Fatalf("%d frames, want 1000", len(r.frames))
	}
	for k, f := range r.frames {
		if f.start != time.Duration(k)*ms {
			t.Fatalf("frame %d started at %v, want %v", k, f.start, time.Duration(k)*ms)
		}
	}
	if r.pace.TotalSlept() != 0 {
		t.Fatalf("pacer asked for %v of delay at an uncapped target", r.pace.TotalSlept())
	}
}

// TestRenderClockFollowsDemand is R2 and R3 on the virtual clock: no demand,
// no frame; the first frame comes the instant demand appears; a new demand
// starts a new cadence at once; Stop ends the loop from a park.
func TestRenderClockFollowsDemand(t *testing.T) {
	r := newClockRig(2*ms, nil)
	var targets []float64
	r.clock.OnTarget = func(fps float64) { targets = append(targets, fps) }
	i30 := core.NewPacer(30).Interval()
	i60 := core.NewPacer(60).Interval()
	r.env.At(1000*ms, func() { r.clock.SetDemand(30) })
	r.env.At(1500*ms, func() { r.clock.SetDemand(30) }) // a second 30 FPS viewer: nothing changes
	r.env.At(2010*ms, func() { r.clock.SetDemand(60) }) // mid-delay: the new cadence starts here
	r.env.At(3000*ms, func() { r.clock.SetDemand(0) })
	r.env.At(4000*ms, func() { r.clock.Stop() })
	r.env.RunAll()
	r.env.Shutdown()

	var want []time.Duration
	for at := 1000 * ms; at < 2010*ms; at += i30 {
		want = append(want, at)
	}
	for at := 2010 * ms; at < 3000*ms; at += i60 {
		want = append(want, at)
	}
	if len(r.frames) != len(want) {
		t.Fatalf("%d frames, want %d", len(r.frames), len(want))
	}
	for k, f := range r.frames {
		if f.start != want[k] {
			t.Fatalf("frame %d started at %v, want %v", k, f.start, want[k])
		}
	}
	if len(targets) != 3 || targets[0] != 30 || targets[1] != 60 || targets[2] != 0 {
		t.Fatalf("targets adopted = %v, want [30 60 0]", targets)
	}
	if r.exited != 4000*ms {
		t.Fatalf("renderer left its loop at %v, want at Stop (4s)", r.exited)
	}
}

// TestRenderClockIntervalGrid: interval regulation on the virtual clock. Ten
// seconds at 60 FPS give exactly 600 frames, one per tick; 100 inputs add no
// frame of their own but all ride the next tick's; and timers that wake
// 0.7 ms late leave the grid where it was.
func TestRenderClockIntervalGrid(t *testing.T) {
	const late = 700 * time.Microsecond
	r := newRuleRig(core.RuleInterval, func(int) time.Duration { return 2 * ms }, func() time.Duration { return late })
	interval := core.NewPacer(60).Interval()
	rng := rand.New(rand.NewSource(27))
	for j := 0; j < 100; j++ {
		at := time.Duration(j)*100*ms + time.Duration(rng.Int63n(int64(100*ms)))
		id := frame.InputID(j + 1)
		r.env.At(at, func() { r.box.OnInput(id, at) })
	}
	r.clock.SetDemand(60)
	r.env.Run(600*interval - 1)
	r.env.Shutdown()
	if len(r.frames) != 600 {
		t.Fatalf("%d frames, want exactly 600", len(r.frames))
	}
	// A tick's frame starts when the late timer fires, or earlier when an
	// input landing between the tick and the timer wakes the renderer: never
	// before the tick, never past the timer.
	inputs := 0
	for k, f := range r.frames {
		tick := time.Duration(k) * interval
		if f.start < tick || f.start > tick+late {
			t.Fatalf("frame %d started at %v, off its tick %v", k, f.start, tick)
		}
		inputs += f.inputs
	}
	if inputs != 100 {
		t.Fatalf("frames answered %d inputs, want all 100", inputs)
	}
}

// TestRenderClockIntervalGridAnchoredAtZero: the interval grid is the
// multiples of the interval from domain time zero, whenever a demand arrives.
// A demand set off the grid (1005 ms) waits for its next tick, and a new
// demand set in the middle of a delay (60 → 30 FPS at 2010 ms) starts on the
// next tick of its own grid, not at the moment it was set.
func TestRenderClockIntervalGridAnchoredAtZero(t *testing.T) {
	r := newRuleRig(core.RuleInterval, func(int) time.Duration { return 2 * ms }, nil)
	i60 := core.NewPacer(60).Interval()
	i30 := core.NewPacer(30).Interval()
	r.env.At(1005*ms, func() { r.clock.SetDemand(60) })
	r.env.At(2010*ms, func() { r.clock.SetDemand(30) })
	r.env.At(3000*ms, func() { r.clock.Stop() })
	r.env.RunAll()
	r.env.Shutdown()

	ticks := func(from, to, iv time.Duration) (out []time.Duration) {
		for at := (from + iv - 1) / iv * iv; at < to; at += iv {
			out = append(out, at)
		}
		return out
	}
	want := append(ticks(1005*ms, 2010*ms, i60), ticks(2010*ms, 3000*ms, i30)...)
	if len(r.frames) != len(want) {
		t.Fatalf("%d frames, want %d", len(r.frames), len(want))
	}
	for k, f := range r.frames {
		iv := i60
		if f.start >= 2010*ms {
			iv = i30
		}
		if f.start%iv != 0 || f.start != want[k] {
			t.Fatalf("frame %d started at %v, want %v, a multiple of %v", k, f.start, want[k], iv)
		}
	}
}

// TestRenderClockIntervalOverrunLosesSlot: a frame that renders longer than
// an interval loses the tick it ran past — the next frame waits for the tick
// after — and the grid is unmoved.
func TestRenderClockIntervalOverrunLosesSlot(t *testing.T) {
	r := newRuleRig(core.RuleInterval, func(k int) time.Duration {
		if k == 100 {
			return 20 * ms
		}
		return 2 * ms
	}, nil)
	interval := core.NewPacer(60).Interval()
	r.clock.SetDemand(60)
	r.env.Run(600*interval - 1)
	r.env.Shutdown()
	if len(r.frames) != 599 {
		t.Fatalf("%d frames, want 599: one slot lost to the overrun", len(r.frames))
	}
	for k, f := range r.frames {
		tick := k
		if k > 100 {
			tick++ // slot 101 went by while frame 100 rendered
		}
		if want := time.Duration(tick) * interval; f.start != want {
			t.Fatalf("frame %d started at %v, want %v", k, f.start, want)
		}
	}
}

// TestRenderClockNoRegBackToBack: without regulation every frame starts the
// instant the previous one ends, whatever the demanded rate and however many
// inputs arrive; with no demand the renderer parks, and Stop ends it there.
func TestRenderClockNoRegBackToBack(t *testing.T) {
	r := newRuleRig(core.RuleNoReg, func(int) time.Duration { return ms }, nil)
	for j := 0; j < 50; j++ {
		at := time.Duration(j)*20*ms + 500*time.Microsecond
		id := frame.InputID(j + 1)
		r.env.At(at, func() { r.box.OnInput(id, at) })
	}
	r.clock.SetDemand(60)
	r.env.At(time.Second, func() { r.clock.SetDemand(0) })
	r.env.At(2*time.Second, func() { r.clock.Stop() })
	r.env.RunAll()
	r.env.Shutdown()
	if len(r.frames) != 1000 {
		t.Fatalf("%d frames, want 1000: one per millisecond until the demand went", len(r.frames))
	}
	inputs := 0
	for k, f := range r.frames {
		if f.start != time.Duration(k)*ms {
			t.Fatalf("frame %d started at %v, want %v", k, f.start, time.Duration(k)*ms)
		}
		inputs += f.inputs
	}
	if inputs != 50 {
		t.Fatalf("frames answered %d inputs, want 50", inputs)
	}
	if r.pace.TotalSlept() != 0 {
		t.Fatalf("pacer asked for %v of delay without regulation", r.pace.TotalSlept())
	}
	if r.exited != 2*time.Second {
		t.Fatalf("renderer left its loop at %v, want at Stop (2s) from a park", r.exited)
	}
}

// starts lists the frames' start times.
func (r *clockRig) starts() []time.Duration {
	out := make([]time.Duration, len(r.frames))
	for k, f := range r.frames {
		out[k] = f.start
	}
	return out
}

func sameStarts(t *testing.T, got, want []time.Duration) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("frames started at %v, want %v", got, want)
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("frames started at %v, want %v", got, want)
		}
	}
}

func rvsRig() *clockRig {
	return newRuleRig(core.RuleRVS, func(int) time.Duration { return ms }, nil)
}

// TestRenderClockRVSCap: the clock starts primed with as many tokens as the
// cap — 4, or 2 at 200 Hz and above — and a burst of feedback returns no more
// than the cap either.
func TestRenderClockRVSCap(t *testing.T) {
	for _, c := range []struct {
		hz  float64
		cap int
	}{{60, 4}, {240, 2}} {
		r := rvsRig()
		r.clock.SetDemand(c.hz)
		r.env.At(20*ms, func() {
			for i := 0; i < 10; i++ {
				r.clock.Feedback(0)
			}
		})
		r.env.Run(100 * ms)
		r.env.Shutdown()
		var want []time.Duration
		for k := 0; k < c.cap; k++ {
			want = append(want, time.Duration(k)*ms)
		}
		for k := 0; k < c.cap; k++ {
			want = append(want, 20*ms+time.Duration(k)*ms)
		}
		// The burst's tokens spent, the next frame waits out the fallback.
		want = append(want, 20*ms+time.Duration(c.cap)*ms+50*ms)
		sameStarts(t, r.starts(), want)
	}
}

// TestRenderClockRVSFallback: with no feedback the renderer goes ahead after
// max(3 intervals, 50 ms), and inputs neither wake nor shorten the wait: the
// fallback frame carries them all.
func TestRenderClockRVSFallback(t *testing.T) {
	for _, c := range []struct {
		hz   float64
		wait time.Duration
	}{{60, 50 * ms}, {30, 3 * core.NewPacer(30).Interval()}} {
		r := rvsRig()
		r.clock.SetDemand(c.hz)
		for j, at := range []time.Duration{10 * ms, 40 * ms} {
			id, at := frame.InputID(j+1), at
			r.env.At(at, func() { r.box.OnInput(id, at) })
		}
		r.env.Run(4*ms + c.wait)
		r.env.Shutdown()
		sameStarts(t, r.starts(), []time.Duration{0, ms, 2 * ms, 3 * ms, 4*ms + c.wait})
		if got := r.frames[4].inputs; got != 2 {
			t.Fatalf("%v Hz: the fallback frame carries %d inputs, want both", c.hz, got)
		}
	}
}

// TestRenderClockRVSPrimesOnNewDemand: the clock refills its tokens to the
// new cap when it adopts a new demand, at the Begin after the one it was
// waiting in, and the fallback follows the new interval.
func TestRenderClockRVSPrimesOnNewDemand(t *testing.T) {
	r := rvsRig()
	r.clock.SetDemand(60)
	r.env.At(20*ms, func() { r.clock.SetDemand(30) })
	r.env.Run(200 * ms)
	r.env.Shutdown()
	want := []time.Duration{0, ms, 2 * ms, 3 * ms, 54 * ms, 55 * ms, 56 * ms, 57 * ms, 58 * ms,
		59*ms + 3*core.NewPacer(30).Interval()}
	sameStarts(t, r.starts(), want)
}

// TestRenderClockRVSDelay: after each token — from feedback or the fallback —
// Begin serves the delay the latest feedback set.
func TestRenderClockRVSDelay(t *testing.T) {
	r := rvsRig()
	r.clock.SetDemand(60)
	r.env.At(10*ms, func() { r.clock.Feedback(7 * ms) })
	r.env.At(80*ms, func() { r.clock.Feedback(2 * ms) })
	r.env.Run(140 * ms)
	r.env.Shutdown()
	sameStarts(t, r.starts(), []time.Duration{
		0, ms, 2 * ms, 3 * ms, // primed, no delay fed yet
		17 * ms,  // token at 10 ms, then 7 ms
		75 * ms,  // fallback at 68 ms, then 7 ms
		82 * ms,  // token at 80 ms, then 2 ms
		135 * ms, // fallback at 133 ms, then 2 ms
	})
}

// TestRenderClockRVSStopWakesTokenWait: Stop ends a renderer waiting for a
// token at once.
func TestRenderClockRVSStopWakesTokenWait(t *testing.T) {
	r := rvsRig()
	r.clock.SetDemand(60)
	r.env.At(20*ms, func() { r.clock.Stop() })
	r.env.RunAll()
	r.env.Shutdown()
	if len(r.frames) != 4 || r.exited != 20*ms {
		t.Fatalf("%d frames, renderer left at %v; want 4 frames and a return at Stop (20ms)", len(r.frames), r.exited)
	}
}

// TestRenderClockRVSEndIsNoOp: a renderer that never calls End starts the
// same frames as one that does, and the pacer is never charged.
func TestRenderClockRVSEndIsNoOp(t *testing.T) {
	feed := func(env *sim.Env, clock *core.RenderClock) {
		for k := 1; k <= 10; k++ {
			d := time.Duration(k) * ms
			env.At(time.Duration(k)*15*ms, func() { clock.Feedback(d) })
		}
	}
	r := rvsRig()
	r.clock.SetDemand(60)
	feed(r.env, r.clock)
	r.env.Run(300 * ms)
	r.env.Shutdown()

	env, dom := newSim()
	clock := core.NewRenderClock(dom, core.NewInputBox(dom), core.NewPacer(0), core.RuleRVS)
	clock.SetDemand(60)
	feed(env, clock)
	var noEnd []time.Duration
	env.Spawn("renderer", func(p *sim.Proc) {
		for w := simrt.NewWaiter(p); clock.Begin(w); p.Sleep(ms) {
			noEnd = append(noEnd, p.Now())
		}
	})
	env.Run(300 * ms)
	env.Shutdown()

	sameStarts(t, r.starts(), noEnd)
	if r.pace.TotalSlept() != 0 {
		t.Fatalf("End charged the pacer %v under RuleRVS", r.pace.TotalSlept())
	}
}
