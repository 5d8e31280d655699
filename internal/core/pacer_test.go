package core

import (
	"testing"
	"testing/quick"
	"time"
)

const ms = time.Millisecond

func TestPacerUnregulatedNeverDelays(t *testing.T) {
	p := NewPacer(0)
	for i := 0; i < 100; i++ {
		if d := p.PaceAfter(0, time.Duration(i)*ms); d != 0 {
			t.Fatalf("unregulated pacer requested delay %v", d)
		}
	}
	if p.Frames() != 100 {
		t.Fatalf("Frames = %d", p.Frames())
	}
}

func TestPacerFastFramesDelayedToInterval(t *testing.T) {
	p := NewPacer(60) // 16.67ms interval
	// A frame processed in 5ms must be followed by an ~11.67ms delay.
	d := p.PaceAfter(0, 5*ms)
	want := p.Interval() - 5*ms
	if d != want {
		t.Fatalf("delay = %v, want %v", d, want)
	}
	if p.AccDelay() != 0 {
		t.Fatalf("accDelay = %v, want 0 after sleep", p.AccDelay())
	}
}

func TestPacerSlowFrameAccumulatesDeficitThenAccelerates(t *testing.T) {
	p := NewPacer(60)
	iv := p.Interval()
	// Slow frame: 3 intervals long.
	if d := p.PaceAfter(0, 3*iv); d != 0 {
		t.Fatalf("slow frame must not be followed by delay, got %v", d)
	}
	if p.AccDelay() != -2*iv {
		t.Fatalf("accDelay = %v, want %v", p.AccDelay(), -2*iv)
	}
	// Two instant frames: still catching up, no delay.
	now := 3 * iv
	for i := 0; i < 2; i++ {
		if d := p.PaceAfter(now, now); d != 0 {
			t.Fatalf("catch-up frame %d delayed by %v", i, d)
		}
		// after each instant frame acc increases by iv
	}
	// Budget restored: next instant frame must be delayed a full interval.
	if d := p.PaceAfter(now, now); d != iv {
		t.Fatalf("post-catch-up delay = %v, want %v", d, iv)
	}
}

func TestPacerMeetsTargetOverWindow(t *testing.T) {
	// Simulate 1000 frames with processing time alternating 5ms and 25ms
	// (mean 15ms < 16.67ms interval): the wall time consumed (processing +
	// requested sleeps) must equal frames*interval within one interval.
	p := NewPacer(60)
	var now time.Duration
	n := 1000
	for i := 0; i < n; i++ {
		pt := 5 * ms
		if i%2 == 1 {
			pt = 25 * ms
		}
		start := now
		now += pt
		now += p.PaceAfter(start, now)
	}
	want := time.Duration(n) * p.Interval()
	diff := now - want
	if diff < -p.Interval() || diff > p.Interval() {
		t.Fatalf("elapsed %v, want %v ± one interval", now, want)
	}
}

func TestPacerDelayOnlyLosesTime(t *testing.T) {
	// Under delay-only (interval-based ablation), a slow frame's overrun is
	// never recovered: total elapsed exceeds frames*interval.
	p := NewPacer(60)
	p.SetDelayOnly(true)
	iv := p.Interval()
	var now time.Duration
	n := 100
	for i := 0; i < n; i++ {
		pt := 5 * ms
		if i%10 == 0 {
			pt = 3 * iv // periodic spike
		}
		start := now
		now += pt
		now += p.PaceAfter(start, now)
	}
	want := time.Duration(n) * iv
	if now <= want+10*iv {
		t.Fatalf("delay-only elapsed %v, expected well above %v", now, want)
	}
}

func TestPacerCreditBounded(t *testing.T) {
	p := NewPacer(60)
	// A 10-second stall must not accumulate more than ~1s of acceleration
	// credit.
	p.PaceAfter(0, 10*time.Second)
	if p.AccDelay() < -time.Second {
		t.Fatalf("accDelay = %v, want >= -1s", p.AccDelay())
	}
}

func TestPacerSetTargetFPS(t *testing.T) {
	p := NewPacer(0)
	p.SetTargetFPS(30)
	if p.Interval() != time.Second/30 {
		t.Fatalf("Interval = %v", p.Interval())
	}
	p.PaceAfter(0, time.Second) // build a deficit
	p.SetTargetFPS(60)
	if p.AccDelay() != 0 {
		t.Fatal("SetTargetFPS must reset the budget")
	}
	p.SetTargetFPS(0)
	if p.Interval() != 0 {
		t.Fatal("SetTargetFPS(0) must disable pacing")
	}
}

// Property: the pacer never requests a negative delay, and after any
// sequence of frames the accumulated budget is within [-1s, 0].
func TestPacerInvariants(t *testing.T) {
	f := func(procTimesMs []uint16) bool {
		p := NewPacer(60)
		var now time.Duration
		for _, m := range procTimesMs {
			pt := time.Duration(m%200) * ms
			start := now
			now += pt
			d := p.PaceAfter(start, now)
			if d < 0 {
				return false
			}
			now += d
			if p.AccDelay() > 0 || p.AccDelay() < -time.Second {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with all frames faster than the interval, the pacer produces
// exactly one interval of wall time per frame.
func TestPacerExactRateProperty(t *testing.T) {
	f := func(procTimesMs []uint8) bool {
		p := NewPacer(100) // 10ms interval
		var now time.Duration
		n := 0
		for _, m := range procTimesMs {
			pt := time.Duration(m%10) * ms // always < interval
			start := now
			now += pt
			now += p.PaceAfter(start, now)
			n++
		}
		return now == time.Duration(n)*p.Interval()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
