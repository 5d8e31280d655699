package core_test

import (
	"fmt"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/frame"
	"odr/internal/sim"
	"odr/internal/simrt"
)

const ms = time.Millisecond

// newSim returns a fresh simulation environment and its core domain.
func newSim() (*sim.Env, *simrt.Domain) {
	env := sim.NewEnv()
	return env, simrt.NewDomain(env)
}

func TestMultiBufferProducerBlocksUntilRelease(t *testing.T) {
	env, dom := newSim()
	mb := core.NewMultiBuffer(dom)
	var putTimes []time.Duration
	env.Spawn("producer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		for i := uint64(1); i <= 3; i++ {
			mb.Put(w, &frame.Frame{Seq: i})
			putTimes = append(putTimes, p.Now())
		}
	})
	env.Spawn("consumer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		for i := 0; i < 3; i++ {
			f := mb.Acquire(w)
			if f == nil {
				t.Error("nil frame")
				return
			}
			p.Sleep(10 * ms) // encode
			mb.Release()
		}
	})
	env.RunAll()
	env.Shutdown()
	// Put #1 at t=0 (front), #2 at t=0 (back). Put #3 must wait until the
	// consumer releases #1 at t=10ms and the back is promoted.
	if putTimes[0] != 0 || putTimes[1] != 0 {
		t.Fatalf("first puts at %v, want immediate", putTimes[:2])
	}
	if putTimes[2] != 10*ms {
		t.Fatalf("third put at %v, want 10ms", putTimes[2])
	}
}

func TestMultiBufferConsumerBlocksUntilPut(t *testing.T) {
	env, dom := newSim()
	mb := core.NewMultiBuffer(dom)
	var acquiredAt time.Duration
	env.Spawn("consumer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		f := mb.Acquire(w)
		acquiredAt = p.Now()
		if f.Seq != 7 {
			t.Errorf("Seq = %d", f.Seq)
		}
		mb.Release()
	})
	env.Spawn("producer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		p.Sleep(25 * ms)
		mb.Put(w, &frame.Frame{Seq: 7})
	})
	env.RunAll()
	env.Shutdown()
	if acquiredAt != 25*ms {
		t.Fatalf("acquired at %v, want 25ms", acquiredAt)
	}
}

func TestMultiBufferRateSynchronization(t *testing.T) {
	// Fast producer (5ms/frame) + slow consumer (20ms/frame): after a run,
	// produced ~= consumed (+2 buffered) and zero frames dropped. This is
	// the §5.1 claim: the faster side naturally pauses for the slower one.
	env, dom := newSim()
	mb := core.NewMultiBuffer(dom)
	produced, consumed := 0, 0
	env.Spawn("producer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		for {
			p.Sleep(5 * ms) // render
			if !mb.Put(w, &frame.Frame{}) {
				return
			}
			produced++
		}
	})
	env.Spawn("consumer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		for {
			f := mb.Acquire(w)
			if f == nil {
				return
			}
			p.Sleep(20 * ms) // encode
			mb.Release()
			consumed++
		}
	})
	env.Run(2 * time.Second)
	env.Shutdown()
	// Consumer rate: 50/s => ~100 consumed in 2s.
	if consumed < 95 || consumed > 101 {
		t.Fatalf("consumed = %d, want ~100", consumed)
	}
	if produced-consumed > 2 {
		t.Fatalf("produced %d vs consumed %d: producer was not throttled", produced, consumed)
	}
}

func TestMultiBufferPutPriorityDropsObsolete(t *testing.T) {
	env, dom := newSim()
	mb := core.NewMultiBuffer(dom)
	env.Spawn("test", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		mb.Put(w, &frame.Frame{Seq: 1}) // front
		mb.Put(w, &frame.Frame{Seq: 2}) // back
		dropped := mb.PutPriority(&frame.Frame{Seq: 3, Priority: true})
		if len(dropped) != 2 {
			t.Errorf("dropped = %d frames, want 2 (both unconsumed frames)", len(dropped))
		}
		f := mb.Acquire(w)
		if f.Seq != 3 {
			t.Errorf("acquired Seq = %d, want priority frame 3", f.Seq)
		}
		mb.Release()
	})
	env.RunAll()
	env.Shutdown()
}

func TestMultiBufferPutPriorityPreservesConsumingFrame(t *testing.T) {
	env, dom := newSim()
	mb := core.NewMultiBuffer(dom)
	env.Spawn("test", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		mb.Put(w, &frame.Frame{Seq: 1})
		got := mb.Acquire(w) // consumer working on Seq 1
		if got.Seq != 1 {
			t.Errorf("Seq = %d", got.Seq)
		}
		dropped := mb.PutPriority(&frame.Frame{Seq: 2, Priority: true})
		if len(dropped) != 0 {
			t.Errorf("dropped = %v, want none (frame being consumed is not obsolete)", dropped)
		}
		mb.Release()
		next := mb.Acquire(w)
		if next.Seq != 2 {
			t.Errorf("next Seq = %d, want 2", next.Seq)
		}
		mb.Release()
	})
	env.RunAll()
	env.Shutdown()
}

func TestMultiBufferCloseUnblocksEveryone(t *testing.T) {
	env, dom := newSim()
	mb := core.NewMultiBuffer(dom)
	var consumerGotNil, producerFailed bool
	env.Spawn("consumer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		consumerGotNil = mb.Acquire(w) == nil
	})
	env.Spawn("producer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		mb.Put(w, &frame.Frame{Seq: 1})
		mb.Put(w, &frame.Frame{Seq: 2})
		producerFailed = !mb.Put(w, &frame.Frame{Seq: 3}) // blocks until close
	})
	env.After(50*ms, func() { mb.Close() })
	env.RunAll()
	env.Shutdown()
	if consumerGotNil {
		t.Fatal("consumer should have received frame 1, not nil")
	}
	if !producerFailed {
		t.Fatal("blocked producer should have failed on Close")
	}
	if !mb.Closed() {
		t.Fatal("Closed() = false")
	}
}

func TestMultiBufferAcquireNilAfterCloseAndDrain(t *testing.T) {
	env, dom := newSim()
	mb := core.NewMultiBuffer(dom)
	var second *frame.Frame
	sentinel := &frame.Frame{Seq: 99}
	second = sentinel
	env.Spawn("test", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		mb.Put(w, &frame.Frame{Seq: 1})
		mb.Close()
		f := mb.Acquire(w)
		if f == nil || f.Seq != 1 {
			t.Error("frame buffered before Close must still drain")
		}
		mb.Release()
		second = mb.Acquire(w)
	})
	env.RunAll()
	env.Shutdown()
	if second != nil {
		t.Fatal("Acquire after close+drain must return nil")
	}
}

func TestMultiBufferTryVariants(t *testing.T) {
	env, dom := newSim()
	mb := core.NewMultiBuffer(dom)
	if mb.TryAcquire() != nil {
		t.Fatal("TryAcquire on empty buffer should return nil")
	}
	env.Spawn("producer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		mb.Put(w, &frame.Frame{Seq: 1})
		mb.Put(w, &frame.Frame{Seq: 2})
	})
	env.RunAll()
	if f := mb.TryAcquire(); f == nil || f.Seq != 1 {
		t.Fatalf("TryAcquire = %+v", f)
	}
	if mb.Occupancy() != 2 {
		t.Fatalf("Occupancy = %d", mb.Occupancy())
	}
	env.Shutdown()
}

// TestMultiBufferTryPutNeverDisplaces: TryPut promotes into an empty buffer,
// fills a free back buffer without touching an unconsumed front, and is
// refused by a full back buffer and by a closed buffer.
func TestMultiBufferTryPutNeverDisplaces(t *testing.T) {
	_, dom := newSim()
	mb := core.NewMultiBuffer(dom)
	if !mb.TryPut(&frame.Frame{Seq: 1}) {
		t.Fatal("TryPut into an empty buffer refused")
	}
	if f := mb.TryAcquire(); f == nil || f.Seq != 1 {
		t.Fatalf("front = %+v, want Seq 1 promoted", f)
	}
	mb.Release()
	mb.TryPut(&frame.Frame{Seq: 2}) // unconsumed front
	if !mb.TryPut(&frame.Frame{Seq: 3}) {
		t.Fatal("TryPut into a free back buffer refused")
	}
	if mb.TryPut(&frame.Frame{Seq: 4}) {
		t.Fatal("TryPut into a full back buffer stored")
	}
	for _, want := range []uint64{2, 3} {
		if f := mb.TryAcquire(); f == nil || f.Seq != want {
			t.Fatalf("acquired %+v, want Seq %d", f, want)
		}
		mb.Release()
	}
	mb.Close()
	if mb.TryPut(&frame.Frame{Seq: 5}) || mb.Occupancy() != 0 {
		t.Fatal("TryPut into a closed buffer stored")
	}
}

// TestMultiBufferPutRegularKeepsInputFrames: PutRegular fills a free back
// buffer, displaces the regular frames the consumer has not taken, and is
// refused while an input-triggered frame waits in either slot.
func TestMultiBufferPutRegularKeepsInputFrames(t *testing.T) {
	_, dom := newSim()
	mb := core.NewMultiBuffer(dom)
	put := func(f *frame.Frame, stored bool, dropped []uint64, refused bool) {
		t.Helper()
		s, d, r := mb.PutRegular(f)
		var seqs []uint64
		for _, x := range d {
			seqs = append(seqs, x.Seq)
		}
		if s != stored || r != refused || fmt.Sprint(seqs) != fmt.Sprint(dropped) {
			t.Fatalf("PutRegular(%d) = stored %v, dropped %v, refused %v; want %v, %v, %v", f.Seq, s, seqs, r, stored, dropped, refused)
		}
	}
	put(&frame.Frame{Seq: 1}, true, nil, false) // promoted to the front
	put(&frame.Frame{Seq: 2}, true, nil, false) // the free back buffer
	put(&frame.Frame{Seq: 3}, true, []uint64{2, 1}, false)
	mb.TryAcquire() // 3 is being consumed
	mb.PutPriority(&frame.Frame{Seq: 4, Priority: true})
	put(&frame.Frame{Seq: 5}, false, nil, true)
	mb.Release() // 4 waits unconsumed in the front
	put(&frame.Frame{Seq: 6}, true, nil, false)
	put(&frame.Frame{Seq: 7}, true, []uint64{6}, false)
	for _, want := range []uint64{4, 7} {
		if f := mb.TryAcquire(); f == nil || f.Seq != want {
			t.Fatalf("acquired %+v, want Seq %d", f, want)
		}
		mb.Release()
	}
	mb.Close()
	put(&frame.Frame{Seq: 8}, false, nil, false)
}

func TestInputBoxCombinesPendingInputs(t *testing.T) {
	env, dom := newSim()
	box := core.NewInputBox(dom)
	box.OnInput(1, 10*ms)
	box.OnInput(2, 20*ms)
	box.OnInput(3, 30*ms)
	if !box.HasPending() {
		t.Fatal("HasPending = false")
	}
	inputs := box.ConsumePending()
	if len(inputs) != 3 || inputs[0].ID != 1 || inputs[2].ID != 3 {
		t.Fatalf("ConsumePending = %+v", inputs)
	}
	if box.HasPending() {
		t.Fatal("pending not cleared")
	}
	if box.Total() != 3 {
		t.Fatalf("Total = %d", box.Total())
	}
	f := &frame.Frame{Seq: 1}
	core.Tag(f, inputs)
	if !f.Priority || f.Input != 1 || f.InputTime != 10*ms || len(f.Inputs) != 3 {
		t.Fatalf("Tag result: %+v", f)
	}
	env.Shutdown()
}

func TestTagNoInputsIsNoop(t *testing.T) {
	f := &frame.Frame{Seq: 5}
	core.Tag(f, nil)
	if f.Priority || f.Input != 0 || len(f.Inputs) != 0 {
		t.Fatalf("Tag(nil) modified frame: %+v", f)
	}
}

func TestInputBoxDelayInterruptedByInput(t *testing.T) {
	env, dom := newSim()
	box := core.NewInputBox(dom)
	var interrupted bool
	var at time.Duration
	env.Spawn("renderer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		interrupted = box.DelayInterruptible(w, 100*ms)
		at = p.Now()
	})
	env.After(30*ms, func() { box.OnInput(1, 30*ms) })
	env.RunAll()
	env.Shutdown()
	if !interrupted || at != 30*ms {
		t.Fatalf("interrupted=%v at=%v, want true at 30ms", interrupted, at)
	}
}

func TestInputBoxDelayExpiresWithoutInput(t *testing.T) {
	env, dom := newSim()
	box := core.NewInputBox(dom)
	var interrupted bool
	var at time.Duration
	env.Spawn("renderer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		interrupted = box.DelayInterruptible(w, 40*ms)
		at = p.Now()
	})
	env.RunAll()
	env.Shutdown()
	if interrupted || at != 40*ms {
		t.Fatalf("interrupted=%v at=%v, want false at 40ms", interrupted, at)
	}
}

func TestInputBoxDelayReturnsImmediatelyWhenPending(t *testing.T) {
	env, dom := newSim()
	box := core.NewInputBox(dom)
	box.OnInput(1, 0)
	var interrupted bool
	var at time.Duration
	env.Spawn("renderer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		interrupted = box.DelayInterruptible(w, 100*ms)
		at = p.Now()
	})
	env.RunAll()
	env.Shutdown()
	if !interrupted || at != 0 {
		t.Fatalf("interrupted=%v at=%v, want true at 0", interrupted, at)
	}
}

func TestInputBoxZeroDelay(t *testing.T) {
	env, dom := newSim()
	box := core.NewInputBox(dom)
	var got bool
	env.Spawn("renderer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		got = box.DelayInterruptible(w, 0)
	})
	env.RunAll()
	env.Shutdown()
	if got {
		t.Fatal("zero delay with no pending input should report false")
	}
}

func TestInputBoxInterruptCutsDelayWithoutAnInput(t *testing.T) {
	env, dom := newSim()
	box := core.NewInputBox(dom)
	var cut [3]bool
	var at [3]time.Duration
	env.Spawn("renderer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		cut[0] = box.DelayInterruptible(w, 100*ms) // interrupted at 30 ms
		at[0] = p.Now()
		p.Sleep(20 * ms) // busy until 50 ms; an interrupt lands at 40 ms
		cut[1] = box.DelayInterruptible(w, 100*ms)
		at[1] = p.Now()
		cut[2] = box.DelayInterruptible(w, 100*ms) // nothing left to cut it short
		at[2] = p.Now()
	})
	env.After(30*ms, box.Interrupt)
	env.After(40*ms, box.Interrupt)
	env.RunAll()
	env.Shutdown()
	if cut != [3]bool{} {
		t.Fatalf("DelayInterruptible reported an input %v, want none: an interrupt is not an input", cut)
	}
	if want := [3]time.Duration{30 * ms, 50 * ms, 150 * ms}; at != want {
		t.Fatalf("delays ended at %v, want %v (woken; consumed while busy; full delay)", at, want)
	}
	if box.HasPending() || box.Total() != 0 {
		t.Fatalf("interrupts left pending=%v total=%d, want nothing recorded", box.HasPending(), box.Total())
	}
}

func TestInputBoxParkWakesOnInterrupt(t *testing.T) {
	env, dom := newSim()
	box := core.NewInputBox(dom)
	idle := true
	var woke time.Duration
	env.Spawn("renderer", func(p *sim.Proc) {
		box.Park(simrt.NewWaiter(p), func() bool { return idle })
		woke = p.Now()
	})
	env.After(10*ms, box.Interrupt) // idle still holds: keep parking
	env.After(20*ms, func() { box.OnInput(1, 20*ms) })
	env.After(30*ms, func() { idle = false; box.Interrupt() })
	env.RunAll()
	env.Shutdown()
	if woke != 30*ms {
		t.Fatalf("Park returned at %v, want 30ms (when idle stopped holding)", woke)
	}
}

func TestOdrEncodeLoopEndToEndSim(t *testing.T) {
	// Wire renderer -> MulBuf1 -> encoder(Pacer) -> MulBuf2 -> sender in
	// the simulator and check the encoder hits a 60FPS target while the
	// renderer could run at 200FPS.
	env, dom := newSim()
	buf1 := core.NewMultiBuffer(dom)
	buf2 := core.NewMultiBuffer(dom)
	pacer := core.NewPacer(60)
	encoded, sent := 0, 0
	env.Spawn("renderer", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		for seq := uint64(0); ; seq++ {
			p.Sleep(5 * ms) // 200FPS-capable renderer
			if !buf1.Put(w, &frame.Frame{Seq: seq}) {
				return
			}
		}
	})
	env.Spawn("encoder", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		for {
			f := buf1.Acquire(w)
			if f == nil {
				return
			}
			start := p.Now()
			p.Sleep(4 * ms) // encode time
			if !buf2.Put(w, f) {
				return
			}
			encoded++
			if d := pacer.PaceAfter(start, p.Now()); d > 0 {
				p.Sleep(d)
			}
			buf1.Release()
		}
	})
	env.Spawn("sender", func(p *sim.Proc) {
		w := simrt.NewWaiter(p)
		for {
			f := buf2.Acquire(w)
			if f == nil {
				return
			}
			p.Sleep(2 * ms) // transmit
			buf2.Release()
			sent++
		}
	})
	env.Run(5 * time.Second)
	env.Shutdown()
	// 60FPS for 5s => ~300 frames.
	if encoded < 295 || encoded > 305 {
		t.Fatalf("encoded = %d, want ~300 (60FPS target)", encoded)
	}
	if sent < encoded-2 {
		t.Fatalf("sent = %d, encoded = %d", sent, encoded)
	}
}
