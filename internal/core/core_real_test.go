package core_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/frame"
	"odr/internal/realrt"
)

// These tests run the same core components on the real-time runtime with
// actual goroutines, validating the shared-code design (and, under -race,
// the locking discipline).

func TestMultiBufferRealTimeHandoff(t *testing.T) {
	dom := realrt.NewDomain()
	mb := core.NewMultiBuffer(dom)
	const n = 200
	var wg sync.WaitGroup
	wg.Add(2)
	var got []uint64
	go func() {
		defer wg.Done()
		w := realrt.NewWaiter(dom)
		for i := uint64(0); i < n; i++ {
			if !mb.Put(w, &frame.Frame{Seq: i}) {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		w := realrt.NewWaiter(dom)
		for {
			f := mb.Acquire(w)
			if f == nil {
				return
			}
			got = append(got, f.Seq)
			mb.Release()
			if len(got) == n {
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("real-time handoff deadlocked")
	}
	if len(got) != n {
		t.Fatalf("received %d frames, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != uint64(i) {
			t.Fatalf("out of order at %d: %v", i, got[i])
		}
	}
}

func TestMultiBufferRealTimeCloseUnblocks(t *testing.T) {
	dom := realrt.NewDomain()
	mb := core.NewMultiBuffer(dom)
	done := make(chan struct{})
	go func() {
		w := realrt.NewWaiter(dom)
		if f := mb.Acquire(w); f != nil {
			t.Errorf("expected nil frame after close, got %+v", f)
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	mb.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire not unblocked by Close")
	}
}

func TestInputBoxRealTimeInterrupt(t *testing.T) {
	dom := realrt.NewDomain()
	box := core.NewInputBox(dom)
	result := make(chan bool, 1)
	go func() {
		w := realrt.NewWaiter(dom)
		result <- box.DelayInterruptible(w, 5*time.Second)
	}()
	time.Sleep(20 * time.Millisecond)
	box.OnInput(1, dom.Now())
	select {
	case interrupted := <-result:
		if !interrupted {
			t.Fatal("delay should have been interrupted by input")
		}
	case <-time.After(4 * time.Second):
		t.Fatal("DelayInterruptible did not return promptly after input")
	}
}

func TestInputBoxRealTimeTimeout(t *testing.T) {
	dom := realrt.NewDomain()
	box := core.NewInputBox(dom)
	w := realrt.NewWaiter(dom)
	start := time.Now()
	if box.DelayInterruptible(w, 30*time.Millisecond) {
		t.Fatal("no input was sent; delay should time out")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("returned after %v, want >= ~30ms", elapsed)
	}
}

func TestMultiBufferRealTimePriorityConcurrent(t *testing.T) {
	dom := realrt.NewDomain()
	mb := core.NewMultiBuffer(dom)
	var wg sync.WaitGroup
	wg.Add(2)
	// Producer spamming refresh frames until the buffer closes.
	go func() {
		defer wg.Done()
		w := realrt.NewWaiter(dom)
		for i := uint64(0); ; i++ {
			if !mb.Put(w, &frame.Frame{Seq: i}) {
				return
			}
		}
	}()
	// Priority injector.
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			mb.PutPriority(&frame.Frame{Priority: true})
			time.Sleep(time.Millisecond)
		}
	}()
	// Consumer: run until it has seen 25 priority frames.
	var priorities int
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		w := realrt.NewWaiter(dom)
		for priorities < 25 {
			f := mb.Acquire(w)
			if f == nil {
				return
			}
			if f.Priority {
				priorities++
			}
			mb.Release()
		}
	}()
	select {
	case <-consumerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent priority test timed out")
	}
	mb.Close() // unblock the producer
	producersDone := make(chan struct{})
	go func() { wg.Wait(); close(producersDone) }()
	select {
	case <-producersDone:
	case <-time.After(5 * time.Second):
		t.Fatal("producers did not exit after Close")
	}
	if priorities < 25 {
		t.Fatalf("saw %d priority frames, want >= 25", priorities)
	}
}

// TestRenderClockRVSRealTime: a RuleRVS renderer on a goroutine starts one
// frame per token another goroutine feeds it, and leaves its token wait at
// Stop.
func TestRenderClockRVSRealTime(t *testing.T) {
	dom := realrt.NewDomain()
	clock := core.NewRenderClock(dom, core.NewInputBox(dom), core.NewPacer(0), core.RuleRVS)
	clock.SetDemand(60)
	var frames atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := realrt.NewWaiter(dom)
		for clock.Begin(w) {
			frames.Add(1)
			clock.End()
		}
	}()
	await := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); frames.Load() < n; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d frames, want %d", frames.Load(), n)
			}
		}
	}
	await(4) // the primed tokens
	for n := int64(5); n <= 24; n++ {
		clock.Feedback(0)
		await(n)
	}
	clock.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Begin not woken from its token wait by Stop")
	}
}
