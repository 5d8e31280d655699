package stream

import (
	"errors"
	"net"
	"testing"
	"time"

	"odr/internal/chaos"
	"odr/internal/core"
	"odr/internal/testutil"
)

// ---------------------------------------------------------------------------
// Reconnect, drain and eviction unit tests: the life-cycle edges the failure
// matrix exercises end-to-end, pinned down one behavior at a time.
// ---------------------------------------------------------------------------

// TestClientReconnectBudgetExhausted: when every dial fails, Run gives up
// after exactly MaxAttempts with the budget error wrapping the last failure.
func TestClientReconnectBudgetExhausted(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dialErr := errors.New("refused")
	dials := 0
	cli := NewReconnectingClient(func() (net.Conn, error) {
		dials++
		return nil, dialErr
	}, ReconnectPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	err := cli.Run()
	if !errors.Is(err, dialErr) {
		t.Fatalf("Run = %v, want wrapped dial error", err)
	}
	if dials != 3 {
		t.Fatalf("dialed %d times, want 3", dials)
	}
}

// TestReconnectBackoffStopNoLeak: Stop during a long backoff sleep must end
// Run immediately — not after the delay elapses — and leave no timer
// goroutine, dial goroutine or connection behind.
func TestReconnectBackoffStopNoLeak(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dialed := make(chan struct{}, 16)
	cli := NewReconnectingClient(func() (net.Conn, error) {
		dialed <- struct{}{}
		return nil, errors.New("refused")
	}, ReconnectPolicy{
		MaxAttempts: 100,
		BaseDelay:   5 * time.Second, // Stop must win long before this elapses
		MaxDelay:    5 * time.Second,
	})
	runErr := make(chan error, 1)
	go func() { runErr <- cli.Run() }()
	select {
	case <-dialed:
	case <-time.After(5 * time.Second):
		t.Fatal("client never dialed")
	}
	// The client is now inside (or entering) its 5s backoff sleep.
	start := time.Now()
	cli.Stop()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run after Stop = %v, want nil", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run did not return within 1s of Stop: backoff sleep ignored the stop")
	}
	if el := time.Since(start); el >= time.Second {
		t.Fatalf("Run took %v to observe Stop", el)
	}
}

// TestClientReconnectBudgetResetsOnProgress: a session that delivers frames
// resets the consecutive-failure budget, so a long-lived flaky stream
// survives far more deaths than MaxAttempts.
func TestClientReconnectBudgetResetsOnProgress(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	h := NewHub(HubConfig{Width: 32, Height: 18, TargetFPS: 240})
	go h.Run()
	defer h.Stop()

	// Every session dies after ~20 KiB of frames — enough for progress.
	sched := chaos.MustParse("disc@20000")
	dial := func() (net.Conn, error) {
		sc, cc := net.Pipe()
		h.Attach(chaos.Wrap(sc, sched, matrixSeed), 0, nil)
		return cc, nil
	}
	cli := NewReconnectingClient(dial, ReconnectPolicy{
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Seed:        matrixSeed,
	})
	runErr := make(chan error, 1)
	go func() { runErr <- cli.Run() }()
	defer cli.Stop()

	// Surviving 3+ reconnects with MaxAttempts=2 proves the reset: without
	// it the third session death would exhaust the budget.
	deadline := time.Now().Add(15 * time.Second)
	for cli.Report().Reconnects < 3 {
		select {
		case err := <-runErr:
			t.Fatalf("client gave up after %d reconnects: %v", cli.Report().Reconnects, err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("stuck at %d reconnects", cli.Report().Reconnects)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cli.Stop()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run after Stop = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client did not stop")
	}
}

// TestHubDrainTimeout: a viewer that never reads blocks its flush; Drain must
// give up after its timeout, report it, and leave the hub stopped with every
// session detached and no goroutine behind.
func TestHubDrainTimeout(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	h := NewHub(HubConfig{Width: 32, Height: 18, TargetFPS: 240})
	go h.Run()
	sc, cc := net.Pipe()
	defer cc.Close()
	gone := make(chan SessionStats, 1)
	h.Attach(sc, 0, func(st SessionStats) { gone <- st })

	if err := h.Drain(200 * time.Millisecond); !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("Drain = %v, want ErrDrainTimeout", err)
	}
	select {
	case <-gone:
	default:
		t.Fatal("Drain returned with the stuck session still attached")
	}
	select {
	case <-h.stopping:
	default:
		t.Fatal("hub not stopped after a drain timeout")
	}
	if n := h.Clients(); n != 0 {
		t.Fatalf("Clients after drain timeout = %d, want 0", n)
	}
}

// TestHubDrainByesAllClients: under every policy, Drain flushes every
// attached session, each client exits via msgBye, and the hub ends with zero
// sessions.
func TestHubDrainByesAllClients(t *testing.T) {
	for _, policy := range []core.RenderRule{core.RuleODR, core.RuleInterval, core.RuleNoReg} {
		t.Run(policy.String(), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			h := NewHub(HubConfig{Width: 32, Height: 18, Policy: policy, TargetFPS: 240})
			go h.Run()
			defer h.Stop()

			const n = 3
			clients := make([]*Client, n)
			errs := make([]chan error, n)
			for i := range clients {
				sc, cc := net.Pipe()
				h.Attach(sc, 0, nil)
				clients[i] = NewClient(cc)
				errs[i] = make(chan error, 1)
				go func(c *Client, ch chan error) { ch <- c.Run() }(clients[i], errs[i])
			}
			for _, c := range clients {
				waitFrames(t, c, 5, 10*time.Second)
			}
			if err := h.Drain(10 * time.Second); err != nil {
				t.Fatalf("Drain = %v, want nil", err)
			}
			for i, ch := range errs {
				select {
				case err := <-ch:
					if err != nil {
						t.Errorf("client %d Run = %v, want nil (orderly bye)", i, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("client %d never received the bye", i)
				}
			}
			if got := h.Clients(); got != 0 {
				t.Errorf("Clients after drain = %d, want 0", got)
			}
		})
	}
}

// TestHubAttachDuringDrainRefused: a connection attached to a draining or
// stopped hub is closed immediately and its detach callback fires with zero
// stats — never a silently dangling session.
func TestHubAttachDuringDrainRefused(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	h := NewHub(HubConfig{Width: 32, Height: 18, TargetFPS: 240})
	go h.Run()
	if err := h.Drain(10 * time.Second); err != nil {
		t.Fatalf("Drain = %v", err)
	}

	sc, cc := net.Pipe()
	detached := make(chan SessionStats, 1)
	h.Attach(sc, 0, func(s SessionStats) { detached <- s })
	select {
	case st := <-detached:
		if st.Sent != 0 {
			t.Errorf("refused session reported stats %+v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("detach callback never fired for refused attach")
	}
	// The conn must be closed: a read on the peer end terminates.
	cc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := cc.Read(make([]byte, 1)); err == nil {
		t.Fatal("refused conn still open")
	}
}
