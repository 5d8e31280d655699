package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// WorkerConfig configures a worker's control-plane agent.
type WorkerConfig struct {
	// ID names the worker; it must be stable across re-registration.
	ID string
	// MasterURL is the master's control endpoint base, e.g.
	// "http://127.0.0.1:7400".
	MasterURL string
	// Addr is the data-plane address advertised to clients.
	Addr string
	// Load reports the worker's current load on every heartbeat (nil
	// reports zeros). Derive it from the local /metrics surface with
	// LoadFromRegistry.
	Load func() LoadReport
	// OnDrain runs (once) when the master orders a drain; it should drain
	// the hub — orderly msgBye per session — and stop accepting clients.
	// After it returns the worker deregisters and Run ends.
	OnDrain func()
	// Interval overrides the master-dictated heartbeat cadence (tests);
	// 0 follows the RegisterResponse.
	Interval time.Duration
	// HTTPClient lets tests inject a chaos-wrapped transport; nil uses a
	// client whose timeout is bounded by the heartbeat deadline.
	HTTPClient *http.Client
	// Logf, when non-nil, receives agent lifecycle logs.
	Logf func(format string, args ...any)
}

// Worker is the agent side of the control plane: it registers with the
// master, heartbeats on the dictated cadence with a fresh load report, and
// obeys the piggybacked commands — OK false re-registers, Drain drains and
// deregisters. Run blocks until Stop or a drain completes.
type Worker struct {
	cfg WorkerConfig

	// mu guards client: register (the Run goroutine) swaps it to adopt the
	// master's deadline while Stop's best-effort deregister may be posting
	// through it from another goroutine.
	mu       sync.Mutex
	client   *http.Client
	interval time.Duration

	stopOnce  sync.Once
	stopping  chan struct{}
	drainOnce sync.Once
}

// NewWorker returns a worker agent; drive it with Run.
func NewWorker(cfg WorkerConfig) *Worker {
	w := &Worker{cfg: cfg, stopping: make(chan struct{})}
	w.client = cfg.HTTPClient
	if w.client == nil {
		w.client = &http.Client{}
	}
	w.interval = cfg.Interval
	return w
}

// httpClient returns the current control-RPC client.
func (w *Worker) httpClient() *http.Client {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.client
}

// Stop ends Run after the in-flight RPC (if any) finishes. It deregisters
// best-effort so the master does not have to wait out the deadline.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() {
		close(w.stopping)
		w.post(PathDeregister, DeregisterRequest{ID: w.cfg.ID}, &struct{}{})
	})
}

// stopped reports whether Stop has been called.
func (w *Worker) stopped() bool {
	select {
	case <-w.stopping:
		return true
	default:
		return false
	}
}

// load returns the current report.
func (w *Worker) load() LoadReport {
	if w.cfg.Load == nil {
		return LoadReport{}
	}
	return w.cfg.Load()
}

// post sends one JSON control RPC.
func (w *Worker) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := w.httpClient().Post(w.cfg.MasterURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s: HTTP %d", path, hr.StatusCode)
	}
	return json.NewDecoder(hr.Body).Decode(resp)
}

// register announces the worker, adopting the master's heartbeat cadence
// unless the config pinned one.
func (w *Worker) register() error {
	var resp RegisterResponse
	err := w.post(PathRegister, RegisterRequest{ID: w.cfg.ID, Addr: w.cfg.Addr, Load: w.load()}, &resp)
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("cluster: register refused: %s", resp.Error)
	}
	if w.cfg.Interval <= 0 && resp.Interval > 0 {
		w.interval = resp.Interval
		// Bound each control RPC by the deadline: a partitioned or hung
		// master must not wedge the heartbeat loop past the point where the
		// master has already declared us dead anyway. Swap a fresh client
		// rather than mutating one a concurrent Stop may be posting through.
		if w.cfg.HTTPClient == nil && resp.Deadline > 0 {
			w.mu.Lock()
			w.client = &http.Client{Timeout: resp.Deadline}
			w.mu.Unlock()
		}
	}
	if w.interval <= 0 {
		w.interval = 250 * time.Millisecond
	}
	w.logf("cluster: worker %s registered with %s (beat every %s)", w.cfg.ID, w.cfg.MasterURL, w.interval)
	return nil
}

// drain runs the OnDrain hook exactly once.
func (w *Worker) drain() {
	w.drainOnce.Do(func() {
		w.logf("cluster: worker %s draining on master's order", w.cfg.ID)
		if w.cfg.OnDrain != nil {
			w.cfg.OnDrain()
		}
	})
}

// Run registers (retrying until Stop) and then heartbeats until Stop or a
// drain order. Heartbeat failures are retried on the same cadence: the
// master's deadline, not the worker's, decides when lost contact becomes
// death — and a dead worker that reconnects is told OK false and
// re-registers, reviving its record.
func (w *Worker) Run() error {
	for {
		if w.stopped() {
			return nil
		}
		if err := w.register(); err == nil {
			break
		} else {
			w.logf("cluster: worker %s register failed: %v", w.cfg.ID, err)
		}
		if !w.sleep(w.retryInterval()) {
			return nil
		}
	}
	for {
		if !w.sleep(w.interval) {
			return nil
		}
		var resp HeartbeatResponse
		err := w.post(PathHeartbeat, HeartbeatRequest{ID: w.cfg.ID, Load: w.load()}, &resp)
		if err != nil {
			w.logf("cluster: worker %s heartbeat failed: %v", w.cfg.ID, err)
			continue
		}
		if !resp.OK {
			// The master lost our record (deadline expiry or restart):
			// start the handshake over.
			if err := w.register(); err != nil {
				w.logf("cluster: worker %s re-register failed: %v", w.cfg.ID, err)
			}
			continue
		}
		if resp.Drain {
			w.drain()
			w.post(PathDeregister, DeregisterRequest{ID: w.cfg.ID}, &struct{}{})
			w.logf("cluster: worker %s drained and deregistered", w.cfg.ID)
			return nil
		}
	}
}

// retryInterval paces registration retries before the master has dictated a
// cadence.
func (w *Worker) retryInterval() time.Duration {
	if w.interval > 0 {
		return w.interval
	}
	return 100 * time.Millisecond
}

// sleep waits d, returning false when Stop fires first.
func (w *Worker) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-w.stopping:
		return false
	}
}

// logf logs through the configured sink.
func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}
