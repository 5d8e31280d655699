// Package testutil holds helpers shared across the repo's test suites.
package testutil

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// VerifyNoLeaks snapshots the goroutine count and registers a cleanup that
// fails the test if the count has not returned to (at or below) that baseline
// shortly after the test body finishes. Call it first in the test, before
// starting any servers, clients, or wrapped conns:
//
//	func TestX(t *testing.T) {
//		testutil.VerifyNoLeaks(t)
//		...
//	}
//
// Blocked readers, forwarders that missed a close signal, and reconnect loops
// that outlive Stop() all show up here; on failure the full goroutine stack
// dump is logged so the leaked goroutine is identifiable.
func VerifyNoLeaks(t testing.TB) {
	t.Helper()
	base := Snapshot()
	t.Cleanup(func() {
		if err := base.Check(10 * time.Second); err != nil {
			t.Error(err)
		}
	})
}

// LeakSnapshot captures the current goroutine count, for VerifyNoLeaks and
// for non-test callers (the soak harness); Check polls until the count
// returns to the baseline or the timeout passes, returning an error with a
// stack dump on failure.
type LeakSnapshot struct {
	base int
}

// Snapshot records the current goroutine count as the baseline.
func Snapshot() LeakSnapshot { return LeakSnapshot{base: runtime.NumGoroutine()} }

// Check waits up to timeout for the goroutine count to return to the
// baseline. It returns nil on success and an error carrying a full stack dump
// otherwise.
func (s LeakSnapshot) Check(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var n int
	for {
		n = runtime.NumGoroutine()
		if n <= s.base {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return fmt.Errorf("goroutine leak: %d goroutines, baseline %d\n%s", n, s.base, buf)
}
