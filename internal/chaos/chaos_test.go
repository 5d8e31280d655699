package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"odr/internal/testutil"
)

// drainPair returns a wrapped pipe whose peer end is continuously drained
// into sink (nil = discard), plus a cleanup.
func drainPair(t *testing.T, sched Schedule, seed int64, sink *bytes.Buffer) (*Conn, func()) {
	t.Helper()
	sc, cc := net.Pipe()
	fc := Wrap(sc, sched, seed)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64<<10)
		for {
			n, err := cc.Read(buf)
			if sink != nil && n > 0 {
				sink.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}()
	cleanup := func() {
		fc.Close()
		cc.Close()
		<-done
	}
	return fc, cleanup
}

// TestEventLogPinned drives a fixed byte stream through a fixed schedule and
// pins the exact fault event log: same schedule + seed + traffic must always
// produce this sequence. The corruption position comes from the seeded RNG,
// mirrored here the same way the implementation draws it.
func TestEventLogPinned(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const seed = 42
	sched := MustParse("latency@0:1ms,loss@100x2,corrupt@300,stallw@500:1ms,disc@900")
	fc, cleanup := drainPair(t, sched, seed, nil)
	defer cleanup()

	payload := make([]byte, 100)
	var lastErr error
	for i := 0; i < 10; i++ {
		if _, err := fc.Write(payload); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr != ErrInjected {
		t.Fatalf("final write error = %v, want ErrInjected", lastErr)
	}
	pos := rand.New(rand.NewSource(seed)).Intn(100)
	want := strings.Join([]string{
		"0 latency off=0 dur=1ms",
		"1 loss off=100 n=2",
		"2 corrupt off=300 n=1",
		fmt.Sprintf("3 corrupt off=300 pos=%d", pos),
		"4 stallw off=500 dur=1ms",
		"5 disc off=900",
	}, "\n")
	if got := fc.EventLog(); got != want {
		t.Fatalf("event log mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestEventLogReproducible runs the same schedule+seed+traffic twice and
// requires identical logs.
func TestEventLogReproducible(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	run := func() string {
		sched := MustParse("loss@64x1,corrupt@256x2,stallw@512:1ms,loop@512")
		fc, cleanup := drainPair(t, sched, 7, nil)
		defer cleanup()
		for i := 0; i < 20; i++ {
			if _, err := fc.Write(make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
		return fc.EventLog()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same schedule+seed produced different logs:\n%s\n--- vs ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("no events recorded")
	}
}

func TestLossDropsWholeWrites(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var sink bytes.Buffer
	// Drop the 2nd write (fires once 64 bytes have gone through).
	fc, cleanup := drainPair(t, MustParse("loss@64x1"), 1, &sink)
	for i := 0; i < 3; i++ {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 64)
		if _, err := fc.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	cleanup()
	got := sink.String()
	want := strings.Repeat("a", 64) + strings.Repeat("c", 64)
	if got != want {
		t.Fatalf("delivered %q, want 2nd write dropped", got)
	}
}

func TestCorruptFlipsExactlyOneByte(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var sink bytes.Buffer
	fc, cleanup := drainPair(t, MustParse("corrupt@0"), 3, &sink)
	payload := bytes.Repeat([]byte{0x55}, 128)
	if _, err := fc.Write(payload); err != nil {
		t.Fatal(err)
	}
	cleanup()
	got := sink.Bytes()
	if len(got) != len(payload) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(payload))
	}
	flipped := 0
	for _, b := range got {
		if b != 0x55 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", flipped)
	}
	// The caller's buffer must not be mutated.
	for _, b := range payload {
		if b != 0x55 {
			t.Fatal("corruption leaked into the caller's buffer")
		}
	}
}

func TestLoopReArms(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var sink bytes.Buffer
	// Drop one write at 64, re-arming every 128: writes 2, 4, 6 vanish.
	fc, cleanup := drainPair(t, MustParse("loss@64,loop@128"), 1, &sink)
	for i := 0; i < 6; i++ {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 64)
		if _, err := fc.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	cleanup()
	got := sink.String()
	want := strings.Repeat("a", 64) + strings.Repeat("c", 64) + strings.Repeat("e", 64)
	if got != want {
		t.Fatalf("loop loss delivered %q", got)
	}
}

func TestDisconnectKillsBothEnds(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sc, cc := net.Pipe()
	defer cc.Close()
	fc := Wrap(sc, MustParse("disc@0"), 1)
	defer fc.Close()
	readErr := make(chan error, 1)
	go func() {
		_, err := cc.Read(make([]byte, 1))
		readErr <- err
	}()
	if _, err := fc.Write([]byte("x")); err != ErrInjected {
		t.Fatalf("write error = %v, want ErrInjected", err)
	}
	select {
	case err := <-readErr:
		if err != io.EOF && !strings.Contains(err.Error(), "closed") {
			t.Fatalf("peer read error = %v, want EOF/closed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never observed the disconnect")
	}
	if _, err := fc.Write([]byte("y")); err != ErrInjected {
		t.Fatalf("post-disconnect write error = %v, want ErrInjected", err)
	}
}

func TestHalfOpenRespectsReadDeadline(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sc, cc := net.Pipe()
	defer cc.Close()
	fc := Wrap(sc, MustParse("halfopen@0"), 1)
	defer fc.Close()
	if err := fc.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := fc.Read(make([]byte, 16))
	if err != os.ErrDeadlineExceeded {
		t.Fatalf("half-open read error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("half-open read returned after %v, want ~50ms block", elapsed)
	}
}

func TestHalfOpenUnblocksOnClose(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sc, cc := net.Pipe()
	defer cc.Close()
	fc := Wrap(sc, MustParse("halfopen@0"), 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 16))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	fc.Close()
	select {
	case err := <-errCh:
		if err != net.ErrClosed {
			t.Fatalf("read error = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("half-open read never unblocked on Close")
	}
}

func TestBandwidthPacesWrites(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	fc, cleanup := drainPair(t, MustParse("bw@0:1048576"), 1, nil) // 1 MiB/s
	defer cleanup()
	const total = 256 << 10 // 0.25 MiB -> ~0.25s
	start := time.Now()
	payload := make([]byte, 32<<10)
	for sent := 0; sent < total; sent += len(payload) {
		if _, err := fc.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond || elapsed > 600*time.Millisecond {
		t.Fatalf("0.25MiB at 1MiB/s took %v, want ~0.25s", elapsed)
	}
}

func TestLatencyDelaysWrites(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	fc, cleanup := drainPair(t, MustParse("latency@0:40ms"), 1, nil)
	defer cleanup()
	start := time.Now()
	if _, err := fc.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("latency write returned after %v, want >= ~40ms", elapsed)
	}
}

// TestWriteWaitEndsAtWriteDeadline: an injected write wait ends at the write
// deadline with a timeout, as a socket's blocked write does, instead of
// outliving it.
func TestWriteWaitEndsAtWriteDeadline(t *testing.T) {
	for _, spec := range []string{"latency@0:300ms", "stallw@0:300ms"} {
		t.Run(spec, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			fc, cleanup := drainPair(t, MustParse(spec), 1, nil)
			defer cleanup()
			if err := fc.SetWriteDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err := fc.Write([]byte("ping"))
			elapsed := time.Since(start)
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("write error = %v, want a timeout", err)
			}
			if elapsed < 30*time.Millisecond || elapsed > 200*time.Millisecond {
				t.Fatalf("write returned after %v, want ~50ms, at its deadline", elapsed)
			}
		})
	}
}

func TestStallInterruptedByClose(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sc, cc := net.Pipe()
	defer cc.Close()
	fc := Wrap(sc, MustParse("stallw@0:30s"), 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := fc.Write([]byte("x"))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	fc.Close()
	select {
	case err := <-errCh:
		if err != net.ErrClosed {
			t.Fatalf("stalled write error = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled write not interrupted by Close")
	}
}

// TestNodeFaultEventLogPinned drives fixed traffic through the node-level
// fault kinds and pins the exact event log, exactly like TestEventLogPinned
// does for the link-level kinds. Blackholed writes during a partition are
// deliberately not logged (their count would depend on wall-clock healing),
// so the log stays a pure function of (schedule, seed, traffic).
func TestNodeFaultEventLogPinned(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sched := MustParse("hbdelay@0:1msx2,mpart@200:50ms,crash@400")
	fc, cleanup := drainPair(t, sched, 1, nil)
	defer cleanup()

	payload := make([]byte, 100)
	var lastErr error
	for i := 0; i < 5; i++ {
		if _, err := fc.Write(payload); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr != ErrInjected {
		t.Fatalf("final write error = %v, want ErrInjected", lastErr)
	}
	want := strings.Join([]string{
		"0 hbdelay off=0 dur=1ms n=2",
		"1 mpart off=200 dur=50ms",
		"2 crash off=400",
	}, "\n")
	if got := fc.EventLog(); got != want {
		t.Fatalf("event log mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCrashFiresNodeFaultHook: a crash step must run the OnNodeFault hook
// (asynchronously) and kill the conn like a disconnect.
func TestCrashFiresNodeFaultHook(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sc, cc := net.Pipe()
	defer cc.Close()
	fc := Wrap(sc, MustParse("crash@0"), 1)
	defer fc.Close()
	fired := make(chan struct{})
	fc.OnNodeFault(func() { close(fired) })
	if _, err := fc.Write([]byte("x")); err != ErrInjected {
		t.Fatalf("crash write error = %v, want ErrInjected", err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("OnNodeFault hook never ran")
	}
	if _, err := fc.Write([]byte("y")); err != ErrInjected {
		t.Fatalf("post-crash write error = %v, want ErrInjected", err)
	}
}

// TestPartitionBlackholesWrites: from the firing offset until the partition
// heals, writes succeed locally but nothing crosses the link; after healing
// traffic flows again.
func TestPartitionBlackholesWrites(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var sink bytes.Buffer
	fc, cleanup := drainPair(t, MustParse("mpart@64:80ms"), 1, &sink)
	a := bytes.Repeat([]byte{'a'}, 64)
	b := bytes.Repeat([]byte{'b'}, 64)
	c := bytes.Repeat([]byte{'c'}, 64)
	if _, err := fc.Write(a); err != nil { // delivered: partition not yet armed
		t.Fatal(err)
	}
	if _, err := fc.Write(b); err != nil { // fires the partition: blackholed
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond) // let it heal
	if _, err := fc.Write(c); err != nil {
		t.Fatal(err)
	}
	cleanup()
	got := sink.String()
	want := strings.Repeat("a", 64) + strings.Repeat("c", 64)
	if got != want {
		t.Fatalf("partition delivered %q, want the blackholed write dropped", got)
	}
}

// TestPartitionBlocksReadsUntilHeal: during a healing partition nothing is
// delivered to Read; once it heals the peer's bytes arrive.
func TestPartitionBlocksReadsUntilHeal(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sc, cc := net.Pipe()
	defer cc.Close()
	fc := Wrap(sc, MustParse("mpart@0:60ms"), 1)
	defer fc.Close()
	if _, err := fc.Write([]byte("x")); err != nil { // fires the partition
		t.Fatal(err)
	}
	go cc.Write([]byte("hello"))
	start := time.Now()
	buf := make([]byte, 16)
	n, err := fc.Read(buf)
	if err != nil {
		t.Fatalf("post-heal read: %v", err)
	}
	if got := string(buf[:n]); got != "hello" {
		t.Fatalf("post-heal read delivered %q", got)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("read returned after %v, want ~60ms partition block", elapsed)
	}
}

// TestPermanentPartitionRespectsReadDeadline: a bare mpart never heals, so a
// deadline-bounded read must time out (the master's liveness check path).
func TestPermanentPartitionRespectsReadDeadline(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sc, cc := net.Pipe()
	defer cc.Close()
	fc := Wrap(sc, MustParse("mpart@0"), 1)
	defer fc.Close()
	if _, err := fc.Write([]byte("x")); err != nil { // fires the partition
		t.Fatal(err)
	}
	if err := fc.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := fc.Read(make([]byte, 16))
	if err != os.ErrDeadlineExceeded {
		t.Fatalf("partitioned read error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("partitioned read returned after %v, want ~50ms block", elapsed)
	}
}

// TestHeartbeatDelayDelaysWrites: each of the next Count writes is delayed by
// Dur — the late-heartbeat fault on a control conn.
func TestHeartbeatDelayDelaysWrites(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var sink bytes.Buffer
	fc, cleanup := drainPair(t, MustParse("hbdelay@0:40msx2"), 1, &sink)
	start := time.Now()
	if _, err := fc.Write([]byte("hb1")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("delayed heartbeat returned after %v, want >= ~40ms", elapsed)
	}
	if _, err := fc.Write([]byte("hb2")); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Write([]byte("hb3")); err != nil {
		t.Fatal(err)
	}
	cleanup()
	// All three heartbeats are delivered — delayed, never dropped.
	if got := sink.String(); got != "hb1hb2hb3" {
		t.Fatalf("delivered %q, want all heartbeats", got)
	}
}

// TestNodeFaultRoundTrip pins the String() rendering of the node-fault steps
// as a Parse fixed point.
func TestNodeFaultRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"crash@65536",
		"mpart@400",
		"mpart@400:250ms",
		"hbdelay@0:120ms",
		"hbdelay@0:120msx3",
	} {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := s.String(); got != spec {
			t.Fatalf("round trip %q -> %q", spec, got)
		}
	}
	// A zero healing time renders as the permanent form — still a fixed point.
	s, err := Parse("mpart@5:0s")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "mpart@5" {
		t.Fatalf("mpart@5:0s rendered %q, want mpart@5", got)
	}
}

func TestNamedSchedulesParse(t *testing.T) {
	for _, name := range NamedSchedules() {
		s, err := Named(name)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("Named(%q).Name = %q", name, s.Name)
		}
		// Round-trip through the grammar.
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("reparse %q (%q): %v", name, s.String(), err)
		}
		if back.String() != s.String() {
			t.Fatalf("round trip %q: %q != %q", name, back.String(), s.String())
		}
	}
	if _, err := Named("no-such"); err == nil {
		t.Fatal("unknown schedule accepted")
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"latency",         // missing offset
		"latency@x:1ms",   // bad offset
		"latency@0",       // missing duration
		"latency@0:zz",    // bad duration
		"bw@0",            // missing rate
		"bw@0:fast",       // bad rate
		"loss@0x0",        // zero count
		"disc@0:1ms",      // disc takes no parameter
		"disc@0x2",        // disc takes no count
		"loop@0",          // loop period must be positive
		"warp@0",          // unknown kind
		"latency@-5:1ms",  // negative offset
		"latency@0:1msx3", // latency takes no count
		"corrupt@0:1ms",   // corrupt takes no parameter
		"crash@0:1ms",     // crash takes no parameter
		"crash@0x2",       // crash takes no count
		"mpart@0x2",       // mpart takes no count
		"mpart@0:zz",      // bad healing duration
		"hbdelay@0",       // missing duration
		"hbdelay@0:-1ms",  // negative duration
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

// FuzzParseSchedule: the schedule grammar must never panic, and accepted
// specs must survive a String() -> Parse round trip.
func FuzzParseSchedule(f *testing.F) {
	for _, spec := range namedSpecs {
		f.Add(spec)
	}
	f.Add("latency@0:5ms,bw@65536:262144,loss@100x3,corrupt@200,stallr@300:1ms,stallw@400:2ms,disc@500,halfopen@600,loop@1000")
	f.Add("loss@@0,")
	f.Add("crash@65536,mpart@400:250ms,hbdelay@0:120msx3")
	f.Add("mpart@0")
	f.Add("mpart@5:0s")
	f.Add("hbdelay@9:1h0m0sx2")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("String() of accepted spec rejected: %q -> %q: %v", spec, s.String(), err)
		}
		if back.String() != s.String() {
			t.Fatalf("round trip not stable: %q -> %q", s.String(), back.String())
		}
	})
}
