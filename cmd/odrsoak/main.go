// Command odrsoak soak-tests the streaming stack under deterministic fault
// injection and ends every run with a pass/fail invariant report.
//
// Usage:
//
//	odrsoak [-clients 8] [-schedule flaky] [-seed 1] [-duration 10s]
//	        [-fps 240] [-width 64] [-height 36] [-retry 8] [-v] [-faildump path]
//	odrsoak -fanout 1000 [-width 48] [-height 27] [-fps 10] ...
//	odrsoak -cluster [-workers 3] [-clients 8] ...
//
// One harness runs three modes: the classic run churns -clients reconnecting
// viewers against one hub, -fanout N attaches N shared-lane viewers to one
// hub, and -cluster places -clients viewers across -workers hubs behind a
// master, kills one worker and drains another. A failed invariant exits 1
// and, with -faildump, leaves every goroutine's stack (and the leak check's)
// in that file; a wedged run exits 2 from the watchdog. DESIGN.md §10.5
// lists each mode's invariants.
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"odr"
	"odr/internal/chaos"
	"odr/internal/cluster"
	"odr/internal/obs/scrape"
	"odr/internal/stream"
	"odr/internal/testutil"
)

// config is one run's settings, as given by the flags.
type config struct {
	clients, workers, fanout, retry int
	cluster, verbose                bool
	schedName                       string
	sched                           chaos.Schedule
	seed                            int64
	duration                        time.Duration
	fps                             float64
	width, height                   int
}

func main() {
	var c config
	flag.IntVar(&c.clients, "clients", 8, "number of concurrent reconnecting clients")
	flag.StringVar(&c.schedName, "schedule", "flaky", "fault schedule: a named one (clean, flaky, lossy, degraded, partition) or a spec like latency@0:2ms,disc@65536")
	flag.Int64Var(&c.seed, "seed", 1, "base RNG seed (per-client, per-session seeds derive from it)")
	flag.DurationVar(&c.duration, "duration", 10*time.Second, "how long to churn before draining")
	flag.Float64Var(&c.fps, "fps", 240, "hub render FPS")
	flag.IntVar(&c.width, "width", 64, "frame width")
	flag.IntVar(&c.height, "height", 36, "frame height")
	flag.IntVar(&c.retry, "retry", 8, "per-client consecutive reconnect budget")
	flag.IntVar(&c.fanout, "fanout", 0, "fan-out mode: attach this many shared-lane viewers instead of the classic churn run")
	flag.BoolVar(&c.cluster, "cluster", false, "cluster mode: master + workers with a mid-run kill and drain")
	flag.IntVar(&c.workers, "workers", 3, "worker count for -cluster")
	flag.BoolVar(&c.verbose, "v", false, "log per-client progress")
	faildump := flag.String("faildump", "", "write a full goroutine dump, and the leak check's, to this path when an invariant fails")
	flag.Parse()

	if c.fanout > 0 && c.cluster {
		usage("-fanout and -cluster are separate modes")
	}
	// One worker is killed and one drained, so at least one must survive to
	// host the migrated sessions.
	if c.cluster && c.workers < 3 {
		usage(fmt.Sprintf("-cluster needs at least 3 workers (have %d)", c.workers))
	}
	var err error
	if c.sched, err = chaos.Named(c.schedName); err != nil {
		if c.sched, err = chaos.Parse(c.schedName); err != nil {
			log.Fatalf("odrsoak: %v", err)
		}
	}
	res, err := soak(c)
	if err != nil {
		log.Fatalf("odrsoak: %v", err)
	}
	os.Exit(res.report(*faildump))
}

func usage(msg string) {
	fmt.Fprintf(os.Stderr, "odrsoak: %s\n", msg)
	flag.Usage()
	os.Exit(2)
}

// check is one evaluated invariant.
type check struct {
	name, detail string
	ok           bool
}

// result is what a run hands to the report: its checks in order, and the
// leak check's error, which carries the stacks of the goroutines left over.
type result struct {
	checks  []check
	leakErr error
}

// report prints a PASS/FAIL line per check and the verdict, leaves the fail
// dump when any check failed, and returns the exit status.
func (res result) report(faildump string) int {
	fail := 0
	for _, c := range res.checks {
		verdict := "PASS"
		if !c.ok {
			verdict = "FAIL"
			fail++
		}
		log.Printf("%s  %-24s %s", verdict, c.name, c.detail)
	}
	if fail == 0 {
		log.Printf("odrsoak: PASS")
		return 0
	}
	if faildump != "" {
		res.dump(faildump)
	} else if res.leakErr != nil {
		log.Print(res.leakErr)
	}
	log.Printf("odrsoak: FAIL (%d invariant(s) violated)", fail)
	return 1
}

// dump writes the leak check's stacks (when it failed) and then every
// goroutine's stack as of now to path.
func (res result) dump(path string) {
	var buf []byte
	if res.leakErr != nil {
		buf = fmt.Appendf(buf, "no-goroutine-leaks: %v\n\n", res.leakErr)
	}
	stacks := make([]byte, 1<<22)
	buf = fmt.Appendf(buf, "goroutines at the report:\n%s", stacks[:runtime.Stack(stacks, true)])
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		log.Printf("odrsoak: could not write goroutine dump to %s: %v", path, err)
		return
	}
	log.Printf("odrsoak: goroutine dump written to %s", path)
}

// script is how a run ends once its viewers are attached.
type script int

const (
	// stopHalfThenDrain: after the duration, half the viewers stop abruptly
	// (the user closing the viewer) and the hub drain sees the rest out.
	stopHalfThenDrain script = iota
	// drainOnly: after the duration, the hub drains every viewer.
	drainOnly
	// killThenDrain: the first worker dies at T/3, the master orders the
	// last one drained at 2T/3, and every viewer stops at T.
	killThenDrain
)

// mode is one soak scenario as data: the fleet, the viewer population, the
// end-of-run script, the timeouts and the invariants.
type mode struct {
	name    string
	workers int // hubs in the fleet; more than one puts a master in front
	viewers int
	// Viewer i reconnects through chaos when i%churnEvery == churnEvery-1;
	// a steady viewer i is paced at half the hub rate when
	// i%pacedEvery == pacedEvery/2 (pacedEvery 0: none is).
	churnEvery, pacedEvery int
	minFrames              int64 // frames-delivered needs more decoded frames than this
	stagger                bool  // pause 20 ms after every 64th attach
	script                 script
	drain                  time.Duration // hub drain timeout
	wait                   time.Duration // how long a viewer loop may take to exit
	sharedWait             bool          // wait is one deadline for all viewers, not one each
	leakWait               time.Duration
	slack                  time.Duration // the watchdog fires at 3×duration + slack
	invariants             []string      // predicate names, in report order
}

// run is one soak in progress and, once finished, everything its
// invariants read.
type run struct {
	cfg   config
	mode  mode
	logf  func(format string, args ...any) // nil unless -v
	ref   *refTable
	fleet []*node
	views []*viewer

	// The control plane, with more than one hub.
	master    *odr.ClusterMaster
	masterReg *odr.MetricsRegistry
	masterURL string
	ctlSrv    *http.Server
	ctlClient *http.Client

	goroutines    int   // at steady state, every viewer attached
	heapPerViewer int64 // likewise, after a forced GC
	drainErr      error
	finalWorkers  []cluster.WorkerInfo
	scraped       *scrape.Scrape // the first hub's /metrics after the drain
	scrapeErr     error
	leakErr       error

	// Summed over the viewers' reports.
	frames, resyncs, reconnects, redirects, mismatches int64
	hung, errored, stalled, evicted                    int64
	maxGap                                             time.Duration
}

// soak runs the mode the flags select and evaluates its invariants.
func soak(c config) (result, error) {
	m := newMode(c)
	log.Printf("odrsoak: %s mode: %d viewers on %d hub(s), 1 in %d chaos-churned (schedule %q -> %q), seed %d, %v at %dx%d@%.0ffps",
		m.name, m.viewers, m.workers, m.churnEvery, c.schedName, c.sched.String(), c.seed, c.duration, c.width, c.height, c.fps)

	// Baseline before anything the run owns is spawned.
	base := testutil.Snapshot()
	r := &run{cfg: c, mode: m, ref: &refTable{game: stream.NewGame(c.width, c.height)}}
	if c.verbose {
		r.logf = log.Printf
	}
	if m.workers > 1 {
		if err := r.startMaster(); err != nil {
			return result{}, err
		}
	}
	for i := 0; i < m.workers; i++ {
		if err := r.startNode(i); err != nil {
			return result{}, err
		}
	}

	// The watchdog catches a full wedge: a run (drain and teardown included)
	// that takes 3x its nominal length plus the slack is deadlocked.
	watchdog := time.AfterFunc(3*c.duration+m.slack, func() {
		buf := make([]byte, 1<<21)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "odrsoak: WATCHDOG: %s run wedged; goroutine dump:\n%s\n", m.name, buf[:n])
		os.Exit(2)
	})

	// Heap baseline before any viewer exists: the per-viewer cost is the
	// steady-state delta divided by the viewer count.
	runtime.GC()
	var heapBase runtime.MemStats
	runtime.ReadMemStats(&heapBase)
	for i := 0; i < m.viewers; i++ {
		r.views = append(r.views, r.attach(i))
		// Staggered attaches make a real share of viewers join mid-stream,
		// where they must be served a spliced keyframe.
		if m.stagger && i%64 == 63 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if err := r.end(&heapBase); err != nil {
		return result{}, err
	}
	r.waitViewers()
	// Scrape while the counters are final (hub drained), then tear down so
	// the listeners' goroutines are gone before the leak check.
	r.scraped, r.scrapeErr = scrape.Fetch("http://" + r.fleet[0].debug.Addr() + "/metrics")
	for _, n := range r.fleet {
		n.shutdown()
	}
	if r.master != nil {
		r.ctlSrv.Close()
		r.master.Stop()
		r.ctlClient.CloseIdleConnections()
	}
	watchdog.Stop()
	r.leakErr = base.Check(m.leakWait)
	r.sum()

	res := result{leakErr: r.leakErr}
	for _, name := range m.invariants {
		ok, detail := predicates[name](r)
		res.checks = append(res.checks, check{name: name, ok: ok, detail: detail})
	}
	return res, nil
}

// end plays the mode's end-of-run script.
func (r *run) end(heapBase *runtime.MemStats) error {
	d := r.cfg.duration
	if r.mode.script != killThenDrain {
		time.Sleep(d)
		r.steady(heapBase)
		if r.mode.script == stopHalfThenDrain {
			for _, v := range r.views[:len(r.views)/2] {
				v.cli.Stop()
			}
		}
		r.drainErr = r.fleet[0].hub.Drain(r.mode.drain)
		return nil
	}
	// Phase 1: steady churn across the full fleet. Phase 2: the first worker
	// dies; its sessions and heartbeats stop at the same instant, the master
	// reaps it and viewers fail over.
	time.Sleep(d / 3)
	log.Printf("odrsoak: killing worker %s", r.fleet[0].id)
	r.fleet[0].kill()
	time.Sleep(d / 3)
	// Phase 3: the last worker is retired in order — drain (goodbyes),
	// deregistration — and its viewers re-resolve onto the survivors.
	drainee := r.fleet[len(r.fleet)-1]
	log.Printf("odrsoak: draining worker %s", drainee.id)
	if err := r.master.DrainWorker(drainee.id); err != nil {
		return fmt.Errorf("drain order: %w", err)
	}
	for _, v := range r.views {
		v.framesAtDrain = v.cli.Report().Frames
	}
	time.Sleep(d - 2*(d/3))
	r.steady(heapBase)
	// The viewers stop first (they must all still be alive), then the fleet.
	r.finalWorkers = r.master.Workers()
	for _, v := range r.views {
		v.cli.Stop()
	}
	return nil
}

// steady reads the goroutine count and the per-viewer heap while every
// viewer is still attached. The harness owns one Run loop per viewer;
// everything the hub adds on top must be O(pool), never O(sessions).
func (r *run) steady(heapBase *runtime.MemStats) {
	r.goroutines = runtime.NumGoroutine()
	runtime.GC()
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	if now.HeapAlloc > heapBase.HeapAlloc {
		r.heapPerViewer = int64(now.HeapAlloc-heapBase.HeapAlloc) / int64(max(len(r.views), 1))
	}
}

// waitViewers collects every viewer loop's exit, marking the ones that
// miss the mode's deadline as hung.
func (r *run) waitViewers() {
	end := time.Now().Add(r.mode.wait)
	for _, v := range r.views {
		if !r.mode.sharedWait {
			end = time.Now().Add(r.mode.wait)
		}
		t := time.NewTimer(time.Until(end))
		select {
		case v.finalErr = <-v.runErr:
		case <-t.C:
			v.hung = true
		}
		t.Stop()
		v.cli.Stop() // idempotent; frees a hung viewer's conn if any
	}
}

// sum fills the run's totals and logs them.
func (r *run) sum() {
	for _, v := range r.views {
		rep := v.cli.Report()
		r.frames += rep.Frames
		r.resyncs += rep.Resyncs
		r.reconnects += rep.Reconnects
		r.redirects += rep.Redirects
		r.mismatches += v.mismatches.Load()
		if v.hung {
			r.hung++
		}
		if v.finalErr != nil {
			r.errored++
		}
		if rep.Frames <= v.framesAtDrain {
			r.stalled++
		}
		gap := time.Duration(v.maxGap.Load())
		r.maxGap = max(r.maxGap, gap)
		if r.cfg.verbose && v.churn {
			log.Printf("viewer %4d: frames=%5d (+%d after the drain order) resyncs=%d reconnects=%d redirects=%d mismatches=%d maxgap=%v err=%v hung=%v",
				v.idx, rep.Frames, rep.Frames-v.framesAtDrain, rep.Resyncs, rep.Reconnects, rep.Redirects,
				v.mismatches.Load(), gap.Round(time.Millisecond), v.finalErr, v.hung)
		}
	}
	for _, n := range r.fleet {
		r.evicted += n.hub.Evicted()
	}
	log.Printf("totals: viewers=%d frames=%d resyncs=%d reconnects=%d redirects=%d evicted=%d detached-with-error=%d heap/viewer=%dB",
		len(r.views), r.frames, r.resyncs, r.reconnects, r.redirects, r.evicted, r.errored, r.heapPerViewer)
}

// startMaster stands up the control plane: a fast heartbeat cadence so
// failover fits a short run, but a full second of deadline so a race
// detector or CI scheduler stall does not flap healthy workers dead.
// Failover still completes well inside one phase: a viewer redialing a dead
// worker inflates its pending score with every placement, so the master
// redirects it to a survivor (resetting the retry budget) long before the
// deadline expires.
func (r *run) startMaster() error {
	r.masterReg = odr.NewMetricsRegistry()
	r.master = odr.NewClusterMaster(odr.ClusterMasterConfig{
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatDeadline: time.Second,
		Metrics:           r.masterReg,
		Logf:              log.Printf,
	})
	go r.master.Run()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("control listener: %w", err)
	}
	r.ctlSrv = &http.Server{Handler: r.master.Handler()}
	go r.ctlSrv.Serve(ln)
	r.masterURL = "http://" + ln.Addr().String()
	r.ctlClient = &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	return nil
}

// node is one hub of the fleet with its registry and /metrics endpoint;
// behind a master it is also a worker with a data listener and an agent.
type node struct {
	id    string
	hub   *odr.Hub
	reg   *odr.MetricsRegistry
	debug *odr.DebugServer

	ln      net.Listener
	agent   *odr.ClusterWorker
	dead    atomic.Bool // set by kill: every control RPC fails from then on
	runDone chan error
}

// startNode adds one lossless hub to the fleet — lossless because pixel
// identity against the reference is the corruption-detection invariant —
// and, with a master, makes it a worker.
func (r *run) startNode(idx int) error {
	reg := odr.NewMetricsRegistry()
	n := &node{id: fmt.Sprintf("w%d", idx), reg: reg, hub: odr.NewHub(odr.HubConfig{
		Width: r.cfg.width, Height: r.cfg.height, TargetFPS: r.cfg.fps,
		Codec:   odr.CodecOptions{QuantShift: 0},
		Metrics: reg,
		Logf:    r.logf,
	})}
	go n.hub.Run()
	r.fleet = append(r.fleet, n)
	var err error
	if n.debug, err = odr.ServeDebugWithMetrics("127.0.0.1:0", reg, nil); err != nil {
		return fmt.Errorf("debug listener: %w", err)
	}
	if r.master == nil {
		return nil
	}
	if n.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return fmt.Errorf("worker listener: %w", err)
	}
	// Every data conn runs the chaos schedule with a per-(worker, conn)
	// seed, so runs with the same flags replay the same faults.
	go func() {
		for accepts := int64(1); ; accepts++ {
			c, err := n.ln.Accept()
			if err != nil {
				return
			}
			n.hub.Attach(odr.WrapChaos(c, r.cfg.sched, r.cfg.seed+int64(idx)*10007+accepts*101), 0, nil)
		}
	}()
	transport := &http.Transport{DisableKeepAlives: true}
	n.runDone = make(chan error, 1)
	n.agent = odr.NewClusterWorker(odr.ClusterWorkerConfig{
		ID:        n.id,
		MasterURL: r.masterURL,
		Addr:      n.ln.Addr().String(),
		// Load reports come off the worker's own metrics surface, the same
		// way odrserver -master reports.
		Load: func() cluster.LoadReport { return cluster.LoadFromRegistry(reg) },
		OnDrain: func() {
			if err := n.hub.Drain(10 * time.Second); err != nil {
				log.Printf("odrsoak: worker %s drain: %v", n.id, err)
			}
		},
		HTTPClient: &http.Client{Timeout: 2 * time.Second, Transport: roundTripper(func(req *http.Request) (*http.Response, error) {
			if n.dead.Load() {
				return nil, errors.New("node killed")
			}
			return transport.RoundTrip(req)
		})},
		Logf: r.logf,
	})
	go func() { n.runDone <- n.agent.Run() }()
	return nil
}

// roundTripper adapts a function to http.RoundTripper.
type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// kill makes n die the way a machine does: control plane unreachable, data
// listener gone, live conns cut by the hub's stop (which says no goodbye; an
// attach racing it is refused).
func (n *node) kill() {
	n.dead.Store(true)
	n.ln.Close()
	n.hub.Stop()
}

// shutdown is the orderly end-of-run teardown.
func (n *node) shutdown() {
	if n.agent != nil {
		n.agent.Stop()
		select {
		case <-n.runDone:
		case <-time.After(10 * time.Second):
			log.Printf("odrsoak: worker %s agent did not stop", n.id)
		}
		n.ln.Close()
	}
	n.hub.Stop()
	n.debug.Close()
}

// viewer is one stream client and its outcome.
type viewer struct {
	idx           int
	churn         bool
	cli           *odr.StreamClient
	runErr        chan error
	mismatches    atomic.Int64
	last, maxGap  atomic.Int64 // ns; written only from the client's frame callback
	framesAtDrain int64
	finalErr      error
	hung          bool
}

// attach starts viewer i. A churning viewer reconnects through chaos: over
// a pipe to the hub with a per-(viewer, session) seed, or through the
// master's placement with a fleet. A steady viewer holds one pipe for the
// whole run, paced or at the hub rate.
func (r *run) attach(i int) *viewer {
	c, m := r.cfg, r.mode
	v := &viewer{idx: i, churn: i%m.churnEvery == m.churnEvery-1, runErr: make(chan error, 1)}
	hub := r.fleet[0].hub
	if v.churn {
		var session int64
		dial := func() (net.Conn, error) {
			session++
			hubEnd, clientEnd := net.Pipe()
			hub.Attach(odr.WrapChaos(hubEnd, c.sched, c.seed+int64(i)*1009+session*101), 0, nil)
			return clientEnd, nil
		}
		pol := odr.ReconnectPolicy{MaxAttempts: c.retry, Seed: c.seed + int64(i),
			BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond, IdleTimeout: 2 * time.Second}
		if r.master != nil {
			res := odr.NewClusterResolver(r.masterURL)
			res.HTTPClient = r.ctlClient
			dial = res.Dial
			// A drained worker's goodbye must trigger re-resolution, not a
			// clean client exit: that is the migration path.
			pol.RedialOnBye = true
		}
		v.cli = odr.NewReconnectingStreamClient(dial, pol)
	} else {
		hubEnd, clientEnd := net.Pipe()
		fps := 0.0
		if m.pacedEvery > 0 && i%m.pacedEvery == m.pacedEvery/2 {
			fps = c.fps / 2 // paced: every frame rides a timer-wheel deadline
		}
		hub.Attach(hubEnd, fps, nil)
		v.cli = odr.NewStreamClient(clientEnd)
	}
	v.cli.OnFrame(func(seq uint64, pix []byte) {
		now := time.Now().UnixNano()
		if last := v.last.Swap(now); last != 0 && now-last > v.maxGap.Load() {
			v.maxGap.Store(now - last)
		}
		if seq != 0 && sha256.Sum256(pix) != r.ref.hash(seq) {
			v.mismatches.Add(1)
		}
	})
	go func() { v.runErr <- v.cli.Run() }()
	return v
}

// refTable lazily renders the deterministic reference frames and memoizes
// their hashes by render sequence number.
type refTable struct {
	mu     sync.Mutex
	game   *stream.Game
	hashes [][sha256.Size]byte
}

func (r *refTable) hash(seq uint64) [sha256.Size]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	for uint64(len(r.hashes)) < seq {
		pix := make([]byte, r.game.FrameBytes())
		r.game.Render(pix)
		r.hashes = append(r.hashes, sha256.Sum256(pix))
	}
	return r.hashes[seq-1]
}
