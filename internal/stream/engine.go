package stream

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"odr/internal/obs"
	"odr/internal/timerwheel"
	"odr/internal/wpool"
)

// Session scheduling states (hubSession.sched). A session is parked when it
// has nothing to send, queued once it sits in (or is being processed by) the
// sender pool, and pacing while its ODR delay rides the timer wheel. The CAS
// transitions guarantee at most one pool entry per session: only parked→queued
// (a fan-out kick) and pacing→queued (its wheel timer firing) enqueue.
const (
	schedParked int32 = iota
	schedQueued
	schedPacing
)

const (
	// hubReaders is the size of the shared input-reader pool. Input traffic
	// is tiny (tens of bytes per event), so two readers cover thousands of
	// viewers; the failure matrix relies on a faulted session and its healthy
	// peer (consecutive ids) landing on different readers.
	hubReaders = 2
	// pollWindow is the per-session read deadline of one poll. It must lie
	// in the future: pipes and sockets never transfer bytes on an
	// already-expired deadline, so a zero-length window would starve input
	// delivery entirely.
	pollWindow = 200 * time.Microsecond
	// pollReadBufCap sizes each session's polling read buffer. Client→hub
	// messages are inputs (21 wire bytes), keyframe requests and byes (5), so
	// 1 KiB holds dozens of queued events.
	pollReadBufCap = 1024
	// pollMaxPayload bounds a client→hub payload. The largest legitimate
	// payload is an input message (16 bytes); anything claiming more is
	// corruption or protocol abuse and ends the session.
	pollMaxPayload = 512
)

// senderScratch is one sender worker's reusable send-path buffers: the splice
// payload, the private verbatim header, and the writev vector. Workers process
// sessions serially, so one scratch per worker replaces what used to be one
// payload buffer (plus header and iovec) per session.
type senderScratch struct {
	payload []byte
	head    [5 + frameHeaderLen]byte
	iovArr  [2][]byte
	iov     net.Buffers
}

// hubEngine is the hub's event-driven session engine. It replaces the old
// three-goroutines-per-viewer shape (sendLoop + inputLoop + reaper) with:
//
//   - a fixed sender worker pool (wpool.Striped) draining per-session
//     buffers; each viewer is pinned to a stripe so its writes stay ordered,
//     and a worker flushes every ready session in its batch back-to-back —
//     the batch is the cross-session write-coalescing unit;
//   - one hashed timer wheel scheduling every session's ODR pacing deadline,
//     aligned to the hub epoch via the domain clock;
//   - a small shared reader pool polling session input paths.
//
// Total goroutines are O(GOMAXPROCS + lanes), independent of viewer count.
type hubEngine struct {
	h *Hub

	startMu sync.Mutex
	started bool
	stopped bool

	senders *wpool.Striped[*hubSession]
	wheel   *timerwheel.Wheel

	readers    [hubReaders]hubReader
	readerStop chan struct{}
	readerWG   sync.WaitGroup

	scratch []senderScratch
}

// hubReader is one stripe of the shared input-reader pool: a registry of the
// sessions it serves (sessions land on reader id%hubReaders) read through a
// copy-on-write snapshot, like the lanes' fan-out shards.
type hubReader struct {
	mu   sync.Mutex
	m    map[uint32]*hubSession
	snap atomic.Pointer[[]*hubSession]
	wake chan struct{}
}

func (r *hubReader) register(s *hubSession) {
	r.mu.Lock()
	r.m[s.id] = s
	r.rebuildLocked()
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *hubReader) deregister(s *hubSession) {
	r.mu.Lock()
	if _, ok := r.m[s.id]; ok {
		delete(r.m, s.id)
		r.rebuildLocked()
	}
	r.mu.Unlock()
}

func (r *hubReader) rebuildLocked() {
	snap := make([]*hubSession, 0, len(r.m))
	for _, s := range r.m {
		snap = append(snap, s)
	}
	r.snap.Store(&snap)
}

// newHubEngine builds the engine without starting any goroutines; start runs
// lazily on the first attach so a hub that never serves viewers costs nothing.
func newHubEngine(h *Hub) *hubEngine {
	e := &hubEngine{h: h}
	for i := range e.readers {
		e.readers[i].m = make(map[uint32]*hubSession)
		e.readers[i].wake = make(chan struct{}, 1)
	}
	return e
}

// readerFor returns the reader stripe serving session id.
func (e *hubEngine) readerFor(id uint32) *hubReader {
	return &e.readers[id%hubReaders]
}

// start spins up the worker pool, the timer wheel and the reader pool once.
// It is a no-op after shutdown so an attach racing Stop cannot revive engine
// goroutines (the shard-lock stopping recheck refuses the session anyway).
func (e *hubEngine) start() {
	e.startMu.Lock()
	defer e.startMu.Unlock()
	if e.started || e.stopped {
		return
	}
	e.started = true
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	e.scratch = make([]senderScratch, n)
	for i := range e.scratch {
		e.scratch[i].payload = make([]byte, frameHeaderLen, frameHeaderLen+4096)
	}
	e.senders = wpool.NewStriped[*hubSession](n, e.handleBatch)
	e.wheel = timerwheel.New(timerwheel.Config{
		Slots: 512,
		Tick:  time.Millisecond,
		Now:   e.h.dom.Now,
		OnFire: func(lag time.Duration) {
			e.h.live.timerwheelLag.Set(float64(lag.Microseconds()))
		},
	})
	e.readerStop = make(chan struct{})
	e.readerWG.Add(hubReaders)
	for i := range e.readers {
		go e.readLoop(&e.readers[i])
	}
}

// shutdown stops the engine: the sender pool drains every kicked session
// (Stop closes and kicks each one first, so unpaced sessions tear down inside
// Close), the wheel stops, stragglers — sessions parked in a pacing delay
// whose timers the wheel dropped — are torn down directly, and the readers
// exit. After shutdown every session has detached and its callback has fired.
func (e *hubEngine) shutdown() {
	e.startMu.Lock()
	e.stopped = true
	started := e.started
	e.startMu.Unlock()
	if !started {
		return
	}
	e.senders.Close()
	e.wheel.Stop()
	for _, s := range e.h.allSessions() {
		s.teardown(false)
	}
	close(e.readerStop)
	e.readerWG.Wait()
	e.h.live.senderQueueDepth.Set(0)
}

// kick marks s ready and hands it to the sender pool; a no-op when the
// session is already queued or pacing (its timer will requeue it). Called by
// lane fan-out after storing an artifact, by Stop/Drain after closing a
// session's buffer, and on attach.
func (e *hubEngine) kick(s *hubSession) {
	if !s.sched.CompareAndSwap(schedParked, schedQueued) {
		return
	}
	if e.senders == nil || !e.senders.Submit(s.wk, s) {
		// Pool closed (or never started): the shutdown straggler sweep owns
		// this session now.
		s.sched.Store(schedParked)
		return
	}
	e.h.live.senderQueueDepth.Set(float64(e.senders.QueueLen()))
}

// handleBatch is the sender pool handler: flush every ready session in the
// batch back-to-back. A pass that sent a frame counts in
// odr_hub_flush_passes_total; two or more sessions flushed in one pass are
// coalesced — their socket writes ran on one worker wakeup instead of paying
// a goroutine switch each.
func (e *hubEngine) handleBatch(wk int, batch []*hubSession) {
	var frames int64
	flushed := 0
	for _, s := range batch {
		if n := e.process(wk, s); n > 0 {
			flushed++
			frames += n
		}
	}
	live := e.h.live
	if frames > 0 {
		live.flushPasses.Inc()
		if flushed >= 2 {
			live.coalescedWrites.Add(frames)
		}
	}
	live.senderQueueDepth.Set(float64(e.senders.QueueLen()))
}

// process runs one session's send pass and tears it down if the pass ended
// the session. Returns the number of frames sent.
func (e *hubEngine) process(wk int, s *hubSession) int64 {
	if s.detached.Load() {
		return 0
	}
	s.sendMu.Lock()
	frames, dead, evict := s.runSends(e, wk)
	s.sendMu.Unlock()
	if dead {
		s.teardown(evict)
	}
	return frames
}

// runSends drains this session's ready artifacts (sendMu held): send until
// the buffer is empty, a pacing delay arms, or the session dies. It returns
// dead=true when the session must tear down (buffer closed or send error) and
// evict=true when the death was a blown write deadline.
func (s *hubSession) runSends(e *hubEngine, wk int) (frames int64, dead, evict bool) {
	for {
		f := s.buf.TryAcquire()
		if f == nil {
			s.paceDue = 0 // nothing was waiting on the deadline: the next send starts its own period
			if s.buf.Closed() {
				// Drained after a close: a hub Drain flush ends with an
				// orderly bye, exactly like the old send loop.
				s.sealOnDrain()
				return frames, true, false
			}
			// Park, then re-check: an artifact stored (or a close issued)
			// between TryAcquire and the state change would have had its kick
			// swallowed while we still looked queued.
			s.sched.Store(schedParked)
			if s.buf.Occupancy() == 0 && !s.buf.Closed() {
				return frames, false, false
			}
			if !s.sched.CompareAndSwap(schedParked, schedQueued) {
				// A racing kick already requeued the session.
				return frames, false, false
			}
			continue
		}
		art := f.Encoded.(*encArtifact)
		sent, delay, err := s.sendArtifact(&e.scratch[wk], f, art)
		s.buf.Release()
		art.release()
		if err != nil {
			return frames, true, isTimeoutErr(err)
		}
		if sent {
			frames++
		}
		if delay > 0 {
			// ODR pacing: hand the delay to the wheel and yield the worker.
			// The timer's Fn requeues the session when the delay elapses.
			s.sched.Store(schedPacing)
			e.wheel.Schedule(&s.timer, delay)
			return frames, false, false
		}
	}
}

// isTimeoutErr reports a deadline-exceeded I/O error.
func isTimeoutErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// teardown detaches the session exactly once: close the transport, cancel
// any pacing timer, remove it from its lane shard, the render clock's demand
// and its reader, release queued artifacts, retire its metric series, and
// fire the detach callback with its counters. Callable from any goroutine
// (sender worker, reader, lane failure, Stop); callbacks must not block —
// they run inline.
func (s *hubSession) teardown(evict bool) {
	s.detachOnce.Do(func() {
		h := s.hub
		s.detached.Store(true)
		s.close()
		if evict {
			h.evictSession()
		}
		e := h.eng
		if e.wheel != nil {
			e.wheel.Cancel(&s.timer)
		}
		sh := s.lane.shard(s.id)
		sh.mu.Lock()
		delete(sh.m, s.id)
		sh.rebuildLocked()
		sh.mu.Unlock()
		s.lane.sessions.Add(-1)
		h.demandChange(s.rate, -1)
		e.readerFor(s.id).deregister(s)
		// Release artifacts still queued in the (now closed) buffer so their
		// bitstream buffers recycle. sendMu excludes a concurrent send pass.
		s.sendMu.Lock()
		for {
			f := s.buf.TryAcquire()
			if f == nil {
				break
			}
			if a, ok := f.Encoded.(*encArtifact); ok {
				a.release()
			}
			s.buf.Release()
		}
		s.probe.close(h.dom.Now(), true)
		s.sendMu.Unlock()
		if s.detachCb != nil {
			s.detachCb(SessionStats{Sent: atomic.LoadInt64(&s.sent), Dropped: atomic.LoadInt64(&s.dropped)})
		}
	})
}

// handleClientMsg dispatches one client→hub message; false ends the session:
// msgBye, an unparseable input, or any type a client does not send (a frame,
// or garbage).
func (e *hubEngine) handleClientMsg(s *hubSession, typ byte, payload []byte) bool {
	h := e.h
	switch typ {
	case msgInput:
		id, nanos, err := parseInputMsg(payload)
		if err != nil {
			return false
		}
		h.tr.Instant(obs.TrackInput, "input", id, h.dom.Now())
		h.ins.Inputs.Inc()
		s.probe.onInput(h.dom.Now())
		h.box.OnInput(packInput(s.id, id), time.Duration(nanos))
	case msgKeyReq:
		// The lane encoder is shared; a per-viewer keyframe is spliced from
		// its state by the send path, so only flag the request.
		s.wantKey.Store(true)
	default:
		// msgBye, or a type no client sends.
		return false
	}
	return true
}

// readLoop serves one reader stripe: each round polls every session on it
// with a short future deadline — a deadline already expired would never
// transfer bytes on a pipe or socket — so a silent session costs its peers on
// the stripe one poll window, never a whole read.
func (e *hubEngine) readLoop(r *hubReader) {
	defer e.readerWG.Done()
	for {
		select {
		case <-e.readerStop:
			return
		default:
		}
		var sessions []*hubSession
		if p := r.snap.Load(); p != nil {
			sessions = *p
		}
		if len(sessions) == 0 {
			select {
			case <-r.wake:
			case <-e.readerStop:
				return
			}
			continue
		}
		roundStart := time.Now()
		for _, s := range sessions {
			select {
			case <-e.readerStop:
				return
			default:
			}
			if s.detached.Load() {
				r.deregister(s)
				continue
			}
			s.readPoll(e)
		}
		// Bound the idle polling rate without slowing active rounds.
		if d := time.Since(roundStart); d < time.Millisecond {
			time.Sleep(time.Millisecond - d)
		}
	}
}

// readPoll drains whatever input bytes are available within a short window.
// A poll that times out is the steady state; with ReadTimeout set, a session
// whose last input byte is older than that is evicted.
func (s *hubSession) readPoll(e *hubEngine) {
	h := s.hub
	if s.rdbuf == nil {
		s.rdbuf = make([]byte, 0, pollReadBufCap)
	}
	s.conn.SetReadDeadline(h.deadlineAfter(pollWindow))
	n, err := s.conn.Read(s.rdbuf[len(s.rdbuf):cap(s.rdbuf)])
	if n > 0 {
		s.lastRead = h.dom.Now()
		s.rdbuf = s.rdbuf[:len(s.rdbuf)+n]
		if !s.drainPollBuf(e) {
			s.teardown(false)
			return
		}
	}
	if err != nil && !isTimeoutErr(err) {
		s.teardown(false)
		return
	}
	if rt := h.cfg.ReadTimeout; rt > 0 && h.dom.Now()-s.lastRead > rt {
		s.teardown(true)
	}
}

// drainPollBuf parses complete messages out of the polling buffer, shifting
// any trailing partial message to the front. False ends the session.
func (s *hubSession) drainPollBuf(e *hubEngine) bool {
	buf := s.rdbuf
	off := 0
	for len(buf)-off >= 5 {
		plen := int(binary.LittleEndian.Uint32(buf[off+1:]))
		if plen > pollMaxPayload {
			return false
		}
		if len(buf)-off < 5+plen {
			break
		}
		if !e.handleClientMsg(s, buf[off], buf[off+5:off+5+plen]) {
			return false
		}
		off += 5 + plen
	}
	if off > 0 {
		n := copy(buf, buf[off:])
		s.rdbuf = buf[:n]
	}
	return true
}

// SenderBatchStats reports the engine's coalescing accounting from the
// registry: how many flush passes sent at least one frame
// (odr_hub_flush_passes_total) and how many frames the hub sent
// (odr_frames_displayed_total — every send runs in a flush pass).
// frames/passes is the mean coalescing ratio the hub bench reports.
func (h *Hub) SenderBatchStats() (passes, frames int64) {
	return h.live.flushPasses.Value(), h.ins.Displayed.Value()
}
