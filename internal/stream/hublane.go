package stream

import (
	"hash/crc32"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"odr/internal/codec"
	"odr/internal/core"
	"odr/internal/frame"
	"odr/internal/obs"
	"odr/internal/realrt"
)

// encArtifact is one shared encode fanned out to every session on a lane:
// the bitstream bytes, their CRC (computed once, reused in every viewer's
// frame header), and the chain coordinates a session needs to decide between
// forwarding the artifact verbatim and splicing a catch-up frame.
//
// Artifacts are reference-counted: the lane holds one reference while fanning
// out and each session buffer holds one per queued artifact. The final
// release returns the bitstream buffer to the lane's free list, keeping the
// steady-state fan-out path allocation-flat regardless of viewer count.
type encArtifact struct {
	lane *encLane

	seq       uint64 // shared frame sequence number
	parentSeq uint64 // seq this delta was encoded against; 0 for keyframes
	encIdx    int64  // encoder Frames() index of this encode
	key       bool

	bs  []byte
	crc uint32 // crc32.ChecksumIEEE(bs)

	renderNanos int64
	priority    bool

	refs atomic.Int32
}

// release drops one reference; the last one recycles the bitstream buffer.
func (a *encArtifact) release() {
	if a.refs.Add(-1) == 0 {
		a.lane.putBuf(a.bs)
	}
}

// encLane is one shared encoder serving every session at one resolution
// (downscale divisor). The hub's renderer offers each frame to every lane
// with a viewer; the lane encodes it exactly once and fans the artifact out
// to its sessions' buffers — encode work is O(frames), not O(sessions ×
// frames).
type encLane struct {
	hub  *Hub
	div  int
	w, h int

	// buf hands frames from the renderer to the encode loop: Mul-Buf1 under
	// ODR, latest-wins under a push rule. It is in the hub's domain and
	// subscribed to the input box, so an input cuts the renderer's wait.
	buf *core.MultiBuffer

	// encMu serializes the shared encoder between the lane's encode loop
	// (EncodeAppend) and sessions splicing catch-up frames (AppendSplice).
	encMu           sync.Mutex
	enc             *codec.Encoder
	lastSeq         uint64 // shared seq of the newest encode
	lastRenderNanos int64

	// offered is the seq of the newest frame offered to the lane, and
	// joinSeq that of the last one an attach offered to serve its joiner
	// (both written under Hub.offerMu). While lastSeq is behind offered, a
	// frame is on its way to the encoder and will fan out to every session
	// on the lane.
	offered atomic.Uint64
	joinSeq uint64

	// carried holds input stamps of frames dropped before the shared encode
	// (renderer outran the encoder); the next encode of a later frame
	// answers them.
	carried carriedStamps

	scratch []byte // downsample target; encode-loop goroutine only

	// nanosScratch receives the per-tile encode timings each frame; copied
	// out of the encoder under encMu (the encoder's own slice is rewritten
	// by the next encode) and read by the encode loop only.
	nanosScratch []int64

	// free recycles retired artifact bitstream buffers.
	freeMu sync.Mutex
	free   [][]byte

	// viewList is the lane's one list of sessions, copy-on-write and never
	// nil once the lane is built: the renderer (which offers frames only to
	// lanes with a viewer), fan-out, Hub.Clients and the input readers read
	// it lock-free (viewers). viewMu orders every change to it and the
	// sweeps that must see every viewer (Hub.allSessions, fail).
	viewMu   sync.Mutex
	viewList atomic.Pointer[[]*hubSession]

	// Labeled counters (label = downscale divisor).
	sharedEncodes *obs.Counter
	splicedKeys   *obs.Counter
	splicedDeltas *obs.Counter
	splicedTiles  *obs.Counter
}

// viewers returns the lane's viewers, lock-free.
func (ln *encLane) viewers() []*hubSession { return *ln.viewList.Load() }

// addLocked publishes s as a viewer of the lane (viewMu held).
func (ln *encLane) addLocked(s *hubSession) {
	next := append(slices.Clip(ln.viewers()), s) // a copy: readers hold the old list
	ln.viewList.Store(&next)
}

// remove takes s off the lane's viewers.
func (ln *encLane) remove(s *hubSession) {
	ln.viewMu.Lock()
	next := slices.DeleteFunc(slices.Clone(ln.viewers()), func(v *hubSession) bool { return v == s })
	ln.viewList.Store(&next)
	ln.viewMu.Unlock()
}

// holdsNewest reports whether the encoder holds the newest frame offered to
// the lane, so that a key spliced now shows it: false before the lane is
// offered a frame, and while one is on its way to the encoder.
func (ln *encLane) holdsNewest() bool {
	offered := ln.offered.Load()
	if offered == 0 {
		return false
	}
	ln.encMu.Lock()
	defer ln.encMu.Unlock()
	return ln.lastSeq >= offered
}

// lane returns the shared-encoder lane for a downscale divisor, creating it
// on first use. It returns nil when the hub is stopping or draining — the
// caller refuses the attach — and never creates a lane after Drain has begun
// (Drain waits on laneWG; a late lane would strand it).
func (h *Hub) lane(div int) *encLane {
	for _, ln := range *h.lanes.Load() {
		if ln.div == div {
			return ln
		}
	}
	h.laneMu.Lock()
	defer h.laneMu.Unlock()
	select {
	case <-h.stopping:
		return nil
	case <-h.draining:
		return nil
	default:
	}
	cur := *h.lanes.Load()
	for _, ln := range cur {
		if ln.div == div {
			return ln
		}
	}
	w := h.cfg.Width / div
	hh := h.cfg.Height / div
	if w < 1 {
		w = 1
	}
	if hh < 1 {
		hh = 1
	}
	ln := &encLane{
		hub: h,
		div: div,
		w:   w,
		h:   hh,
		buf: core.NewMultiBuffer(h.dom),
		enc: codec.NewEncoder(w, hh, h.cfg.Codec),
	}
	h.box.Subscribe(ln.buf.Changed())
	if ln.div > 1 {
		ln.scratch = make([]byte, w*hh*4)
	}
	ln.viewList.Store(new([]*hubSession))
	lane := strconv.Itoa(div)
	ln.sharedEncodes = h.ins.hubEncodes.With1(lane)
	ln.splicedKeys = h.ins.hubSplicedKeys.With1(lane)
	ln.splicedDeltas = h.ins.hubSplicedDeltas.With1(lane)
	ln.splicedTiles = h.ins.hubSplicedTiles.With1(lane)
	next := append(slices.Clip(cur), ln) // a copy: readers hold cur
	h.lanes.Store(&next)
	h.laneWG.Add(1)
	go func() {
		defer h.laneWG.Done()
		ln.run()
	}()
	return ln
}

// getBuf takes a recycled bitstream buffer (or nil — EncodeAppend grows it).
func (ln *encLane) getBuf() []byte {
	ln.freeMu.Lock()
	defer ln.freeMu.Unlock()
	if n := len(ln.free); n > 0 {
		b := ln.free[n-1]
		ln.free = ln.free[:n-1]
		return b
	}
	return nil
}

// laneFreeCap bounds the artifact free list: enough for the artifacts in
// flight across a latest-wins fan-out (each session pins at most two), with
// drops retiring excess buffers to the GC instead of hoarding them.
const laneFreeCap = 8

func (ln *encLane) putBuf(b []byte) {
	if b == nil {
		return
	}
	ln.freeMu.Lock()
	if len(ln.free) < laneFreeCap {
		ln.free = append(ln.free, b[:0])
	}
	ln.freeMu.Unlock()
}

// offer hands a rendered frame to the lane (renderer goroutine, Hub.offerMu
// held). Under ODR a regular frame takes the back buffer Hub.Run waited for;
// any other frame is latest-wins, and the frames it drops retire immediately
// with their input stamps carried into the next encode. A frame an attach
// offered to serve its joiner is no drop when a newer one replaces it: the
// lane had no viewer when it was rendered.
func (ln *encLane) offer(f *frame.Frame) {
	if !f.Priority && !ln.hub.push() && ln.buf.TryPut(f) {
		return
	}
	stored, dropped := ln.buf.PutPriorityStored(f)
	for _, d := range dropped {
		if d.Seq != ln.joinSeq {
			ln.hub.tr.Instant(obs.TrackProxy, "mulbuf-drop", d.Seq, ln.hub.dom.Now())
			ln.hub.ins.Dropped.Inc()
		}
		ln.carried.add(d.Seq, d.Inputs)
		if d.Retire != nil {
			d.Retire()
		}
	}
	if !stored {
		if f.Retire != nil {
			f.Retire()
		}
	}
}

// run is the lane's encode loop: acquire the next rendered frame, encode it
// once, fan the artifact out to every session on the lane. It returns once
// its buffer is closed and drained; after a failure frames retire unencoded.
func (ln *encLane) run() {
	w := realrt.NewWaiter(ln.hub.dom)
	failed := false
	for f := ln.buf.Acquire(w); f != nil; f = ln.buf.Acquire(w) {
		if !failed && ln.encode(f) != nil {
			failed = true
			ln.fail()
		}
		ln.buf.Release()
		if f.Retire != nil {
			f.Retire()
		}
	}
}

// hasRoom reports whether some session on the lane can queue another
// artifact.
func (ln *encLane) hasRoom() bool {
	return slices.ContainsFunc(ln.viewers(), (*hubSession).hasRoom)
}

// encode encodes f once and fans the artifact out to every session on the
// lane (encode-loop goroutine). Under a push policy a frame no session has
// room for is dropped first, before any encoding work: the lane is the only
// producer into its sessions' queues, so room now is room at fan-out, and
// with one viewer every frame that is encoded is sent. Dropping after the
// encode instead would break the viewer's delta chain. A dropped frame's
// stamps ride the next encode.
func (ln *encLane) encode(f *frame.Frame) error {
	h := ln.hub
	if h.push() && !ln.hasRoom() {
		h.tr.Instant(obs.TrackProxy, "tail-drop", f.Seq, h.dom.Now())
		h.ins.Dropped.Inc()
		ln.carried.add(f.Seq, f.Inputs)
		return nil
	}
	start := h.dom.Now()
	src := f.Pixels
	if ln.div > 1 {
		downsample(f.Pixels, h.cfg.Width, ln.scratch, ln.w, ln.h, ln.div)
		src = ln.scratch
	}
	buf := ln.getBuf()
	waitFrom := h.dom.Now()
	ln.encMu.Lock()
	waited := h.dom.Now() - waitFrom
	bs, err := ln.enc.EncodeAppend(buf[:0], src)
	if err != nil {
		ln.encMu.Unlock()
		return err
	}
	key := codec.IsKeyframe(bs)
	art := &encArtifact{
		lane:        ln,
		seq:         f.Seq,
		encIdx:      ln.enc.Frames(),
		key:         key,
		bs:          bs,
		crc:         crc32.ChecksumIEEE(bs),
		renderNanos: int64(f.RenderEnd),
		priority:    f.Priority,
	}
	if !key {
		art.parentSeq = ln.lastSeq
	}
	ln.lastSeq = f.Seq
	ln.lastRenderNanos = int64(f.RenderEnd)
	tiles, dirty := ln.enc.TileStats()
	// Copy the timings out while still holding encMu: the encoder's own
	// slice is rewritten by the next encode (or a concurrent splice).
	ln.nanosScratch = ln.enc.TileNanosAppend(ln.nanosScratch[:0])
	tileNanos := ln.nanosScratch
	mapNanos := ln.enc.TileMapNanos()
	ln.encMu.Unlock()
	h.publishCacheStats()
	encEnd := h.dom.Now()

	h.tr.Span(obs.TrackProxy, "encode", f.Seq, start, encEnd)
	h.ins.Encoded.Inc()
	h.ins.Encode.ObserveDuration(encEnd - start)
	ln.sharedEncodes.Inc()
	// Shared work bills the shared probe, by busy time (poolBusy).
	h.probe.onEncode(poolBusy(encEnd-start-waited, mapNanos, tileNanos))
	h.ins.TilesCoded.Add(int64(tiles))
	h.ins.TilesDirty.Add(int64(dirty))
	h.ins.DirtyRatio.Set(float64(dirty) / float64(tiles))
	h.probe.onTiles(tiles, dirty)
	for _, ns := range tileNanos {
		h.ins.TileEncode.Observe(ns / 1e3)
	}

	stamps := append(ln.carried.take(f.Seq), f.Inputs...)
	ef := &frame.Frame{
		Seq:       art.seq,
		Priority:  art.priority,
		Inputs:    stamps,
		RenderEnd: f.RenderEnd,
		Bytes:     len(bs),
		Encoded:   art,
	}
	// The lane holds one reference while fanning out, so a fast session
	// cannot release the artifact to zero mid-broadcast.
	art.refs.Store(1)
	for _, s := range ln.viewers() {
		art.refs.Add(1)
		stored, dropped := s.put(ef)
		for _, d := range dropped {
			s.skip(d)
			if da, ok := d.Encoded.(*encArtifact); ok {
				da.release()
			}
		}
		if stored {
			// Hand the session to a sender worker; a no-op when it is
			// already queued or waiting out a pacing delay.
			h.eng.kick(s)
			continue
		}
		art.refs.Add(-1)
		if !s.hasRoom() {
			// A full push queue skips this artifact; the session's next send
			// finds its chain broken and is spliced.
			s.skip(ef)
		}
	}
	art.release()
	return nil
}

// fail retires the lane after an encoder error rather than stream wrong
// pixels: it leaves the hub's list, so the next attach at its divisor builds
// a fresh lane, closes its buffer, which releases the renderer, and tears
// down every session on it.
func (ln *encLane) fail() {
	h := ln.hub
	h.laneMu.Lock()
	var next []*encLane
	for _, l := range *h.lanes.Load() {
		if l != ln {
			next = append(next, l)
		}
	}
	h.lanes.Store(&next)
	h.laneMu.Unlock()
	ln.buf.Close()
	ln.viewMu.Lock()
	sessions := ln.viewers()
	ln.viewMu.Unlock()
	for _, s := range sessions {
		s.teardown(false)
	}
}
