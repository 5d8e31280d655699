package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"odr"
)

// stampConn notes when the first bytes after the previous frame arrived, so
// the traced run can place the frame's arrival between the hub's tx span and
// the display. Read and the OnFrame callback share the client's receive
// goroutine, so the field needs no lock.
type stampConn struct {
	net.Conn
	firstByte int64 // unix ns; 0 = nothing read since the last frame
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.firstByte == 0 {
		c.firstByte = time.Now().UnixNano()
	}
	return n, err
}

// displayRec is one frame a decoding viewer displayed.
type displayRec struct {
	seq       uint64
	at        int64 // unix ns, taken in OnFrame
	firstByte int64 // unix ns the frame's first bytes were read
	tagged    bool  // the frame carried this viewer's input stamp
	// echoMs is the client's own latency sample for a tagged frame (SendInput
	// to display, on the client's clock): it says which input was answered.
	echoMs float64
}

// inputRec is one input of the open-loop schedule.
type inputRec struct {
	due     int64 // unix ns the schedule wanted it sent
	written int64 // unix ns it was handed to SendInput
}

// decodeViewer is an odr.NewStreamClient over loopback TCP: it decodes every
// frame, records every display, and (the interactive one) sends inputs.
type decodeViewer struct {
	cl   *odr.StreamClient
	conn *stampConn
	hash bool

	mu        sync.Mutex
	recs      []displayRec
	hashes    map[uint64][sha256.Size]byte
	inputs    []inputRec
	lastSeq   uint64
	seqErrors int

	// Receive-goroutine state for spotting tagged frames through Report.
	echoN   int
	echoSum float64
	sent    atomic.Int64 // inputs handed to SendInput

	first     chan struct{} // closed on the first displayed frame
	firstOnce sync.Once
	done      chan struct{} // closed when Run returns
}

// dialDecodeViewer connects and starts receiving. With hash set, every
// displayed frame's pixels are hashed for the cross-viewer identity check.
func dialDecodeViewer(addr string, hash bool) (*decodeViewer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	v := &decodeViewer{
		conn:  &stampConn{Conn: conn},
		hash:  hash,
		first: make(chan struct{}),
		done:  make(chan struct{}),
	}
	if hash {
		v.hashes = make(map[uint64][sha256.Size]byte)
	}
	v.cl = odr.NewStreamClient(v.conn)
	v.cl.OnFrame(v.onFrame)
	go func() {
		_ = v.cl.Run() // a stream that ended early shows in the disconnect check
		close(v.done)
	}()
	return v, nil
}

func (v *decodeViewer) onFrame(seq uint64, pix []byte) {
	rec := displayRec{seq: seq, at: time.Now().UnixNano(), firstByte: v.conn.firstByte}
	v.conn.firstByte = 0
	if int64(v.echoN) < v.sent.Load() {
		// An input is unanswered. The client adds a latency sample exactly
		// when a frame echoes this viewer's input stamp, so a grown sample
		// count marks this frame as tagged, and the sample itself (recovered
		// from the running mean) tells which input it answered.
		r := v.cl.Report()
		if r.LatencySamples > v.echoN {
			sum := r.MeanLatency * float64(r.LatencySamples)
			rec.tagged, rec.echoMs = true, sum-v.echoSum
			v.echoN, v.echoSum = r.LatencySamples, sum
		}
	}
	var h [sha256.Size]byte
	if v.hash {
		h = sha256.Sum256(pix)
	}
	v.mu.Lock()
	if seq <= v.lastSeq {
		v.seqErrors++
	}
	v.lastSeq = seq
	v.recs = append(v.recs, rec)
	if v.hash {
		v.hashes[seq] = h
	}
	v.mu.Unlock()
	v.firstOnce.Do(func() { close(v.first) })
}

// generateInputs sends inputs open loop until stop closes: input k is due at
// start + k*period plus a seeded jitter of up to a quarter period either way,
// whatever the server is doing, and each is recorded with how late it left.
func (v *decodeViewer) generateInputs(rng *rand.Rand, start time.Time, period time.Duration, stop <-chan struct{}) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for k := 0; ; k++ {
		jitter := time.Duration((rng.Float64() - 0.5) * 0.5 * float64(period))
		due := start.Add(time.Duration(k)*period + jitter)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		rec := inputRec{due: due.UnixNano(), written: time.Now().UnixNano()}
		v.sent.Add(1)
		if _, err := v.cl.SendInput(); err != nil {
			return // the run's disconnect check reports it
		}
		v.mu.Lock()
		v.inputs = append(v.inputs, rec)
		v.mu.Unlock()
	}
}

func (v *decodeViewer) stop() {
	v.cl.Stop()
	<-v.done
}

// Wire framing of the stream protocol: type(1) len(4, little endian) payload.
const (
	wireHeaderLen  = 5
	wireMsgFrame   = 1
	wireMsgBye     = 3
	wireMaxPayload = 64 << 20
)

// passiveViewer is a blocking reader that discards what it receives. It walks
// the message framing so frames can be counted per viewer, but never decodes.
type passiveViewer struct {
	class  string
	conn   net.Conn
	frames atomic.Int64

	first     chan struct{}
	firstOnce sync.Once
	done      chan struct{} // closed when reading ends
}

func dialPassiveViewer(addr, class string) (*passiveViewer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &passiveViewer{class: class, conn: conn, first: make(chan struct{}), done: make(chan struct{})}
	go func() {
		if err := p.read(); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintf(os.Stderr, "bench: passive viewer on %s: %v\n", class, err)
		}
		close(p.done)
	}()
	return p, nil
}

func (p *passiveViewer) read() error {
	br := bufio.NewReaderSize(p.conn, 64<<10)
	var hdr [wireHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		n := int(binary.LittleEndian.Uint32(hdr[1:]))
		if (hdr[0] != wireMsgFrame && hdr[0] != wireMsgBye) || n > wireMaxPayload {
			return fmt.Errorf("unexpected wire message type %d of %d bytes", hdr[0], n)
		}
		if _, err := br.Discard(n); err != nil {
			return err
		}
		if hdr[0] == wireMsgFrame {
			p.frames.Add(1)
			p.firstOnce.Do(func() { close(p.first) })
		}
	}
}

func (p *passiveViewer) stop() {
	p.conn.Close()
	<-p.done
}

// joinRec is one churner connection.
type joinRec struct {
	at int64   // unix ns of the dial
	ms float64 // dial to first displayed frame
	ok bool    // a frame was displayed within joinTimeout
}

const joinTimeout = 2 * time.Second

// churner reconnects about once a second: every connection is a late joiner
// the hub must serve a spliced catch-up keyframe.
type churner struct {
	addr string
	rng  *rand.Rand

	mu    sync.Mutex
	joins []joinRec

	first     chan struct{} // closed on the first frame of the first connection
	firstOnce sync.Once
	stopCh    chan struct{}
	done      chan struct{}
}

func startChurner(addr string, seed int64) *churner {
	c := &churner{
		addr:   addr,
		rng:    rand.New(rand.NewSource(seed)),
		first:  make(chan struct{}),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(c.done)
		for c.session() {
		}
	}()
	return c
}

// session is one connection's life; it returns false once the churner is
// stopped.
func (c *churner) session() bool {
	stay := time.Duration((0.75 + 0.5*c.rng.Float64()) * float64(time.Second))
	dialed := time.Now()
	rec := joinRec{at: dialed.UnixNano()}
	defer func() {
		c.mu.Lock()
		c.joins = append(c.joins, rec)
		c.mu.Unlock()
	}()
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		select {
		case <-c.stopCh:
			return false
		case <-time.After(stay):
			return true
		}
	}
	cl := odr.NewStreamClient(conn)
	shown := make(chan struct{})
	var once sync.Once
	cl.OnFrame(func(uint64, []byte) { once.Do(func() { close(shown) }) })
	ran := make(chan struct{})
	go func() {
		_ = cl.Run() // a failed session shows as a join without a frame
		close(ran)
	}()
	defer func() {
		cl.Stop()
		<-ran
	}()
	timeout := time.NewTimer(joinTimeout)
	defer timeout.Stop()
	select {
	case <-shown:
		rec.ok, rec.ms = true, float64(time.Since(dialed))/float64(time.Millisecond)
		c.firstOnce.Do(func() { close(c.first) })
	case <-timeout.C:
	case <-c.stopCh:
		// Stopped before the frame was due: not an attempt.
		rec.at = 0
		return false
	}
	select {
	case <-c.stopCh:
		return false
	case <-time.After(time.Until(dialed.Add(stay))):
		return true
	}
}

func (c *churner) stop() []joinRec {
	close(c.stopCh)
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []joinRec
	for _, j := range c.joins {
		if j.at != 0 {
			out = append(out, j)
		}
	}
	return out
}
