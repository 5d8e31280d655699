// Package chaos injects network faults into a net.Conn, deterministically.
//
// A Conn (see Wrap) applies a Schedule of faults — latency spikes, bandwidth
// collapse, burst loss, byte corruption, read/write stalls, mid-stream
// disconnects and half-open partitions — to the traffic that crosses it.
// Every fault fires at a byte offset of the transferred stream, never at a
// wall-clock instant, and all randomness (corruption positions) comes from a
// caller-provided seed, so the same schedule + seed + traffic always produces
// the identical fault event log (Conn.EventLog). That determinism is what
// lets the failure-matrix tests and the odrsoak harness assert exact
// behaviour instead of sampling flaky timing.
//
// Schedule grammar (Parse):
//
//	spec  := "" | step ("," step)*
//	step  := kind "@" offset [":" param] ["x" count]
//	kind  := latency | bw | loss | corrupt | stallr | stallw | disc | halfopen |
//	         crash | mpart | hbdelay | loop
//
// offset is the cumulative byte offset (writes for write-side kinds, reads
// for stallr/halfopen) at which the step arms. param is a Go duration for
// latency/stallr/stallw, and a bytes-per-second integer for bw (0 clears the
// shaping; likewise "latency@N:0s" clears an earlier latency). count (loss,
// corrupt) is how many subsequent writes are affected (default 1).
// "loop@N" is a pseudo-step: once every step has fired, the whole schedule
// re-arms shifted N bytes forward, turning a one-shot script into a
// recurring storm.
//
// Examples:
//
//	latency@0:5ms                    — 5ms added to every write from the start
//	bw@65536:262144                  — after 64 KiB, collapse to 256 KiB/s
//	loss@49152x2,corrupt@98304       — two writes dropped, then a byte flipped
//	stallw@32768:80ms,disc@147456    — a write stall, then a mid-stream cut
//	halfopen@65536                   — reads go dark after 64 KiB (writes live)
//
// Node-level faults (the cluster fault model) use the same grammar:
//
//	crash@65536                      — node crash: the conn's OnNodeFault hook
//	                                   fires (the harness hard-closes the
//	                                   worker's listener) and the conn dies
//	mpart@400                        — permanent partition: writes blackhole,
//	                                   reads go dark (master⇄worker split)
//	mpart@400:250ms                  — partition that heals after 250ms
//	hbdelay@0:120msx3                — the next 3 writes (heartbeats, on a
//	                                   control conn) are each delayed 120ms
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the fault kinds a Step can inject.
type Kind uint8

// The fault kinds. Latency, Bandwidth, Loss, Corrupt, StallWrite and
// Disconnect act on the write side of the wrapped conn; StallRead and
// HalfOpen act on the read side.
const (
	// Latency adds Dur to every write from the step's offset on (Dur 0
	// clears it). The writer waits it out, so back-to-back writes pay it
	// one after another: a stalling sender, not pipelined propagation
	// delay.
	Latency Kind = iota
	// Bandwidth paces writes at Rate bytes/second from the step's offset on
	// (Rate 0 lifts the limit) — the serialization bottleneck of a shaped
	// path, with synchronous backpressure: a write returns once the link
	// has carried it.
	Bandwidth
	// Loss silently swallows the next Count writes (burst loss).
	Loss
	// Corrupt flips one seeded-random byte in each of the next Count writes.
	Corrupt
	// StallRead blocks the next read for Dur.
	StallRead
	// StallWrite blocks the next write for Dur.
	StallWrite
	// Disconnect closes the underlying conn mid-stream; both ends see it.
	Disconnect
	// HalfOpen stops delivering reads (they block until deadline or close)
	// while writes keep succeeding — a half-open partition.
	HalfOpen
	// Crash is a node-level fault: when it fires, the conn's OnNodeFault
	// hook runs (a cluster harness uses it to hard-close the worker's
	// listener and every session — process death, no drain, no goodbye)
	// and the conn itself dies like Disconnect.
	Crash
	// Partition is a two-way partition from the firing offset on: writes
	// are silently blackholed and reads deliver nothing (blocking until
	// the read deadline, Close, or the partition healing). Dur > 0 heals
	// the partition after that long; Dur 0 is permanent. Wrapped around a
	// control-plane conn it is the master⇄worker split of the cluster
	// fault model; on a data conn it isolates one viewer.
	Partition
	// HeartbeatDelay delays each of the next Count writes by Dur. On a
	// control conn where each write is one heartbeat request this is the
	// late-heartbeat fault: Dur below the master's deadline must be
	// tolerated, Dur beyond it must trigger failover.
	HeartbeatDelay
)

var kindNames = map[Kind]string{
	Latency:        "latency",
	Bandwidth:      "bw",
	Loss:           "loss",
	Corrupt:        "corrupt",
	StallRead:      "stallr",
	StallWrite:     "stallw",
	Disconnect:     "disc",
	HalfOpen:       "halfopen",
	Crash:          "crash",
	Partition:      "mpart",
	HeartbeatDelay: "hbdelay",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// readSide reports whether the kind triggers on the read-byte offset.
func (k Kind) readSide() bool { return k == StallRead || k == HalfOpen }

// Step is one scheduled fault.
type Step struct {
	// Kind selects the fault.
	Kind Kind
	// At is the cumulative stream offset (bytes written, or read for
	// read-side kinds) at which the step fires.
	At int64
	// Dur parameterizes Latency, StallRead, StallWrite and HeartbeatDelay;
	// for Partition it is the healing time (0 = permanent).
	Dur time.Duration
	// Rate parameterizes Bandwidth (bytes/second; 0 = unlimited).
	Rate float64
	// Count is how many writes Loss/Corrupt/HeartbeatDelay affect
	// (default 1).
	Count int
}

// String renders the step in the schedule grammar.
func (s Step) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%d", s.Kind, s.At)
	switch s.Kind {
	case Latency, StallRead, StallWrite:
		fmt.Fprintf(&b, ":%s", s.Dur)
	case Bandwidth:
		fmt.Fprintf(&b, ":%d", int64(s.Rate))
	case Loss, Corrupt:
		if s.Count > 1 {
			fmt.Fprintf(&b, "x%d", s.Count)
		}
	case Partition:
		if s.Dur > 0 {
			fmt.Fprintf(&b, ":%s", s.Dur)
		}
	case HeartbeatDelay:
		fmt.Fprintf(&b, ":%s", s.Dur)
		if s.Count > 1 {
			fmt.Fprintf(&b, "x%d", s.Count)
		}
	}
	return b.String()
}

// Schedule is a scripted sequence of faults, applied by a Conn.
type Schedule struct {
	// Name labels the schedule in logs and reports.
	Name string
	// Steps fire in At order; see the package grammar.
	Steps []Step
	// Loop, when > 0, re-arms the whole schedule every Loop bytes once all
	// steps have fired.
	Loop int64
}

// String renders the schedule in the grammar accepted by Parse.
func (s Schedule) String() string {
	parts := make([]string, 0, len(s.Steps)+1)
	for _, st := range s.Steps {
		parts = append(parts, st.String())
	}
	if s.Loop > 0 {
		parts = append(parts, fmt.Sprintf("loop@%d", s.Loop))
	}
	return strings.Join(parts, ",")
}

// Parse builds a Schedule from the grammar described in the package comment.
// The empty spec is the fault-free schedule.
func Parse(spec string) (Schedule, error) {
	var s Schedule
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		kindStr, rest, ok := strings.Cut(tok, "@")
		if !ok {
			return s, fmt.Errorf("chaos: step %q: missing @offset", tok)
		}
		var count int
		if body, cnt, ok := strings.Cut(rest, "x"); ok {
			n, err := strconv.Atoi(cnt)
			if err != nil || n <= 0 {
				return s, fmt.Errorf("chaos: step %q: bad count %q", tok, cnt)
			}
			rest, count = body, n
		}
		offStr, param, hasParam := strings.Cut(rest, ":")
		off, err := strconv.ParseInt(offStr, 10, 64)
		if err != nil || off < 0 {
			return s, fmt.Errorf("chaos: step %q: bad offset %q", tok, offStr)
		}
		if kindStr == "loop" {
			if off <= 0 {
				return s, fmt.Errorf("chaos: step %q: loop period must be positive", tok)
			}
			s.Loop = off
			continue
		}
		var kind Kind
		found := false
		for k, n := range kindNames {
			if n == kindStr {
				kind, found = k, true
				break
			}
		}
		if !found {
			return s, fmt.Errorf("chaos: step %q: unknown kind %q", tok, kindStr)
		}
		step := Step{Kind: kind, At: off, Count: count}
		switch kind {
		case Latency, StallRead, StallWrite, HeartbeatDelay:
			if !hasParam {
				return s, fmt.Errorf("chaos: step %q: %s needs a duration", tok, kind)
			}
			d, err := time.ParseDuration(param)
			if err != nil || d < 0 {
				return s, fmt.Errorf("chaos: step %q: bad duration %q", tok, param)
			}
			step.Dur = d
		case Bandwidth:
			if !hasParam {
				return s, fmt.Errorf("chaos: step %q: bw needs a bytes/sec rate", tok)
			}
			r, err := strconv.ParseInt(param, 10, 64)
			if err != nil || r < 0 {
				return s, fmt.Errorf("chaos: step %q: bad rate %q", tok, param)
			}
			step.Rate = float64(r)
		case Partition:
			// The healing time is optional: a bare mpart is permanent.
			if hasParam {
				d, err := time.ParseDuration(param)
				if err != nil || d < 0 {
					return s, fmt.Errorf("chaos: step %q: bad duration %q", tok, param)
				}
				step.Dur = d
			}
		default:
			if hasParam {
				return s, fmt.Errorf("chaos: step %q: %s takes no parameter", tok, kind)
			}
		}
		counted := kind == Loss || kind == Corrupt || kind == HeartbeatDelay
		if step.Count == 0 && counted {
			step.Count = 1
		} else if count > 0 && !counted {
			return s, fmt.Errorf("chaos: step %q: %s takes no count", tok, kind)
		}
		s.Steps = append(s.Steps, step)
	}
	sort.SliceStable(s.Steps, func(i, j int) bool { return s.Steps[i].At < s.Steps[j].At })
	return s, nil
}

// MustParse is Parse, panicking on error; for statically-known specs.
func MustParse(spec string) Schedule {
	s, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// nominalFrame is the unit the stock schedules are written in: the wire
// size, in bytes, of one delta frame message of the synthetic game at the
// soaks' default 64x36 (9216 raw bytes; about 0.3x that through the tile
// codec). The grammar's offsets are bytes, but what a stock schedule means
// is "a few frames in" — so each offset below is a frame count times this,
// and keeps that meaning when the codec's output size moves.
const nominalFrame = 2740

// namedSpecs are the stock schedules the soak harness and tests run under.
var namedSpecs = map[string]string{
	// clean: no faults — the control arm.
	"clean": "",
	// flaky: a little base latency, a write stall 5 frames in, then a
	// mid-stream cut after 16. On a reconnecting client each fresh conn
	// restarts the script, so the session dies and resumes every 16 frames
	// — sustained churn.
	"flaky": fmt.Sprintf("latency@0:2ms,stallw@%d:60ms,disc@%d", 5*nominalFrame, 16*nominalFrame),
	// lossy: recurring burst loss (5 frames in) and byte corruption (10
	// frames in) every 10 frames.
	"lossy": fmt.Sprintf("loss@%dx2,corrupt@%d,loop@%d", 5*nominalFrame, 10*nominalFrame, 10*nominalFrame),
	// degraded: added latency, then after 3 frames the path collapses to 30
	// frames a second (an eighth of what the soaks' 240 FPS hub produces).
	"degraded": fmt.Sprintf("latency@0:15ms,bw@%d:%d", 3*nominalFrame, 30*nominalFrame),
	// partition: the read direction goes dark after 7 frames (half-open).
	"partition": fmt.Sprintf("halfopen@%d", 7*nominalFrame),
}

// Named returns one of the stock schedules: clean, flaky, lossy, degraded,
// partition.
func Named(name string) (Schedule, error) {
	spec, ok := namedSpecs[name]
	if !ok {
		return Schedule{}, fmt.Errorf("chaos: unknown schedule %q (have %s)", name, strings.Join(NamedSchedules(), ", "))
	}
	s, err := Parse(spec)
	if err != nil {
		return Schedule{}, err
	}
	s.Name = name
	return s, nil
}

// NamedSchedules lists the stock schedule names, sorted.
func NamedSchedules() []string {
	names := make([]string, 0, len(namedSpecs))
	for n := range namedSpecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
