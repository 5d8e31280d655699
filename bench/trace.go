package main

import (
	"math"
	"sort"
	"time"

	"odr"
)

// span is a hub trace span on the wall clock (unix ns).
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// hubTrace indexes the hub's dumped events by frame seq.
type hubTrace struct {
	render map[uint64]span
	encode map[uint64][]span // one per lane that encoded the seq
	tx     map[uint64][]span // one per viewer the seq was sent to
}

func indexTrace(events []odr.TraceEvent, epochUnixNs int64) *hubTrace {
	t := &hubTrace{
		render: make(map[uint64]span),
		encode: make(map[uint64][]span),
		tx:     make(map[uint64][]span),
	}
	for _, ev := range events {
		s := span{epochUnixNs + int64(ev.TS), epochUnixNs + int64(ev.TS+ev.Dur)}
		switch ev.Name {
		case "render":
			t.render[ev.Seq] = s
		case "encode":
			t.encode[ev.Seq] = append(t.encode[ev.Seq], s)
		case "tx":
			t.tx[ev.Seq] = append(t.tx[ev.Seq], s)
		}
	}
	return t
}

// path is one displayed frame's way through the layers, in ns.
type path struct {
	render, laneWait, encode, sendWait, tx, recvDecode int64
	renderStart                                        int64
}

// pathOf joins one display of the measuring viewer to the hub spans of its
// seq. The hub's spans carry the seq only, so where a seq has several encode
// spans (one per lane) or tx spans (one per viewer) the measuring viewer's is
// picked by rule: its lane is the full-resolution one, whose encode is the
// longest, and its tx is the last one that began before the frame's first
// bytes reached it. Both rules are exact when there is one viewer.
func (t *hubTrace) pathOf(r displayRec) (path, bool) {
	rs, ok := t.render[r.seq]
	encs, txs := t.encode[r.seq], t.tx[r.seq]
	if !ok || len(encs) == 0 || len(txs) == 0 {
		return path{}, false
	}
	enc := encs[0]
	for _, e := range encs[1:] {
		if e.dur() > enc.dur() {
			enc = e
		}
	}
	arrived := r.firstByte
	if arrived == 0 {
		arrived = r.at
	}
	tx, found := span{}, false
	for _, s := range txs {
		if s.start <= arrived && (!found || s.start > tx.start) {
			tx, found = s, true
		}
	}
	if !found {
		tx = txs[0]
	}
	return path{
		renderStart: rs.start,
		render:      rs.dur(),
		laneWait:    enc.start - rs.end,
		encode:      enc.dur(),
		sendWait:    tx.start - enc.end,
		tx:          tx.dur(),
		recvDecode:  r.at - tx.end,
	}, true
}

// joinTrace produces the traced run's per-layer span metrics: the hub's spans
// joined by seq with the generator's own records of the same frames (input
// due, input written, first byte, display).
func joinTrace(dump *serveDump, epochUnixNs int64, w *windowData) metricSet {
	t := indexTrace(dump.Events, epochUnixNs)
	out := metricSet{}

	layers := map[string][]float64{}
	addPath := func(p path) {
		for name, ns := range map[string]int64{
			"game.render_us":        p.render,
			"hub.lane_wait_us":      p.laneWait,
			"codec.encode_span_us":  p.encode,
			"engine.send_wait_us":   p.sendWait,
			"engine.tx_us":          p.tx,
			"client.recv_decode_us": p.recvDecode,
		} {
			layers[name] = append(layers[name], float64(max(ns, 0))/1e3)
		}
	}
	paths := make(map[int]path) // by index into w.recs
	for i, r := range w.recs {
		if !w.inWindow(r.at) {
			continue
		}
		if p, ok := t.pathOf(r); ok {
			paths[i] = p
			addPath(p)
		}
	}

	// Tagged frames: the input's wait, and whether the layers add up to the
	// motion-to-photon time they are supposed to explain.
	var consErr []float64
	for _, a := range w.answered {
		if a.rec < 0 || a.combined || !w.inWindow(a.in.due) {
			continue
		}
		p, ok := paths[a.rec]
		if !ok {
			continue
		}
		wait := max(p.renderStart-a.in.due, 0)
		layers["hub.input_wait_us"] = append(layers["hub.input_wait_us"], float64(wait)/1e3)
		total := w.recs[a.rec].at - a.in.due
		sum := wait + max(p.render, 0) + max(p.laneWait, 0) + max(p.encode, 0) +
			max(p.sendWait, 0) + max(p.tx, 0) + max(p.recvDecode, 0)
		if total > 0 {
			consErr = append(consErr, math.Abs(float64(sum-total))/float64(total))
		}
	}

	for _, name := range []string{
		"hub.input_wait_us", "game.render_us", "hub.lane_wait_us", "codec.encode_span_us",
		"engine.send_wait_us", "engine.tx_us", "client.recv_decode_us",
	} {
		v := layers[name]
		sort.Float64s(v)
		out.putN(name+"_p50", percentile(v, 50), "us", len(v))
		out.putN(name+"_p95", percentile(v, 95), "us", len(v))
	}

	// Fan-out span: first tx start to last tx end of one seq.
	var fan []float64
	for _, txs := range t.tx {
		first, last := txs[0].start, txs[0].end
		for _, s := range txs[1:] {
			first, last = min(first, s.start), max(last, s.end)
		}
		if w.inWindow(first) {
			fan = append(fan, float64(last-first)/1e3)
		}
	}
	sort.Float64s(fan)
	out.putN("engine.fanout_span_us_p50", percentile(fan, 50), "us", len(fan))
	out.putN("engine.fanout_span_us_p95", percentile(fan, 95), "us", len(fan))

	sort.Float64s(consErr)
	if len(consErr) == 0 {
		// Nothing joined: that is itself a failure of the join.
		out.putN("trace.conservation_err", 1, "ratio", 0)
	} else {
		out.putN("trace.conservation_err", percentile(consErr, 50), "ratio", len(consErr))
	}
	return out
}

// traceWindows says how a traced driver run splits its seconds: the first
// part untraced (the base of trace.overhead_ratio), the rest traced.
func traceWindows(seconds time.Duration) (untraced, traced time.Duration) {
	return seconds / 2, seconds - seconds/2
}
