package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"time"

	"odr/internal/frame"
)

// TraceSampler replays a recorded frame-cost trace (e.g. captured from a
// real game with the Pictor instrumentation, or exported from a simulator
// run with `odrsim frames`). The trace loops when exhausted, so any run duration
// can be driven from a finite recording. Input arrivals remain Poisson at
// the configured rate (input timing is a property of the player, not the
// trace).
type TraceSampler struct {
	trace     []Costs
	idx       int
	inputRate float64
	rng       *rand.Rand
	nextID    frame.InputID
}

// NewTraceSampler returns a sampler replaying trace in order, looping
// forever. inputRate is the Poisson user-input rate per second (0 = no
// inputs); seed drives the input process.
func NewTraceSampler(trace []Costs, inputRate float64, seed int64) (*TraceSampler, error) {
	if len(trace) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	for i, c := range trace {
		if c.Render <= 0 || c.Encode <= 0 || c.Decode <= 0 || c.Copy <= 0 || c.Bytes <= 0 {
			return nil, fmt.Errorf("workload: trace entry %d has non-positive fields: %+v", i, c)
		}
	}
	return &TraceSampler{
		trace:     trace,
		inputRate: inputRate,
		rng:       rand.New(rand.NewSource(seed)),
	}, nil
}

// NextFrame implements Source by replaying the trace cyclically.
func (t *TraceSampler) NextFrame() Costs {
	c := t.trace[t.idx]
	t.idx = (t.idx + 1) % len(t.trace)
	return c
}

// NextInputGap implements Source.
func (t *TraceSampler) NextInputGap() time.Duration {
	if t.inputRate <= 0 {
		return math.MaxInt64
	}
	gap := t.rng.ExpFloat64() / t.inputRate
	const minGap = 0.040
	if gap < minGap {
		gap = minGap
	}
	return time.Duration(gap * float64(time.Second))
}

// NextInputID implements Source.
func (t *TraceSampler) NextInputID() frame.InputID {
	t.nextID++
	return t.nextID
}

// Len returns the trace length in frames.
func (t *TraceSampler) Len() int { return len(t.trace) }

// WriteTraceCSV writes frames' sampled costs as the CSV that ParseTraceCSV
// reads, with the columns frame, render_ms, copy_ms, encode_ms, decode_ms,
// bytes, complexity and trans_ms (SendEnd − EncodeEnd, for plotting; a
// replay ignores it). Milliseconds are written in the shortest form that
// parses back to the same float64, so a replay reproduces every cost to the
// nanosecond.
func WriteTraceCSV(w io.Writer, frames []frame.Frame) error {
	b := []byte("frame,render_ms,copy_ms,encode_ms,decode_ms,bytes,complexity,trans_ms\n")
	ms := func(b []byte, d time.Duration) []byte {
		return strconv.AppendFloat(append(b, ','), float64(d)/1e6, 'g', -1, 64)
	}
	for i, f := range frames {
		b = strconv.AppendInt(b, int64(i), 10)
		b = ms(b, f.CostRender)
		b = ms(b, f.CostCopy)
		b = ms(b, f.CostEncode)
		b = ms(b, f.CostDecode)
		b = strconv.AppendInt(append(b, ','), int64(f.Bytes), 10)
		b = strconv.AppendFloat(append(b, ','), f.Complexity, 'g', -1, 64)
		b = append(ms(b, f.SendEnd-f.EncodeEnd), '\n')
	}
	_, err := w.Write(b)
	return err
}

// ParseTraceCSV reads a frame-cost trace from CSV. The header must contain
// the columns render_ms, copy_ms, encode_ms, decode_ms and bytes (extra
// columns are ignored; order is free). A complexity column is optional.
// Milliseconds are rounded to the nearest nanosecond.
func ParseTraceCSV(r io.Reader) ([]Costs, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace header: %w", err)
	}
	col := map[string]int{}
	for i, name := range header {
		col[name] = i
	}
	for _, need := range []string{"render_ms", "copy_ms", "encode_ms", "decode_ms", "bytes"} {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("workload: trace is missing column %q", need)
		}
	}
	ms := func(rec []string, name string) (time.Duration, error) {
		v, err := strconv.ParseFloat(rec[col[name]], 64)
		if err != nil {
			return 0, fmt.Errorf("workload: bad %s value %q: %w", name, rec[col[name]], err)
		}
		return time.Duration(math.Round(v * float64(time.Millisecond))), nil
	}
	var out []Costs
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: reading trace row: %w", err)
		}
		var c Costs
		if c.Render, err = ms(rec, "render_ms"); err != nil {
			return nil, err
		}
		if c.Copy, err = ms(rec, "copy_ms"); err != nil {
			return nil, err
		}
		if c.Encode, err = ms(rec, "encode_ms"); err != nil {
			return nil, err
		}
		if c.Decode, err = ms(rec, "decode_ms"); err != nil {
			return nil, err
		}
		b, err := strconv.Atoi(rec[col["bytes"]])
		if err != nil {
			return nil, fmt.Errorf("workload: bad bytes value %q: %w", rec[col["bytes"]], err)
		}
		c.Bytes = b
		c.Complexity = 1
		if ci, ok := col["complexity"]; ok {
			if v, err := strconv.ParseFloat(rec[ci], 64); err == nil {
				c.Complexity = v
			}
		}
		out = append(out, c)
	}
	return out, nil
}

// Record captures n frames from any Source into a replayable trace.
func Record(src Source, n int) []Costs {
	out := make([]Costs, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, src.NextFrame())
	}
	return out
}

// Compile-time check.
var (
	_ Source = (*Sampler)(nil)
	_ Source = (*TraceSampler)(nil)
)
