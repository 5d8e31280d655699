package workload

import (
	"strings"
	"testing"
	"time"

	"odr/internal/frame"
)

func sampleTrace() []Costs {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	return []Costs{
		{Render: ms(4), Copy: ms(1), Encode: ms(8), Decode: ms(3), Bytes: 30000, Complexity: 1},
		{Render: ms(6), Copy: ms(1), Encode: ms(9), Decode: ms(3), Bytes: 32000, Complexity: 1.1},
		{Render: ms(20), Copy: ms(1), Encode: ms(25), Decode: ms(4), Bytes: 45000, Complexity: 1.4},
	}
}

func TestTraceSamplerLoops(t *testing.T) {
	ts, err := NewTraceSampler(sampleTrace(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 3 {
		t.Fatalf("Len = %d", ts.Len())
	}
	for round := 0; round < 3; round++ {
		for i, want := range sampleTrace() {
			got := ts.NextFrame()
			if got != want {
				t.Fatalf("round %d frame %d = %+v, want %+v", round, i, got, want)
			}
		}
	}
}

func TestTraceSamplerValidates(t *testing.T) {
	if _, err := NewTraceSampler(nil, 3, 1); err == nil {
		t.Fatal("empty trace accepted")
	}
	bad := sampleTrace()
	bad[1].Encode = 0
	if _, err := NewTraceSampler(bad, 3, 1); err == nil {
		t.Fatal("non-positive cost accepted")
	}
}

func TestTraceSamplerInputs(t *testing.T) {
	ts, err := NewTraceSampler(sampleTrace(), 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	n := 2000
	for i := 0; i < n; i++ {
		g := ts.NextInputGap()
		if g < 40*time.Millisecond {
			t.Fatal("refractory period violated")
		}
		total += g
	}
	rate := float64(n) / total.Seconds()
	if rate < 2.5 || rate > 5 {
		t.Fatalf("input rate %.1f, want ~3.7", rate)
	}
	if ts.NextInputID() != 1 || ts.NextInputID() != 2 {
		t.Fatal("ids not sequential")
	}
}

func TestParseTraceCSV(t *testing.T) {
	csvText := `frame,render_ms,copy_ms,encode_ms,decode_ms,bytes,complexity
0,4.5,1.1,8.2,3.0,30000,1.0
1,6.25,1.0,9.5,3.1,32000,1.2
`
	trace, err := ParseTraceCSV(strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 {
		t.Fatalf("parsed %d rows", len(trace))
	}
	if trace[0].Render != 4500*time.Microsecond || trace[0].Bytes != 30000 {
		t.Fatalf("row 0 = %+v", trace[0])
	}
	if trace[1].Complexity != 1.2 {
		t.Fatalf("complexity = %v", trace[1].Complexity)
	}
}

func TestParseTraceCSVErrors(t *testing.T) {
	cases := []string{
		"",                         // no header
		"render_ms,copy_ms\n1,2\n", // missing columns
		"render_ms,copy_ms,encode_ms,decode_ms,bytes\nx,1,1,1,100\n", // bad float
		"render_ms,copy_ms,encode_ms,decode_ms,bytes\n1,1,1,1,zz\n",  // bad int
	}
	for i, c := range cases {
		if _, err := ParseTraceCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRecordFromSampler(t *testing.T) {
	src := NewSampler(testParams(), RefScale, 9)
	trace := Record(src, 50)
	if len(trace) != 50 {
		t.Fatalf("recorded %d", len(trace))
	}
	ts, err := NewTraceSampler(trace, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ts.NextFrame() != trace[0] {
		t.Fatal("replay differs from recording")
	}
}

// TestRoundTripCSVThroughTraceSampler: a recorded trace written by
// WriteTraceCSV, parsed back and replayed yields every recorded cost exactly,
// to the nanosecond.
func TestRoundTripCSVThroughTraceSampler(t *testing.T) {
	src := NewSampler(testParams(), RefScale, 11)
	rec := Record(src, 500)
	frames := make([]frame.Frame, len(rec))
	for i, c := range rec {
		frames[i] = frame.Frame{CostRender: c.Render, CostCopy: c.Copy, CostEncode: c.Encode,
			CostDecode: c.Decode, Bytes: c.Bytes, Complexity: c.Complexity, SendEnd: c.Encode / 3}
	}
	var sb strings.Builder
	if err := WriteTraceCSV(&sb, frames); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTraceCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(rec) {
		t.Fatalf("parsed %d rows, want %d", len(parsed), len(rec))
	}
	ts, err := NewTraceSampler(parsed, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range rec {
		if got := ts.NextFrame(); got != want {
			t.Fatalf("row %d replays as %+v, want %+v", i, got, want)
		}
	}
}

func TestWriteTraceCSVFormat(t *testing.T) {
	var sb strings.Builder
	f := frame.Frame{CostRender: 4500 * time.Microsecond, CostCopy: time.Millisecond, CostEncode: 8200001,
		CostDecode: 3 * time.Millisecond, Bytes: 30000, Complexity: 1.25, EncodeEnd: 20, SendEnd: 30}
	if err := WriteTraceCSV(&sb, []frame.Frame{f, f}); err != nil {
		t.Fatal(err)
	}
	const row = "4.5,1,8.200001,3,30000,1.25,1e-05\n"
	want := "frame,render_ms,copy_ms,encode_ms,decode_ms,bytes,complexity,trans_ms\n0," + row + "1," + row
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}
