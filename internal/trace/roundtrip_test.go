package trace

import (
	"encoding/csv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestCSVEscapingRoundTrip checks that strings needing escaping survive a
// real CSV parse (encoding/csv) unchanged.
func TestCSVEscapingRoundTrip(t *testing.T) {
	inputs := []string{
		"plain",
		"comma,inside",
		`quo"ted`,
		"line\nbreak",
		`both,"and` + "\n" + `more`,
		"",
		`""`,
	}
	// Two columns so an empty string doesn't render as a blank line (which
	// encoding/csv would skip entirely).
	tb := NewTable("i", "v")
	for i, s := range inputs {
		if err := tb.AddRow(i, s); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := csv.NewReader(strings.NewReader(csvText(tb))).ReadAll()
	if err != nil {
		t.Fatalf("exported CSV does not parse: %v", err)
	}
	if len(recs) != len(inputs)+1 {
		t.Fatalf("got %d records, want %d", len(recs), len(inputs)+1)
	}
	for i, s := range inputs {
		if got := recs[i+1][1]; got != s {
			t.Errorf("row %d: %q round-tripped to %q", i, s, got)
		}
	}
}

// TestCSVFloatRoundTrip checks that float64 values written to CSV parse back
// bit for bit.
func TestCSVFloatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := []float64{0, 1, -1, 0.1, 1.0 / 3.0, math.Pi, 1e-300, 1e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 16.666666666666668}
	for i := 0; i < 200; i++ {
		vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(20)-10)))
	}
	tb := NewTable("v")
	for _, v := range vals {
		if err := tb.AddRow(v); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := csv.NewReader(strings.NewReader(csvText(tb))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		got, err := strconv.ParseFloat(recs[i+1][0], 64)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if got != v {
			t.Errorf("row %d: %v round-tripped to %v", i, v, got)
		}
	}
}
