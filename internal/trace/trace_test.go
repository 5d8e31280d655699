package trace

import (
	"strings"
	"testing"
)

// csvText renders tb as CSV text.
func csvText(tb *Table) string {
	var b strings.Builder
	_ = tb.WriteCSV(&b)
	return b.String()
}

func TestTableBasic(t *testing.T) {
	tb := NewTable("a", "b")
	if err := tb.AddRow(1, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow("x,y", true); err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	got := csvText(tb)
	want := "a,b\n1,2.5\n\"x,y\",true\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestTableRowLengthMismatch(t *testing.T) {
	tb := NewTable("a", "b")
	if err := tb.AddRow(1); err == nil {
		t.Fatal("expected error for short row")
	}
}

func TestEscaping(t *testing.T) {
	tb := NewTable("v")
	_ = tb.AddRow(`say "hi"`)
	_ = tb.AddRow("line\nbreak")
	out := csvText(tb)
	if !strings.Contains(out, `"say ""hi"""`) {
		t.Fatalf("quote escaping wrong: %q", out)
	}
	if !strings.Contains(out, "\"line\nbreak\"") {
		t.Fatalf("newline escaping wrong: %q", out)
	}
}

func TestFormatTypes(t *testing.T) {
	tb := NewTable("v")
	_ = tb.AddRow(int64(9))
	_ = tb.AddRow(float32(1.5))
	_ = tb.AddRow(uint(3)) // falls through to fmt.Sprint
	out := csvText(tb)
	for _, want := range []string{"9", "1.5", "3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestEmptyTable(t *testing.T) {
	tb := NewTable()
	if tb.Rows() != 0 {
		t.Fatal("empty table has rows")
	}
	if csvText(tb) != "\n" {
		t.Fatalf("empty CSV = %q", csvText(tb))
	}
}

func TestWriteSeries(t *testing.T) {
	var b strings.Builder
	if err := WriteSeries(&b, "i", "fps", []float64{60, 59.5}); err != nil {
		t.Fatal(err)
	}
	want := "i,fps\n0,60\n1,59.5\n"
	if b.String() != want {
		t.Fatalf("series CSV = %q", b.String())
	}
}
