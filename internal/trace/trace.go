// Package trace exports simulation measurements as CSV for plotting:
// indexed series and labeled tables.
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple column-oriented CSV builder.
type Table struct {
	cols [][]string
	head []string
}

// NewTable returns a table with the given column headers.
func NewTable(headers ...string) *Table {
	t := &Table{head: headers}
	t.cols = make([][]string, len(headers))
	return t
}

// AddRow appends one row; the number of values must match the headers.
func (t *Table) AddRow(values ...any) error {
	if len(values) != len(t.head) {
		return fmt.Errorf("trace: row has %d values, want %d", len(values), len(t.head))
	}
	for i, v := range values {
		t.cols[i] = append(t.cols[i], format(v))
	}
	return nil
}

// Rows returns the number of rows.
func (t *Table) Rows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return len(t.cols[0])
}

func format(v any) string {
	switch x := v.(type) {
	case string:
		return escape(x)
	// Floats use the shortest representation that parses back to exactly
	// the same value.
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', -1, 32)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case bool:
		return strconv.FormatBool(x)
	default:
		return escape(fmt.Sprint(v))
	}
}

func escape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// WriteCSV writes the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, strings.Join(t.head, ",")+"\n"); err != nil {
		return err
	}
	for r := 0; r < t.Rows(); r++ {
		row := make([]string, len(t.cols))
		for c := range t.cols {
			row[c] = t.cols[c][r]
		}
		if _, err := io.WriteString(w, strings.Join(row, ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteSeries writes an indexed series as a two-column CSV.
func WriteSeries(w io.Writer, xName, yName string, ys []float64) error {
	t := NewTable(xName, yName)
	for i, y := range ys {
		if err := t.AddRow(i, y); err != nil {
			return err
		}
	}
	return t.WriteCSV(w)
}
