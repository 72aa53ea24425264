package stats

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// Table accumulates rows of experiment output and renders them as an
// aligned plain-text table, the format used by cmd/curpbench to print the
// paper's tables and figure series.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are rendered with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = FormatMicros(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	if t.title != "" {
		fmt.Fprintf(w, "%s\n%s\n", t.title, strings.Repeat("-", len(t.title)))
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(t.headers) > 0 {
		fmt.Fprintln(tw, strings.Join(t.headers, "\t"))
	}
	for _, r := range t.rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// FormatMicros renders a duration in microseconds with one decimal,
// matching the units used throughout the paper's evaluation.
func FormatMicros(d time.Duration) string {
	return fmt.Sprintf("%.1fus", float64(d.Nanoseconds())/1000.0)
}
