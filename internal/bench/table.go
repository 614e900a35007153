// Package bench implements the STREAMLINE experiment suite E1–E10: each
// experiment regenerates one table of the evaluation, driving the same
// engines and pipelines the library ships.
// The cmd/streamline-bench binary prints the tables; the root bench_test.go
// exposes the same measurements as testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result: a titled grid plus free-form notes.
type Table struct {
	ID     string
	Title  string
	Claim  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "   claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "   %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// fmtRate renders an events/second rate compactly.
func fmtRate(evPerSec float64) string {
	switch {
	case evPerSec >= 1e6:
		return fmt.Sprintf("%.2fM/s", evPerSec/1e6)
	case evPerSec >= 1e3:
		return fmt.Sprintf("%.0fk/s", evPerSec/1e3)
	default:
		return fmt.Sprintf("%.0f/s", evPerSec)
	}
}

// fmtCount renders a large count compactly.
func fmtCount(n float64) string {
	switch {
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", n/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", n/1e3)
	case n == float64(int64(n)):
		return fmt.Sprintf("%.0f", n)
	default:
		return fmt.Sprintf("%.2f", n)
	}
}
