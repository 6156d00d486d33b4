package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"
)

// Series is one curve of a figure.
type Series struct {
	Label string
	X     []time.Duration // latencies
	Y     []time.Duration // per-step times
}

// SubPlot is one panel of a figure (e.g. one processor count in Figure 3).
type SubPlot struct {
	Title  string
	Series []Series
}

// Figure is a regenerated paper figure as data series.
type Figure struct {
	Title string
	XName string
	Plots []SubPlot
}

// Render writes the figure as aligned text tables, one per sub-plot:
// rows are latencies, columns are series.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n%s\n", f.Title, strings.Repeat("=", len(f.Title)))
	for _, sub := range f.Plots {
		fmt.Fprintf(w, "\n-- %s --\n", sub.Title)
		if len(sub.Series) == 0 {
			continue
		}
		fmt.Fprintf(w, "%12s", f.XName)
		for _, s := range sub.Series {
			fmt.Fprintf(w, " %16s", s.Label)
		}
		fmt.Fprintln(w)
		for i := range sub.Series[0].X {
			fmt.Fprintf(w, "%12s", sub.Series[0].X[i])
			for _, s := range sub.Series {
				if i < len(s.Y) {
					fmt.Fprintf(w, " %13.3fms", ms(s.Y[i]))
				} else {
					fmt.Fprintf(w, " %16s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

// CSV writes the figure as long-form CSV (plot,series,latency_ms,perstep_ms).
func (f *Figure) CSV(w io.Writer) {
	fmt.Fprintln(w, "plot,series,latency_ms,perstep_ms")
	for _, sub := range f.Plots {
		for _, s := range sub.Series {
			for i := range s.X {
				fmt.Fprintf(w, "%q,%q,%.3f,%.4f\n", sub.Title, s.Label, ms(s.X[i]), ms(s.Y[i]))
			}
		}
	}
}

// Table is a regenerated paper table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
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
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as CSV, quoting the cells that need it.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}
