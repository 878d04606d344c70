// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) against the simulated substrate. Each FigNN function is
// self-contained: it builds the cell(s) the paper describes, drives the
// workload, and returns a Result whose rows mirror the figure's series.
//
// cmd/cmbench prints these; the repository-root benchmarks exercise each
// figure's core operation under `go test -bench`. Absolute values are
// calibrated-model outputs (see DESIGN.md); the comparisons and crossovers
// are the reproduction targets.
package experiments

import (
	"fmt"
	"slices"
	"strings"
)

// Col is one measured value. The json tags are the cmbench -json wire
// shape, committed as the BENCH_PR10.json figure-parity baseline that
// benchdiff reads — keep them stable and additive.
type Col struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	// Noisy tags a wall-clock-denominated measurement (rates, cpu-s per
	// wall-s) that swings with machine load across otherwise-identical
	// runs; benchdiff reports noisy columns informationally instead of
	// gating on them.
	Noisy bool `json:"noisy,omitempty"`
	// Text, when non-empty, makes this a categorical column (e.g. the
	// loadwall limiting resource); Value is ignored by the formatter and
	// benchdiff never gates on it.
	Text string `json:"text,omitempty"`
}

// Row is one labelled series point (a bar, an interval, a sweep setting).
type Row struct {
	Label string `json:"label"`
	Cols  []Col  `json:"cols"`
	// weather is the row's stall share and runtime weather, for a shape
	// test to print beside a failing row; it is not part of the figure.
	weather weather
}

// Result is one regenerated figure.
type Result struct {
	Name  string `json:"name"` // e.g. "fig11"
	Title string `json:"title"`
	Notes string `json:"notes,omitempty"`
	Rows  []Row  `json:"rows"`
}

// Format renders the result as an aligned text table.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", r.Name, r.Title)
	if len(r.Rows) == 0 {
		b.WriteString("(no rows)\n")
		return b.String()
	}
	// Header from the first row's column names.
	labelW := 5
	for _, row := range r.Rows {
		if len(row.Label) > labelW {
			labelW = len(row.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW+2, "")
	for _, c := range r.Rows[0].Cols {
		fmt.Fprintf(&b, "%18s", c.Name)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, row.Label)
		for _, c := range row.Cols {
			fmt.Fprintf(&b, "%18s", formatCol(c))
		}
		b.WriteString("\n")
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "  note: %s\n", r.Notes)
	}
	return b.String()
}

func formatCol(c Col) string {
	switch {
	case c.Text != "":
		return c.Text
	case c.Unit == "":
		return fmt.Sprintf("%.3g", c.Value)
	case c.Value >= 1e6 && (c.Unit == "ops/s" || c.Unit == "B/s" || c.Unit == "B" || c.Unit == "qps"):
		return fmt.Sprintf("%.2fM%s", c.Value/1e6, strings.TrimPrefix(c.Unit, ""))
	case c.Value >= 1e3 && (c.Unit == "ops/s" || c.Unit == "B/s" || c.Unit == "B" || c.Unit == "qps"):
		return fmt.Sprintf("%.1fK%s", c.Value/1e3, c.Unit)
	default:
		return fmt.Sprintf("%.3g%s", c.Value, c.Unit)
	}
}

// registry lists every experiment once, in figure order, under the
// space-separated names ByName resolves: a figure id ("3") or the name of
// a non-figure experiment.
var registry = []struct {
	names string
	run   func() Result
}{
	{"3", Fig3Reshaping}, {"6", Fig6Languages}, {"7", Fig7LookupCPU},
	{"8", Fig8Ads}, {"9", Fig9Geo}, {"10", Fig10SizeCDF},
	{"11", Fig11Preferred}, {"12", Fig12Incast}, {"13", Fig13Planned},
	{"14", Fig14Unplanned}, {"14warm warmrestart", FigWarmRestart},
	{"15", Fig15PonyRamp}, {"16", Fig16OneRMAHW}, {"17", Fig17OneRMAGet},
	{"18", Fig18Mix}, {"19", Fig19MixCPU}, {"20", Fig20ValueSize},
	{"resize", FigResize}, {"tier", FigTier}, {"loadwall", FigLoadWall},
	{"hotkey", FigHotKey},
}

// All returns every experiment in figure order.
func All() []func() Result {
	out := make([]func() Result, len(registry))
	for i, e := range registry {
		out[i] = e.run
	}
	return out
}

// Names returns, for every experiment in figure order, the names ByName
// resolves it by, space-separated.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.names
	}
	return out
}

// ByName resolves an experiment by figure id ("3", "fig3", ...) or by
// the name of a non-figure experiment ("resize").
func ByName(name string) (func() Result, bool) {
	name = strings.TrimPrefix(strings.ToLower(name), "fig")
	for _, e := range registry {
		if slices.Contains(strings.Fields(e.names), name) {
			return e.run, true
		}
	}
	return nil, false
}
