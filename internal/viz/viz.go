// Package viz renders Pareto frontiers as ASCII scatter plots — the
// stand-in for the paper's interactive cost-tradeoff visualization
// (Figure 1). Two cost metrics are plotted directly; for three or more,
// callers plot two-dimensional projections, exactly as the paper
// suggests for higher-dimensional cost spaces.
package viz

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cost"
)

// Options configure a scatter plot.
type Options struct {
	// Width and Height are the plot area's character dimensions
	// (default 60×20).
	Width, Height int
	// XLabel and YLabel name the axes (default "x"/"y").
	XLabel, YLabel string
	// LogX and LogY select logarithmic axis scaling; points must then
	// be positive on that axis.
	LogX, LogY bool
	// Marker is the point glyph (default '*').
	Marker byte
}

func (o *Options) defaults() {
	if o.Width <= 0 {
		o.Width = 60
	}
	if o.Height <= 0 {
		o.Height = 20
	}
	if o.XLabel == "" {
		o.XLabel = "x"
	}
	if o.YLabel == "" {
		o.YLabel = "y"
	}
	if o.Marker == 0 {
		o.Marker = '*'
	}
}

// Scatter plots the (xDim, yDim) projection of the given cost vectors.
// Lower-left is cheap on both axes. An empty input yields a note instead
// of a plot.
func Scatter(vs []cost.Vector, xDim, yDim int, opts Options) string {
	opts.defaults()
	if len(vs) == 0 {
		return "(no plans to display)\n"
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	type pt struct{ x, y float64 }
	pts := make([]pt, 0, len(vs))
	for _, v := range vs {
		x, y := v[xDim], v[yDim]
		if opts.LogX {
			if x <= 0 {
				x = math.SmallestNonzeroFloat64
			}
			x = math.Log10(x)
		}
		if opts.LogY {
			if y <= 0 {
				y = math.SmallestNonzeroFloat64
			}
			y = math.Log10(y)
		}
		pts = append(pts, pt{x, y})
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, opts.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", opts.Width))
	}
	for _, p := range pts {
		col := int(float64(opts.Width-1) * (p.x - minX) / (maxX - minX))
		row := int(float64(opts.Height-1) * (p.y - minY) / (maxY - minY))
		// Row 0 is the top; cheap y should be at the bottom.
		grid[opts.Height-1-row][col] = opts.Marker
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d plans)\n", opts.YLabel, len(vs))
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", opts.Width))
	b.WriteByte('\n')
	lo, hi := minX, maxX
	suffix := ""
	if opts.LogX {
		suffix = " (log10)"
	}
	fmt.Fprintf(&b, " %s: %.4g .. %.4g%s\n", opts.XLabel, lo, hi, suffix)
	if opts.LogY {
		fmt.Fprintf(&b, " %s: %.4g .. %.4g (log10)\n", opts.YLabel, minY, maxY)
	} else {
		fmt.Fprintf(&b, " %s: %.4g .. %.4g\n", opts.YLabel, minY, maxY)
	}
	return b.String()
}
