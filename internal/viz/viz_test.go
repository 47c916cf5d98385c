package viz

import (
	"strings"
	"testing"

	"repro/internal/cost"
)

func TestScatterEmpty(t *testing.T) {
	out := Scatter(nil, 0, 1, Options{})
	if !strings.Contains(out, "no plans") {
		t.Errorf("empty scatter = %q", out)
	}
}

func TestScatterBasic(t *testing.T) {
	vs := []cost.Vector{
		cost.Vec(1, 10),
		cost.Vec(10, 1),
		cost.Vec(5, 5),
	}
	out := Scatter(vs, 0, 1, Options{Width: 40, Height: 10, XLabel: "time", YLabel: "fees"})
	if !strings.Contains(out, "fees (3 plans)") {
		t.Errorf("missing header: %q", out)
	}
	if strings.Count(out, "*") != 3 {
		t.Errorf("expected 3 markers, got %d", strings.Count(out, "*"))
	}
	if !strings.Contains(out, "time: 1 .. 10") {
		t.Errorf("missing x range: %q", out)
	}
	lines := strings.Split(out, "\n")
	// Header + height rows + axis + 2 labels + trailing empty.
	if len(lines) != 1+10+1+2+1 {
		t.Errorf("unexpected line count %d", len(lines))
	}
}

func TestScatterSinglePointDegenerateRange(t *testing.T) {
	out := Scatter([]cost.Vector{cost.Vec(5, 5)}, 0, 1, Options{})
	if !strings.Contains(out, "*") {
		t.Error("single point not plotted")
	}
}

func TestScatterLogAxes(t *testing.T) {
	vs := []cost.Vector{cost.Vec(1, 1), cost.Vec(1000, 1000)}
	out := Scatter(vs, 0, 1, Options{LogX: true, LogY: true})
	if !strings.Contains(out, "(log10)") {
		t.Errorf("log annotation missing: %q", out)
	}
	// Zero values survive log scaling without panicking.
	_ = Scatter([]cost.Vector{cost.Vec(0, 0), cost.Vec(10, 10)}, 0, 1,
		Options{LogX: true, LogY: true})
}

func TestScatterProjection(t *testing.T) {
	vs := []cost.Vector{cost.Vec(1, 99, 3), cost.Vec(2, 98, 4)}
	// Project dims 0 and 2; the 99s must not influence ranges.
	out := Scatter(vs, 0, 2, Options{XLabel: "time", YLabel: "ploss"})
	if !strings.Contains(out, "ploss: 3 .. 4") {
		t.Errorf("projection wrong: %q", out)
	}
}

func TestScatterCustomMarker(t *testing.T) {
	out := Scatter([]cost.Vector{cost.Vec(1, 2)}, 0, 1, Options{Marker: 'o'})
	if !strings.Contains(out, "o") {
		t.Error("custom marker missing")
	}
}
