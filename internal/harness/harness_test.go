package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// quickOpts keeps harness tests fast: small blocks, coarse precision.
func quickOpts() Options {
	return Options{
		TargetPrecision:  1.05,
		PrecisionStep:    0.2,
		ResolutionLevels: []int{1, 3},
		MaxTables:        3,
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := Options{TargetPrecision: 1}
	if err := bad.defaults(); err == nil {
		t.Error("TargetPrecision 1 should fail")
	}
	bad = Options{TargetPrecision: 1.01, PrecisionStep: -1}
	if err := bad.defaults(); err == nil {
		t.Error("negative PrecisionStep should fail")
	}
	good := Options{TargetPrecision: 1.01}
	if err := good.defaults(); err != nil {
		t.Fatal(err)
	}
	if good.ScaleFactor != 1 || good.Repetitions != 1 || good.Model == nil {
		t.Error("defaults not applied")
	}
	if len(good.ResolutionLevels) != 3 {
		t.Errorf("default levels = %v", good.ResolutionLevels)
	}
}

func TestInvocationTimes(t *testing.T) {
	blocks := workload.MustTPCHBlocks(1)
	blk, _ := workload.Find(blocks, "Q4")
	opts := quickOpts()
	if err := opts.defaults(); err != nil {
		t.Fatal(err)
	}
	ia, ml, os, err := InvocationTimes(blk.Query, opts.Model, 3, 1.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ia) != 3 || len(ml) != 3 || len(os) != 1 {
		t.Fatalf("series lengths: ia=%d ml=%d os=%d", len(ia), len(ml), len(os))
	}
	for i, d := range ia {
		if d <= 0 {
			t.Errorf("iama[%d] = %v", i, d)
		}
	}
}

func TestTimingFigureRender(t *testing.T) {
	fig, err := Figure3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Sections) != 2 {
		t.Fatalf("%d sections, want 2", len(fig.Sections))
	}
	for _, sec := range fig.Sections {
		// MaxTables=3 keeps only the 2- and 3-table blocks.
		if len(sec.Cells) != 2 {
			t.Fatalf("section %d has %d cells, want 2", sec.ResolutionLevels, len(sec.Cells))
		}
		for _, c := range sec.Cells {
			if c.IAMA <= 0 || c.Memoryless <= 0 || c.OneShot <= 0 {
				t.Errorf("non-positive timing in cell %+v", c)
			}
			if c.Queries == 0 {
				t.Errorf("cell %+v has no queries", c)
			}
		}
	}
	out := fig.Render()
	for _, want := range []string{"Figure 3", "resolution level", "IAMA", "memoryless", "one-shot"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigure5UsesMax(t *testing.T) {
	opts := quickOpts()
	opts.ResolutionLevels = []int{3}
	fig, err := Figure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig.Title, "maximal") {
		t.Errorf("title = %q", fig.Title)
	}
}

func TestAnytimeQuality(t *testing.T) {
	opts := quickOpts()
	opts.ResolutionLevels = []int{4}
	anytime, oneShot, err := AnytimeQuality("Q4", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(anytime) != 4 {
		t.Fatalf("%d anytime points, want 4", len(anytime))
	}
	// Quality (approx factor) must never degrade as time passes, and
	// elapsed time must be non-decreasing.
	for i := 1; i < len(anytime); i++ {
		if anytime[i].ApproxFactor > anytime[i-1].ApproxFactor*(1+1e-9) {
			t.Errorf("quality degraded: %v", anytime)
		}
		if anytime[i].Elapsed < anytime[i-1].Elapsed {
			t.Errorf("elapsed time decreased: %v", anytime)
		}
	}
	// The final anytime frontier meets the theoretical guarantee.
	n := 2.0 // Q4 joins two tables
	limit := 1.0
	for i := 0; i < int(n); i++ {
		limit *= 1.05
	}
	if got := anytime[len(anytime)-1].ApproxFactor; got > limit {
		t.Errorf("final approx factor %g exceeds α^n=%g", got, limit)
	}
	if oneShot.ApproxFactor > limit {
		t.Errorf("one-shot approx factor %g exceeds α^n=%g", oneShot.ApproxFactor, limit)
	}
	if _, _, err := AnytimeQuality("nope", opts); err == nil {
		t.Error("unknown block should fail")
	}
}

func TestInvocationTrace(t *testing.T) {
	opts := quickOpts()
	opts.ResolutionLevels = []int{4}
	ia, ml, err := InvocationTrace("Q4", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ia) != 4 || len(ml) != 4 {
		t.Fatalf("trace lengths ia=%d ml=%d", len(ia), len(ml))
	}
	if _, _, err := InvocationTrace("nope", opts); err == nil {
		t.Error("unknown block should fail")
	}
}

func TestPlanSetSizes(t *testing.T) {
	opts := quickOpts()
	opts.ResolutionLevels = []int{4}
	samples, err := PlanSetSizes("Q3", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("%d samples", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Results < samples[i-1].Results {
			t.Errorf("result count shrank: %v", samples)
		}
		if samples[i].Frontier < samples[i-1].Frontier {
			t.Errorf("frontier shrank: %v", samples)
		}
	}
	if _, err := PlanSetSizes("nope", opts); err == nil {
		t.Error("unknown block should fail")
	}
}

func TestBoundsSweep(t *testing.T) {
	opts := quickOpts()
	opts.ResolutionLevels = []int{3}
	labels, times, err := BoundsSweep("Q3", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 9 || len(times) != 9 {
		t.Fatalf("sweep lengths: %d/%d", len(labels), len(times))
	}
	// The tightened regime must be far cheaper than the unbounded
	// first regime (incrementality), and the relaxed regime must not
	// regenerate the world either.
	var firstRegime, tightRegime time.Duration
	for i, l := range labels {
		switch {
		case strings.HasPrefix(l, "unbounded"):
			firstRegime += times[i]
		case strings.HasPrefix(l, "tightened"):
			tightRegime += times[i]
		}
	}
	if tightRegime > firstRegime {
		t.Errorf("tightened regime (%v) slower than initial optimization (%v)",
			tightRegime, firstRegime)
	}
	if _, _, err := BoundsSweep("nope", opts); err == nil {
		t.Error("unknown block should fail")
	}
}

func TestAggregate(t *testing.T) {
	ds := []time.Duration{time.Second, 3 * time.Second, 2 * time.Second}
	if got := aggregate(ds, false); got != 2*time.Second {
		t.Errorf("avg = %v", got)
	}
	if got := aggregate(ds, true); got != 3*time.Second {
		t.Errorf("max = %v", got)
	}
	if got := aggregate(nil, false); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestFmtDur(t *testing.T) {
	if fmtDur(2*time.Second) != "2s" {
		t.Errorf("got %q", fmtDur(2*time.Second))
	}
	if !strings.HasSuffix(fmtDur(3*time.Millisecond), "ms") {
		t.Errorf("got %q", fmtDur(3*time.Millisecond))
	}
	if !strings.HasSuffix(fmtDur(40*time.Microsecond), "µs") {
		t.Errorf("got %q", fmtDur(40*time.Microsecond))
	}
}
